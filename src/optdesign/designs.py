"""Core data model: approximate designs, regression models, and 2x2 information matrices.

An approximate design is a discrete probability measure on a one-dimensional
design space [lo, hi]: support points x_i with weights w_i >= 0 summing to 1.
Its information matrix is the weighted Gram matrix

    M = sum_i w_i f(x_i) f(x_i)^T,

where f is the model's regressor (for nonlinear models, the gradient of the
mean function at nominal parameters).  All models here have m = 2 parameters,
so M is symmetric 2x2 and everything downstream works in closed form.

All criteria are computed on the normalized matrix (noise variance 1, sample
size 1); efficiencies and correlations are invariant to that common factor.

Every type here is immutable after construction and every operation is a pure
function, so unrestricted concurrent use is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ValidationError

# Tolerances, each relative to the scale it names: no floor, so the units of x and theta do not matter.
MERGE_TOL = 1e-9         # times hi - lo
SINGULARITY_TOL = 1e-12  # times m11 * m22


def _is_singular(m11, m22, det):
    """det(M) <= SINGULARITY_TOL m11 m22, that is 1 - r^2 <= SINGULARITY_TOL, on floats or arrays."""
    return det <= SINGULARITY_TOL * (m11 * m22)


@dataclass(frozen=True)
class DesignSpace:
    """Closed interval [lo, hi] of admissible experimental conditions."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValidationError(f"design space endpoints must be finite, got [{self.lo}, {self.hi}]")
        if not self.lo < self.hi:
            raise ValidationError(f"design space needs lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def merge_tol(self) -> float:
        """Distance below which two support points are considered the same."""
        return MERGE_TOL * self.width

    def contains(self, x: float) -> bool:
        slack = 1e-12 * self.width
        return self.lo - slack <= x <= self.hi + slack

    def clip(self, x: float) -> float:
        return min(max(x, self.lo), self.hi)

    def grid(self, n: int) -> np.ndarray:
        return np.linspace(self.lo, self.hi, n)


@dataclass(frozen=True)
class Design:
    """Discrete probability measure: ((x_1, w_1), ..., (x_k, w_k)), sorted by x.

    Instances are canonical: weights normalized to sum 1, points sorted
    ascending, near-duplicates merged, zero-weight points dropped.  Build them
    through :func:`make_design` so the invariants hold.
    """

    points: tuple[tuple[float, float], ...]

    @property
    def xs(self) -> np.ndarray:
        return np.array([x for x, _ in self.points], dtype=float)

    @property
    def ws(self) -> np.ndarray:
        return np.array([w for _, w in self.points], dtype=float)

    @property
    def support_size(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class Model:
    """Two-parameter regression model seen through its regressor vector.

    regressor must be vectorized: given an ndarray of shape (n,) it returns
    the regressor values with shape (n, 2).  For nonlinear models this is the
    gradient of the mean function evaluated at ``nominal_params``.
    ``regressor_dx``, vectorized alike, is its x-derivative; the optimizer needs it.
    """

    name: str
    space: DesignSpace
    regressor: Callable[[np.ndarray], np.ndarray]
    nominal_params: tuple[float, ...] | None = None
    regressor_dx: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass(frozen=True)
class InfoMatrix:
    """Symmetric positive-semidefinite 2x2 information matrix and the det it was built with (``fim``'s
    is Cauchy-Binet's); from entries alone it is m11 m22 - m12^2, the package's only cancelling det."""

    m11: float
    m12: float
    m22: float
    det: float = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.det is None:
            object.__setattr__(self, "det", self.m11 * self.m22 - self.m12 * self.m12)
        vals = (self.m11, self.m12, self.m22)
        if not all(math.isfinite(v) for v in (*vals, self.det)):
            raise ValidationError(f"information matrix entries must be finite, got {vals}")
        if self.m11 < 0.0 or self.m22 < 0.0:
            raise ValidationError(f"diagonal of a Gram matrix cannot be negative: {vals}")
        if self.det < -SINGULARITY_TOL * (self.m11 * self.m22):
            raise ValidationError(f"matrix is not positive semidefinite: {vals}, det={self.det}")

    @property
    def trace(self) -> float:
        return self.m11 + self.m22

    @property
    def is_singular(self) -> bool:
        """The package's one singularity test; see ``_is_singular``."""
        return bool(_is_singular(self.m11, self.m22, self.det))


def make_design(pairs: Sequence[tuple[float, float]], space: DesignSpace) -> Design:
    """Build a canonical Design from (x, weight) pairs.

    Weights are normalized by total mass, points sorted ascending, and points
    closer than the space's merge tolerance are merged (weights added, support
    at the weighted mean).  Zero-weight points are dropped after merging.
    """
    if len(pairs) == 0:
        raise ValidationError("a design needs at least one support point")
    xs = [float(x) for x, _ in pairs]
    ws = [float(w) for _, w in pairs]
    for x, w in zip(xs, ws):
        if not (math.isfinite(x) and math.isfinite(w)):
            raise ValidationError(f"non-finite design point ({x}, {w})")
        if w < 0.0:
            raise ValidationError(f"negative weight {w} at x={x}")
        if not space.contains(x):
            raise ValidationError(f"point x={x} lies outside the design space [{space.lo}, {space.hi}]")
    total = sum(ws)
    if total <= 0.0:
        raise ValidationError("all weights are zero")

    order = sorted(range(len(xs)), key=lambda i: xs[i])
    tol = space.merge_tol()
    merged: list[list[float]] = []
    for i in order:
        if merged and xs[i] - merged[-1][0] <= tol:
            mx, mw = merged[-1]
            w_new = mw + ws[i]
            if w_new > 0.0:
                merged[-1][0] = (mx * mw + xs[i] * ws[i]) / w_new
            merged[-1][1] = w_new
        else:
            merged.append([xs[i], ws[i]])

    points = tuple(
        (space.clip(x), w / total) for x, w in merged if w > 0.0
    )
    if not points:
        raise ValidationError("all weights are zero")
    assert abs(sum(w for _, w in points) - 1.0) <= 1e-9
    return Design(points=points)


def _det(F: np.ndarray, W: np.ndarray) -> np.ndarray:
    """det of sum_i w_i f_i f_i^T for the regressors F (n, k, 2) and weights W (n, k), by Cauchy-Binet:
    sum over point pairs i < j of w_i w_j (f_i x f_j)^2, f x g = f1 g2 - f2 g1, a sum of squares that
    does not cancel, so a rank-one matrix (f = 0, or parallel f) gets exactly 0."""
    return sum((W[:, i] * W[:, j] * (F[:, i, 0] * F[:, j, 1] - F[:, i, 1] * F[:, j, 0]) ** 2
                for i in range(F.shape[1]) for j in range(i + 1, F.shape[1])), np.zeros(len(F)))


def fim_entries(model: Model, xs: np.ndarray, ws: np.ndarray,
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Entries (m11, m12, m22) and det of the information matrices of n k-point designs.

    Row i of xs (n, k) holds the support points of design i and row i of ws
    its weights.  One regressor call covers every point; each matrix is the
    product (F w)^T F of one stacked matmul, with m12 = (G12 + G21) / 2, and its
    det ``_det``'s, so a row's values are bit for bit those of :func:`fim` on it.
    """
    n, k = xs.shape
    flat = xs.reshape(-1)
    F = np.asarray(model.regressor(flat), dtype=float)
    if F.shape != (n * k, 2):
        raise ValidationError(f"regressor returned shape {F.shape}, expected ({n * k}, 2)")
    if not np.all(np.isfinite(F)):
        bad = flat[~np.all(np.isfinite(F), axis=1)]
        raise ValidationError(f"regressor is non-finite at support point(s) {bad.tolist()}")
    F = F.reshape(n, k, 2)
    G = np.matmul((F * ws[:, :, None]).transpose(0, 2, 1), F)
    return G[:, 0, 0], 0.5 * (G[:, 0, 1] + G[:, 1, 0]), G[:, 1, 1], _det(F, ws)


def fim(model: Model, design: Design) -> InfoMatrix:
    """Information matrix M = sum_i w_i f(x_i) f(x_i)^T of a design, with its Cauchy-Binet det."""
    return InfoMatrix(*(float(v[0]) for v in fim_entries(model, design.xs[None, :], design.ws[None, :])))


def slr_model(space: DesignSpace) -> Model:
    """Simple linear regression y = theta1 + theta2 x + noise; regressor f(x) = (1, x), f' = (0, 1)."""

    def regressor(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.stack([np.ones_like(x), x], axis=-1)

    return Model(name="slr", space=space, regressor=regressor, nominal_params=None,
                 regressor_dx=lambda x: np.tile([0.0, 1.0], np.shape(x) + (1,)))


# --- JSON serialization (shared by the CLI and golden tests) ----------------

def design_to_json(design: Design, space: DesignSpace) -> dict:
    return {
        "points": [{"x": x, "w": w} for x, w in design.points],
        "space": {"lo": space.lo, "hi": space.hi},
    }


def design_from_json(obj: dict) -> tuple[Design, DesignSpace]:
    try:
        space = DesignSpace(float(obj["space"]["lo"]), float(obj["space"]["hi"]))
        pairs = [(float(p["x"]), float(p["w"])) for p in obj["points"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed design JSON: {exc}") from exc
    return make_design(pairs, space), space

"""Core data model: approximate designs, regression models, and 2x2 information matrices.

An approximate design is a discrete probability measure on a one-dimensional design space [lo, hi]:
support points x_i with weights w_i >= 0 summing to 1.  Its information matrix is the weighted Gram matrix

    M = sum_i w_i f(x_i) f(x_i)^T,

where f is the model's regressor (for nonlinear models, the gradient of the mean function at nominal
parameters).  All models here have m = 2 parameters, so M is symmetric 2x2 and everything downstream works
in closed form.  All criteria are computed on the normalized matrix (noise variance 1, sample size 1);
efficiencies and correlations are invariant to that common factor.

One rounding rule decides singularity: only ``_cross`` sets a 2x2 cross product to 0 within its rounding
bound.  The slopes formed per evaluation (the certificate's, the polish's, ``_disk_optimal``'s rate and
``c_optimal``'s Cramer numerators) take theirs as plain products and set none to 0.  det M, a sum of
``_cross`` squares (``_det``), is singular when it is not a positive normal float.  Every type here is
immutable and every operation pure: concurrent use is safe.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import OptimizationError, ValidationError

MERGE_TOL = 1e-9  # times hi - lo: no floor, so the units of x do not matter
EPS = sys.float_info.epsilon


def _cross(p, q):
    """The cross product f x g = p - q, p = f1 g2 and q = f2 g1, on floats or arrays: 0 within its rounding
    bound 4 EPS (|p| + |q|) (Higham 2002, ch. 3), so parallel f and g give exactly 0 at any column scale."""
    return (abs(c := p - q) > 4.0 * EPS * (abs(p) + abs(q))) * c


def _is_singular(det):
    """The package's one singularity rule, on floats or arrays: det M is not a positive normal float."""
    return det < sys.float_info.min


@dataclass(frozen=True)
class DesignSpace:
    """Closed interval [lo, hi] of admissible experimental conditions, its ends stored as floats."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):  # a non-number raises TypeError here
            raise ValidationError(f"design space endpoints must be finite, got [{self.lo}, {self.hi}]")
        if not self.lo < self.hi:
            raise ValidationError(f"design space needs lo < hi, got [{self.lo}, {self.hi}]")
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))

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
    """Two-parameter regression model seen through its regressor vector, all that generic code reads.

    regressor must be vectorized: given an ndarray of shape (n,) it returns the values with shape (n, 2); for
    nonlinear models, the gradient of the mean function at ``nominal_params``, which generic code does not read.
    ``regressor_dx``, vectorized alike, is its x-derivative; the optimizer needs it.  x is in the units of
    ``space``, and ``name`` appears only in messages.
    """

    name: str
    space: DesignSpace
    regressor: Callable[[np.ndarray], np.ndarray]
    nominal_params: tuple[float, ...] | None = None
    regressor_dx: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass(frozen=True)
class InfoMatrix:
    """Symmetric positive-semidefinite 2x2 information matrix and the det it was built with (``fim``'s
    is Cauchy-Binet's); from entries alone it is ``_cross(m11 m22, m12^2)``."""

    m11: float
    m12: float
    m22: float
    det: float = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.det is None:
            object.__setattr__(self, "det", _cross(self.m11 * self.m22, self.m12 * self.m12))
        vals = (self.m11, self.m12, self.m22)
        if not all(math.isfinite(v) for v in (*vals, self.det)):
            raise ValidationError(f"information matrix entries must be finite, got {vals}")
        if self.m11 < 0.0 or self.m22 < 0.0:
            raise ValidationError(f"diagonal of a Gram matrix cannot be negative: {vals}")
        if self.det < 0.0:
            raise ValidationError(f"matrix is not positive semidefinite: {vals}, det={self.det}")

    @property
    def trace(self) -> float:
        return self.m11 + self.m22

    @property
    def is_singular(self) -> bool:
        """The package's one singularity test; see ``_is_singular``."""
        return bool(_is_singular(self.det))


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
    # A power-of-two scale is exact: the weights keep their ratios bit for bit, and the total and merge stay finite.
    ws = [math.ldexp(w, -math.frexp(max(ws))[1]) for w in ws]
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

    points = tuple((space.clip(x), w / total) for x, w in merged if w > 0.0)  # merging keeps a total > 0: not empty
    assert abs(sum(w for _, w in points) - 1.0) <= 1e-9
    return Design(points=points)


def _det(f1, f2, W) -> np.ndarray:
    """det of sum_i w_i f_i f_i^T over the k points of n designs, f_i = (f1[i], f2[i]) and w_i = W[i] each
    given as n values, by Cauchy-Binet: sum over point pairs i < j of w_i w_j (f_i x f_j)^2 by ``_cross``, a
    sum of squares that does not cancel, so a rank-one matrix (f = 0, or parallel f) gets exactly 0."""
    return sum((W[i] * W[j] * _cross(f1[i] * f2[j], f2[i] * f1[j]) ** 2
                for i in range(len(W)) for j in range(i + 1, len(W))), np.zeros(len(W[0])))


def _regressor(model: Model, x: np.ndarray, dx: bool = False) -> np.ndarray:
    """The regressor (``regressor_dx`` if dx) at the points x of any shape, as floats x.shape + (2,), from one
    call on x's n points, which must return (n, 2); a model without ``regressor_dx`` raises on dx."""
    if (g := getattr(model, name := "regressor_dx" if dx else "regressor")) is None:
        raise ValidationError(f"model {model.name!r} has no {name}; the optimizer needs it")
    F = np.asarray(g(flat := x.reshape(-1)), dtype=float)
    if F.shape != (len(flat), 2):
        raise ValidationError(f"{name} returned shape {F.shape}, expected ({len(flat)}, 2)")
    return F.reshape(x.shape + (2,))


def fim_entries(model: Model, xs: np.ndarray, ws: np.ndarray,
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Entries (m11, m12, m22) and det of the information matrices of n k-point designs: row i of xs (n, k)
    holds design i's support points and row i of ws its weights.  One regressor call covers every point, and
    ``_fim_of`` forms the matrices, so a row's values are bit for bit those of :func:`fim` on it."""
    return _fim_of(_regressor(model, xs), xs, ws)


def _fim_of(F: np.ndarray, xs: np.ndarray, ws: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``fim_entries`` from the regressor values F (n, k, 2) at the supports xs (n, k): each matrix is the
    product (F w)^T F of one stacked matmul, with m12 = (G12 + G21) / 2, and its det ``_det``'s.  An entry
    or det that overflows a float raises OptimizationError."""
    with np.errstate(over="ignore", invalid="ignore"):
        G = np.matmul((F * ws[:, :, None]).transpose(0, 2, 1), F)
        m12, det = 0.5 * (G[:, 0, 1] + G[:, 1, 0]), _det(*F.T, ws.T)
    if not (np.isfinite(G).all() and np.isfinite(m12).all() and np.isfinite(det).all()):
        # A non-finite regressor value makes its row non-finite; on finite ones, that is an overflow.
        if not np.all(finite := np.isfinite(F).all(axis=2)):
            raise ValidationError(f"regressor is non-finite at support point(s) {xs[~finite].tolist()}")
        bad = ~(np.isfinite(G).all(axis=(1, 2)) & np.isfinite(m12) & np.isfinite(det))
        raise OptimizationError(f"information matrix overflows a float on the support {xs[bad][0].tolist()}")
    return G[:, 0, 0], m12, G[:, 1, 1], det


def fim(model: Model, design: Design) -> InfoMatrix:
    """Information matrix M = sum_i w_i f(x_i) f(x_i)^T of a design, with its Cauchy-Binet det."""
    return InfoMatrix(*(float(v[0]) for v in fim_entries(model, design.xs[None, :], design.ws[None, :])))


def slr_model(space: DesignSpace) -> Model:
    """Simple linear regression y = theta1 + theta2 x + noise; regressor f(x) = (1, x), f' = (0, 1)."""

    def regressor(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)[..., None]
        return np.concatenate([np.ones_like(x), x], axis=-1)

    return Model(name="slr", space=space, regressor=regressor, nominal_params=None,
                 regressor_dx=lambda x: np.zeros(np.shape(x) + (2,)) + [0.0, 1.0])


# --- JSON and CSV serialization (shared by the CLI and golden tests) --------

def _csv(header: str, rows) -> str:
    """CSV of the header and tuple rows, each value its ``str`` (a float's shortest repr), by one ``%s`` template."""
    template = ",".join(["%s"] * (header.count(",") + 1))
    return "\n".join([header, *(template % row for row in rows)]) + "\n"


def design_to_json(design: Design, space: DesignSpace) -> dict:
    return {
        "points": [{"x": x, "w": w} for x, w in design.points],
        "space": {"lo": space.lo, "hi": space.hi},
    }


def design_from_json(obj: dict) -> tuple[Design, DesignSpace]:
    try:
        space = DesignSpace(float(obj["space"]["lo"]), float(obj["space"]["hi"]))
        pairs = [(float(p["x"]), float(p["w"])) for p in obj["points"]]
    except KeyError as exc:  # its text is the key's repr
        raise ValidationError(f"malformed design JSON: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed design JSON: {exc}") from exc
    return make_design(pairs, space), space

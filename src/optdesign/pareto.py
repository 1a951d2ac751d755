"""Multi-objective analysis: Pareto fronts, compound-criterion sweeps, and
fixed-support criterion sweeps.

Sampling, evaluation and the front run on arrays; ``sampled_front`` builds
points only for the few samples its prefilter keeps.

Sampling.  Every attempt takes three uniforms (x1, x2, w) from one
``default_rng(seed)`` stream, drawn in fixed blocks of 4096 rows of
``rng.random`` and worked on as columns; x = lo + (hi - lo) u is the
arithmetic of ``Generator.uniform``, so the stream is the one a
draw-at-a-time loop consumes.  An attempt is rejected when w is not in
(0, 1), when |x1 - x2| is within the merge tolerance, or when its det
(``designs._det`` on one regressor call per block) is singular, in that
order.  Accepted rows are canonical as ``make_design`` makes them (clipped,
sorted, weights divided by the total mass); the first n in draw order are
kept, with m11 = w_a f_a1^2 + w_b f_b1^2 and m22 for the prefilter: no m12,
no matrix product.  A block without one admissible design raises OptimizationError.

Front.  The front is computed on (Eff_D, Eff_R), both maximized; that
ordering is equivalent to minimizing the criteria themselves because both are
inverse homogeneous, and it keeps the two axes on the same unit scale.  A
point is dominated by one at least as good on both objectives and better by
more than TIE_TOL = 1e-12 on one of them, so sampled designs with
indistinguishable objectives are all retained.  ``sampled_front`` drops the rows
that the row of largest Eff_R or of largest Eff_D surely dominates, both widened
by MARGIN (filter, then exact: Bentley, Clarkson & Levine 1993, Algorithmica
9:168); the flags of the few left come from one sort by Eff_D and two prefix
maxima of Eff_R (Kung et al. 1975).

The fixed-support sweep moves the mass p between two fixed points and tabulates
all three head criteria plus the correlation; it is the data behind the
"loop": near the D-optimal weight the (phi_D, phi_R) pairs are mutually
non-dominated, so neither criterion can be improved without hurting the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .criteria import (_D, _R, _R2, CriterionSpec, _correlation, _criterion, correlation,
                       criterion_values_raw, phi_d, phi_r)
from .designs import Design, Model, _det, _is_singular, fim, fim_entries
from .errors import OptimizationError, SingularDesignError, ValidationError
from .optimize import optimize_design

TIE_TOL = 1e-12
MARGIN = 1e-9  # relative slack on the prefilter's Eff_D and Eff_R, far above their few ulps of error
_MIN_BLOCK = 4096  # attempts per sampling block


@dataclass(frozen=True)
class FrontPoint:
    design: Design
    eff_d: float
    eff_r: float
    r2: float


def _designs(xa: np.ndarray, xb: np.ndarray, wa: np.ndarray, wb: np.ndarray) -> list[Design]:
    # Sampled rows are canonical already: sorted, normalized and clipped.
    return [Design(points=((a, p), (b, q))) for a, b, p, q in zip(*(c.tolist() for c in (xa, xb, wa, wb)))]


def _masses(w: np.ndarray) -> np.ndarray:
    """Weights (w, 1 - w) divided by their total 0 + w + (1 - w), as make_design does."""
    return np.stack([w, 1.0 - w], 1) / (w + (1.0 - w))[:, None]


def _sample(model: Model, n: int, seed: int) -> tuple[np.ndarray, ...]:
    """Columns x_a < x_b, w_a, w_b, m11, m22 and det of n random admissible designs {x_a: w_a, x_b: w_b}."""
    if n < 1:
        raise ValidationError(f"need n >= 1 samples, got {n}")
    space = model.space
    lo, hi, tol = space.lo, space.hi, space.merge_tol()
    rng = np.random.default_rng(seed)
    blocks: list[tuple[np.ndarray, ...]] = []
    got = 0
    while got < n:
        u = rng.random((_MIN_BLOCK, 3))
        x1, x2, w = lo + (hi - lo) * u[:, 0], lo + (hi - lo) * u[:, 1], u[:, 2]
        rows = (0.0 < w) & (w < 1.0) & (np.abs(x1 - x2) > tol)
        # Clip, then sort as make_design: kept points are more than tol apart, so clipping keeps their order.
        x1, x2, w = np.clip(x1[rows], lo, hi), np.clip(x2[rows], lo, hi), w[rows]
        t, swap, m = w + (1.0 - w), x1 > x2, len(w)
        wa, wb = w / t, (1.0 - w) / t  # the bits of _masses
        xa, xb, wa, wb = np.minimum(x1, x2), np.maximum(x1, x2), np.where(swap, wb, wa), np.where(swap, wa, wb)
        F = np.asarray(model.regressor(np.concatenate([xa, xb])), dtype=float)
        if F.shape != (2 * m, 2):
            raise ValidationError(f"regressor returned shape {F.shape}, expected ({2 * m}, 2)")
        with np.errstate(over="ignore", invalid="ignore"):
            m11, m22 = (wa[:, None] * F[:m] ** 2 + wb[:, None] * F[m:] ** 2).T
            det = _det(F.reshape(2, m, 2).transpose(1, 0, 2), np.stack([wa, wb], 1))
        if not (np.isfinite(m11 + m22).all() and np.isfinite(det).all()):  # fim_entries' checks raise
            m11, _, m22, det = fim_entries(model, np.stack([xa, xb], 1), np.stack([wa, wb], 1))
        ok = ~_is_singular(det)
        if not ok.any():
            raise OptimizationError(
                f"no admissible (non-singular) two-point design in {_MIN_BLOCK} random draws "
                f"on [{lo!r}, {hi!r}]")
        cols = (xa, xb, wa, wb, m11, m22, det)
        if not ok.all():
            cols = tuple(c[ok] for c in cols)
        blocks.append(tuple(c[:n - got] for c in cols))
        got += len(blocks[-1][0])
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def sample_two_point_designs(model: Model, n: int, seed: int) -> list[Design]:
    """n random two-point designs: points uniform on the space, weight uniform in (0,1).

    Samples whose information matrix is singular (coincident points, degenerate
    regressors) are resampled, so every returned design is admissible.
    """
    return _designs(*_sample(model, n, seed)[:4])


def _head_criteria(m11: np.ndarray, m12: np.ndarray, m22: np.ndarray, det: np.ndarray,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(phi_D, phi_R, phi_r2) of non-singular matrices, bit for bit as phi_d,
    phi_r and phi_r2 give them.

    phi_R and phi_r2 come from the kernel; phi_D from the criterion table on
    an object array of Python floats, so that its power is C pow as in phi_d:
    numpy's may differ by an ulp.
    """
    if np.any(_is_singular(det)):
        raise SingularDesignError("correlation is undefined for a singular information matrix")
    return (_criterion(_D, m11, m12, m22, det.astype(object))[0].astype(float),
            criterion_values_raw(_R, m11, m12, m22, det), criterion_values_raw(_R2, m11, m12, m22, det))


def evaluate_front_points(model: Model, designs: Sequence[Design],
                          phi_d_star: float, phi_r_star: float) -> list[FrontPoint]:
    """Efficiencies and squared correlation for each design."""
    m = np.empty((4, len(designs)))
    sizes = np.array([d.support_size for d in designs], dtype=int)
    for k in sorted(set(sizes.tolist())):
        rows = np.flatnonzero(sizes == k)
        pts = np.array([designs[i].points for i in rows.tolist()], dtype=float)
        m[:, rows] = fim_entries(model, pts[:, :, 0], pts[:, :, 1])
    phi_d_, phi_r_, r2 = _head_criteria(*m)
    return [FrontPoint(design=d, eff_d=a, eff_r=b, r2=c) for d, a, b, c in
            zip(designs, (phi_d_star / phi_d_).tolist(), (phi_r_star / phi_r_).tolist(), r2.tolist())]


def _dominated(d: np.ndarray, r: np.ndarray) -> np.ndarray:
    """For each point: is it dominated under (maximize d, maximize r)?

    q dominates p when d_q >= d_p, r_q >= r_p and one of them is better by
    more than ``TIE_TOL``.  Sort by d descending; q dominates p iff
      (a) r_q - r_p > TIE_TOL for some q with d_q >= d_p, or
      (b) r_q >= r_p for some q with d_q - d_p > TIE_TOL.
    A rounded difference is monotone in its first operand, so both sets of q
    are prefixes of the sorted order and each test needs one prefix maximum
    of r.  Points with a NaN coordinate neither dominate nor are dominated.
    """
    d = np.asarray(d, dtype=float)
    r = np.asarray(r, dtype=float)
    dominated = np.zeros(d.shape, dtype=bool)
    order = np.flatnonzero(~(np.isnan(d) | np.isnan(r)))
    order = order[np.argsort(-d[order], kind="stable")]
    ds, rs = d[order], r[order]
    if len(ds) == 0:
        return dominated
    best = np.maximum.accumulate(rs)
    k_a = np.searchsorted(-ds, -ds, side="right")         # #{q: d_q >= d_p} >= 1
    lo, hi = np.zeros_like(k_a), k_a.copy()               # bisect #{q: d_q - d_p > TIE_TOL}
    while np.any(lo < hi):
        mid = (lo + hi) // 2
        beyond = ds[np.minimum(mid, len(ds) - 1)] - ds > TIE_TOL
        lo, hi = np.where((lo < hi) & beyond, mid + 1, lo), np.where(beyond, hi, mid)
    dominated[order] = ((best[k_a - 1] - rs > TIE_TOL)
                        | ((lo > 0) & (best[np.maximum(lo - 1, 0)] >= rs)))
    return dominated


def _survivors(d: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Rows that neither the row of largest r nor that of largest d surely dominates:
    by (a) or (b) of ``_dominated``, with d and r (each within a few ulps) widened by MARGIN."""
    tiny, a = np.finfo(float).tiny, np.array([[np.argmax(r)], [np.argmax(d)]])
    (dlo, dhi), (rlo, rhi) = ((v - (s := MARGIN * np.abs(v) + tiny), v + s) for v in (d, r))
    sure = ((dlo[a] >= dhi) & (rlo[a] - rhi > TIE_TOL)) | ((rlo[a] >= rhi) & (dlo[a] - dhi > TIE_TOL))
    return np.flatnonzero(~sure.any(axis=0))


def sampled_front(model: Model, n: int, seed: int, phi_d_star: float,
                  phi_r_star: float) -> list[FrontPoint]:
    """Pareto front of n sampled two-point designs, sorted by eff_d descending.

    Equal to ``pareto_front(evaluate_front_points(model,
    sample_two_point_designs(model, n, seed), ...))``, run on ``_survivors``'
    rows alone.  Eff_D = phi_D* sqrt(det) and Eff_R = phi_R* det / sqrt(m11 m22),
    m11 and m22 sums that do not cancel, are within a few ulps of the exact
    values, far inside MARGIN, so ``_survivors`` drops only dominated rows.
    Dominance on rounded differences is transitive (monotone in each operand)
    and acyclic, so a row is dominated iff a non-dominated row dominates it.
    """
    *cols, m11, m22, det = _sample(model, n, seed)
    with np.errstate(over="ignore"):
        rows = _survivors(phi_d_star * np.sqrt(det), phi_r_star * det / np.sqrt(m11 * m22))
    return pareto_front(evaluate_front_points(model, _designs(*(c[rows] for c in cols)), phi_d_star, phi_r_star))


def pareto_front(points: Sequence[FrontPoint]) -> list[FrontPoint]:
    """Non-dominated subset under (maximize eff_d, maximize eff_r), sorted by eff_d descending.

    Ties within 1e-12 on both objectives are kept.  Idempotent.
    """
    if len(points) == 0:
        raise ValidationError("pareto_front needs at least one point")
    flags = _dominated(np.array([p.eff_d for p in points]), np.array([p.eff_r for p in points]))
    return sorted((p for p, f in zip(points, flags.tolist()) if not f), key=lambda p: (-p.eff_d, -p.eff_r))


def front_csv(points: Sequence[FrontPoint], x_scale: float = 1.0) -> str:
    """CSV of front points: efficiencies plus the (a, p) shape of each design.

    a is the lower support point divided by x_scale (pass K to get K-units),
    p the mass it carries.
    """
    return _csv("eff_D,eff_R,p,a,r2", ((p.eff_d, p.eff_r, p.design.points[0][1],
                                         p.design.points[0][0] / x_scale, p.r2) for p in points))


def _csv(header: str, rows) -> str:
    """CSV of rows of floats, each written as its repr."""
    return "\n".join([header, *(",".join(map(repr, row)) for row in rows)]) + "\n"


@dataclass(frozen=True)
class CompoundSweepRow:
    lam: float
    design: Design
    value: float
    eff_d: float
    eff_r: float
    corr: float


def compound_sweep(model: Model, lam_grid: Sequence[float], phi_d_star: float,
                   phi_r_star: float) -> list[CompoundSweepRow]:
    """Compound-optimal designs along a grid of mixing weights.

    At lam = 0 this is the D-optimal design, at lam = 1 the R-optimal one; in
    between Eff_D decreases and Eff_R increases monotonically.
    """
    rows = []
    for lam in lam_grid:
        spec = CriterionSpec("COMPOUND", lam=float(lam), phi_d_star=phi_d_star, phi_r_star=phi_r_star)
        res = optimize_design(model, spec)
        m = fim(model, res.design)
        rows.append(CompoundSweepRow(float(lam), res.design, res.criterion_value, phi_d_star / phi_d(m),
                                     phi_r_star / phi_r(m), correlation(m)))
    return rows


def compound_sweep_csv(rows: Sequence[CompoundSweepRow]) -> str:
    return _csv("lambda,value,eff_D,eff_R,corr",
                ((r.lam, r.value, r.eff_d, r.eff_r, r.corr) for r in rows))


@dataclass(frozen=True)
class SweepRow:
    p: float
    phi_d: float
    phi_r: float
    phi_r2: float
    corr: float


def _sweep_columns(model: Model, a_fixed: float, p_grid: Sequence[float]) -> list[list[float]]:
    """The columns p, phi_D, phi_R, phi_r2 and corr of ``criterion_sweep``."""
    mm = model.name == "michaelis_menten" and model.nominal_params is not None
    x_lo = a_fixed * model.nominal_params[1] if mm else a_fixed
    if not model.space.contains(x_lo):
        raise ValidationError(f"fixed point {x_lo} outside the design space")
    x_hi = model.space.hi
    if abs(x_hi - x_lo) <= model.space.merge_tol():
        raise ValidationError("fixed point coincides with the upper end of the space")
    for p in p_grid:
        if not 0.0 < p < 1.0:
            raise ValidationError(f"sweep weights must lie strictly in (0, 1), got {p}")
    ps = [float(p) for p in p_grid]
    xs = np.tile([model.space.clip(x_lo), x_hi], (len(ps), 1))
    m11, m12, m22, det = fim_entries(model, xs, _masses(np.array(ps)))
    return [ps, *(v.tolist() for v in (*_head_criteria(m11, m12, m22, det), _correlation(m11, m12, m22)))]


def criterion_sweep(model: Model, a_fixed: float, p_grid: Sequence[float]) -> list[SweepRow]:
    """Criterion values of the designs {x_lo: p, hi: 1-p} as the mass p varies.

    x_lo is a_fixed, interpreted in K-units for the Michaelis-Menten model
    (matching how its design spaces are specified) and in raw units otherwise.
    The upper point is the top of the design space.  Every row satisfies the
    identity phi_R^2 = phi_D^2 / (1 - phi_r2).
    """
    return [SweepRow(*row) for row in zip(*_sweep_columns(model, a_fixed, p_grid))]


def criterion_sweep_csv(model: Model, a_fixed: float, p_grid: Sequence[float]) -> str:
    """CSV of ``criterion_sweep``'s rows, each value its repr, formatted from the columns."""
    return _csv("p,phi_D,phi_R,phi_r2,corr", zip(*_sweep_columns(model, a_fixed, p_grid)))


def has_mutually_nondominated_rows(rows: Sequence[SweepRow]) -> bool:
    """True when some pair of sweep rows trades off phi_D against phi_R.

    Both criteria are minimized here: rows (i, j) are mutually non-dominated
    when phi_D(i) < phi_D(j) while phi_R(i) > phi_R(j).  Rows with a
    non-finite value are ignored.  After a sort by phi_D, row j has such a
    partner iff the largest phi_R among the rows with a strictly smaller
    phi_D exceeds its own.
    """
    d = np.array([row.phi_d for row in rows], dtype=float)
    r = np.array([row.phi_r for row in rows], dtype=float)
    finite = np.isfinite(d) & np.isfinite(r)
    order = np.argsort(d[finite], kind="stable")
    d, r = d[finite][order], r[finite][order]
    smaller = np.searchsorted(d, d, side="left")  # rows with a strictly smaller phi_D
    best = np.maximum.accumulate(r)
    return bool(np.any((smaller > 0) & (best[np.maximum(smaller - 1, 0)] > r)))

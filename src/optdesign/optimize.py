"""Numeric design optimization and the Michaelis-Menten reference tables.

Two support points suffice for every criterion: for D, R, SA and COMPOUND some
two-point design dominates any design in the Loewner order (de la Garza 1954,
*Ann. Math. Statist.* 25:123; Yang & Stufken 2009, *Ann. Statist.* 37:518), and
r^2, CPB and EM, blind to the scale of M, are least on a chord of the
normalised information disk.  Only D, R, SA and COMPOUND are searched,
grid-plus-refinement: stage 1 weighs every pair of a 33-point coarse grid at
once, and the best pair is polished along the criterion's slope, then
certified by the directional derivative on a fine grid.  The equivalence
theorem compares a certified design with every design, so no second
candidate is polished.
``c_optimal`` takes kind C (and the SA references) from Elfving's theorem, and
``_disk_optimal`` r^2, CPB and EM from the chord, best-found for want of an
equivalence theorem.

A mass splits two points.  For D, SA, EM, r^2, CPB and R (a scale-free cubic's
root) it is exact.  Every other solve is one row solver, a bracketed secant
driving a slope to 0 on many rows at once: the mass of COMPOUND, the points of
the polish and the chord's ends.  By the envelope theorem, at optimal weights
the criterion's derivative in a support point x_j is its slope along
w_j (f' f^T + f f'^T)(x_j): the polish moves the two points in turn, each
evaluation a weight solve warm-started from the current weights whose one kernel
call gives the value and the slopes in both points, and stops once a point moves
no more than ``XTOL_REL`` times the width right after the other's.

Everything is deterministic given the model and criterion; a tie in stage 1
goes to the first support in lexicographic order.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, replace
from typing import Sequence

import numpy as np

from .criteria import (
    CriterionSpec,
    DerivativeReport,
    _sampled_report,
    criterion_value,
    criterion_values_raw,
    derivative_report,
)
from .designs import EPS, Design, Model, _cross, _is_singular, fim, fim_entries, make_design
from .errors import OptimizationError, ValidationError
from .mm import MMParams, mm_d_optimal, mm_model
from .slr import _fmt

MASS_ITERS = 64            # cap on the secant iterations of one row solve
WEIGHT_TOL = 1e-8          # weight tolerance of every mass solve
STAGE1_GRID = 33          # coarse-grid points whose pairs stage 1 weighs
FIRST_MOVE_REL = 1 / 200   # first trial move of the polish, relative to the width
XTOL_REL = 1e-9            # support-point tolerance of the polish, relative to the width
ELFVING_GRID = 400         # grid on which c_optimal and _disk_optimal find their supports


@dataclass(frozen=True)
class OptimizeResult:
    """An optimal design, its criterion value and how it was found.

    ``converged`` is True when the equivalence certificate ``derivative_report`` holds, which only a
    convex kind has; ``label`` names that outcome.  ``iterations`` counts the supports the refinement
    evaluated (each a weight solve, the start included), or for C, R2, CPB and EM the points that
    ``c_optimal``'s or ``_disk_optimal``'s polish evaluated.
    """

    design: Design
    criterion_value: float
    derivative_report: DerivativeReport | None
    converged: bool
    iterations: int

    @property
    def label(self) -> str:
        return "certified" if self.converged else "best-found"


# g(f) of the exact masses g_b / (g_a + g_b) at a and g_a / (g_a + g_b) at b of a closed pair, det M = w_a w_b
# (f_a x f_b)^2, from a point's (f1^2, f1 f2, f2^2); R's is a cubic's root (``_r_mass``), COMPOUND has none, C is
# never searched.  R2, CPB: m12 = 0 where f1 f2 changes sign, else the stationary point; on an axis g is 0.
_SPLIT_WEIGHT = {
    "D": lambda s, o11, o12, o22: np.ones_like(o11),
    "SA": lambda s, o11, o12, o22: np.sqrt(o22 / s.sa_refs[0] + o11 / s.sa_refs[1]),
    "EM": lambda s, o11, o12, o22: o11 + o22,
    "R2": lambda s, o11, o12, o22: np.abs(o12),
    "CPB": lambda s, o11, o12, o22: np.abs(o12),
}


def _r_mass(Oa: np.ndarray, Ob: np.ndarray) -> np.ndarray:
    """R's masses (2, n) on closed pairs (a, b) with outer-product entries Oa and Ob (3, n): with r_i the
    odds of w_i = |f_bi| / (|f_ai| + |f_bi|), which minimize the two variances R multiplies, its odds z solve
    2 z^3 + (r_1^2 + r_2^2)(z^2 - z) = 2 r_1^2 r_2^2, a cubic free of scale, convex for z > 0 and rising for
    z >= 1/2, so Newton from the middle's odds, >= 1 once a and b are swapped, needs no bracket."""
    fa, fb = np.sqrt(Oa[::2].T), np.sqrt(Ob[::2].T)  # |f1|, |f2|
    w = np.divide(fb, fa + fb, out=np.full_like(fb, 0.5), where=fa + fb > 0.0)
    swap = w.sum(axis=1) < 1.0
    w = np.minimum(np.where(swap[:, None], 1.0 - w, w), 1.0 - EPS)
    odds2 = (w / (1.0 - w)) ** 2
    S, P, z = odds2.sum(axis=1), 2.0 * odds2.prod(axis=1), w.sum(axis=1) / (2.0 - w.sum(axis=1))
    for _ in range(MASS_ITERS):
        step = (((2.0 * z + S) * z - S) * z - P) / ((6.0 * z + 2.0 * S) * z - S)
        z = z - step
        if not (step > 4.0 * EPS * z).any():
            break
    return np.stack([np.where(swap, 1.0, z), np.where(swap, z, 1.0)]) / (1.0 + z)


def _outer3(f: np.ndarray) -> np.ndarray:
    """(..., 2) regressor values -> (..., 3) outer-product entries (f1^2, f1 f2, f2^2)."""
    return np.stack([f[..., 0] ** 2, f[..., 0] * f[..., 1], f[..., 1] ** 2], axis=-1)


def _zero_slope(evaluate, lo: np.ndarray, hi: np.ndarray, x0: np.ndarray, x1: np.ndarray, tol: float,
                known: tuple | None = None, open_ends: bool = True) -> tuple:
    """Drive a slope to 0 on many rows at once, each row inside its bracket [lo, hi].

    ``evaluate(rows, x)`` gives the values, the slopes (NaN: singular, next to
    an end, so taken to point inward) and extras or None at the points x of
    those rows.  A bracketed secant (Dekker's zero finder) starts from x0 and
    x1 (``known``: the results at x0).  A failed step bisects, or evaluates
    the end it would bisect toward if that end is not evaluated yet, so an
    optimum at an end comes back exact; ``open_ends`` False marks the ends as
    singular.  A row stops at a zero slope or a bracket at most ``tol`` wide.
    Returns (x, value, extra) at the end with the smaller slope.
    """
    n = len(lo)
    lo, hi, mid = lo.copy(), hi.copy(), 0.5 * (lo + hi)
    # The slope is <= 0 at lo and >= 0 at hi; NaN: that end is not evaluated yet.
    s_lo, s_hi = (np.full(n, np.nan if open_ends else inward) for inward in (-np.inf, np.inf))
    v_lo, v_hi, e_at = np.full(n, np.inf), np.full(n, np.inf), [None, None]  # e_at: extras at lo, hi
    a, sa, b, sb = x0.copy(), np.full(n, np.nan), x1.copy(), np.full(n, np.nan)  # the secant pair

    def probe(rows: np.ndarray, x: np.ndarray, result: tuple, start: bool = False) -> None:
        v, s, extra = result
        s = np.where(np.isnan(s), np.where(x > mid[rows], np.inf, -np.inf), s)
        below, above = s <= 0.0, s >= 0.0
        if start:  # a start beyond the other start's end must not widen the bracket
            below, above = below & (x >= lo[rows]), above & (x <= hi[rows])
        for i, (side, at, s_at, v_at) in enumerate(((below, lo, s_lo, v_lo), (above, hi, s_hi, v_hi))):
            at[rows[side]], s_at[rows[side]], v_at[rows[side]] = x[side], s[side], v[side]
            if extra is not None:
                e_at[i] = np.zeros((n,) + extra.shape[1:]) if e_at[i] is None else e_at[i]
                e_at[i][rows[side]] = extra[side]
        a[rows], sa[rows], b[rows], sb[rows] = b[rows], sb[rows], x, s

    rows = np.arange(n)
    if known is None:  # both starts in one evaluation
        both = evaluate(np.concatenate([rows, rows]), np.concatenate([x0, x1]))
        known, first = ([z if z is None else z[h] for z in both] for h in (slice(n), slice(n, None)))
        probe(rows, x0, known, start=True)
        probe(rows, x1, first, start=True)
    else:
        probe(rows, x0, known, start=True)
        live = rows[hi - lo > tol]
        if len(live):
            probe(live, x1[live], evaluate(live, x1[live]), start=True)
    live = rows[hi - lo > tol]
    for _ in range(MASS_ITERS):
        if not len(live):
            break
        xa, ya, xb, yb, left, right = (z[live] for z in (a, sa, b, sb, lo, hi))
        with np.errstate(divide="ignore", invalid="ignore"):
            x = xb - yb * (xb - xa) / (yb - ya)
        inside = (left <= x) & (x <= right) & np.isfinite(ya)  # ya infinite would freeze x at b
        # Points stay tol/2 inside the bracket and tol/2 from b, toward the other end.
        x = np.where(inside, np.minimum(np.maximum(x, left + 0.5 * tol), right - 0.5 * tol),
                     0.5 * (left + right))
        x = np.where(np.abs(x - xb) < 0.5 * tol, xb + np.copysign(0.5 * tol, left + right - 2.0 * xb), x)
        if open_ends:
            x = np.where(inside | ~np.isnan(s_lo[live]) & ~np.isnan(s_hi[live]), x,
                         np.where(np.isnan(s_lo[live]), left, right))
        probe(live, x, evaluate(live, x))
        live = live[hi[live] - lo[live] > tol]
    take_lo = np.isnan(s_hi) | (np.abs(s_lo) <= np.abs(s_hi))
    extra = None if e_at[0] is None else np.where(take_lo[:, None], e_at[0], e_at[1])
    return np.where(take_lo, lo, hi), np.where(take_lo, v_lo, v_hi), extra


def _best_mass(spec: CriterionSpec, F: np.ndarray, tol: float, W0: np.ndarray | None = None,
               dF: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """Optimal weights (n, 2), values (n,) and, given the x-derivatives dF, slopes (n, 2) in both points of n
    two-point supports with regressor values F (n, 2, 2).

    At masses (w, u), w + u = 1, on the points a and b the matrix is w Oa + u Ob, O the outer products, with
    det w u (f_a x f_b)^2 (Cauchy-Binet); the masses 0 and 1 are one-point designs, singular.  A pair takes its
    ``_SPLIT_WEIGHT`` split, each mass its own quotient, so a minor one survives beside 1, raised where needed
    (and possible) to a mass whose det is a normal float, or R's ``_r_mass``, kept tol/2 inside (0, 1) as a
    secant's bracket keeps it; otherwise ``_zero_slope`` drives the slope along Oa - Ob, where log det has the
    slope (u - w) / (w u), to 0 from the weights W0 (default 1/2 each).  Point j's slope is along
    w_j (f' f^T + f f'^T)(x_j), where log det has the slope 2 (f_j' x f_k) / (f_j x f_k), k the other point:
    each slope of log det is a quotient of cross products, free of the entries' cancellation.
    """
    Oa, Ob = _outer3(F[:, 0]).T, _outer3(F[:, 1]).T  # (3, n): m11, m12, m22
    cross, n = _cross(F[:, 0, 0] * F[:, 1, 1], F[:, 0, 1] * F[:, 1, 0]), len(F)
    with np.errstate(over="ignore"):
        cross2 = cross * cross

    def values(rows, w: np.ndarray, u: np.ndarray, d: tuple | None = None):
        return criterion_values_raw(spec, *(w * Oa[:, rows] + u * Ob[:, rows]), w * u * cross2[rows], d=d)

    V = None  # the secant's values
    if spec.kind == "R":
        W = _r_mass(Oa, Ob)
    elif (split := _SPLIT_WEIGHT.get(spec.kind)) is not None:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # g beyond the float range: NaN masses
            g = np.stack([split(spec, *Ob), split(spec, *Oa)])  # (g_b, g_a); zero or subnormal: EPS^2 the other
            W = np.divide(np.where(g >= np.finfo(float).tiny, g, EPS * EPS * g[::-1]), g.sum(0),
                          out=np.full((2, n), 0.5), where=g.any(0))
            least = 2.0 * np.finfo(float).tiny / cross2  # a minor mass w at which det w u cross2 (u >= 1/2) is normal
            W = np.where(least <= 0.5, np.clip(W, least, 1.0 - least), W)
    else:
        def evaluate(rows: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, None]:
            return (*values(rows, w, u := 1.0 - w, d=(*(Oa[:, rows] - Ob[:, rows]), (u - w) / (w * u))), None)

        w0 = np.full(n, 0.5) if W0 is None else W0[:, 0]
        w, V, _ = _zero_slope(evaluate, np.zeros(n), np.ones(n), w0, np.where(w0 <= 0.5, w0 + 1e-6, w0 - 1e-6),
                              tol, open_ends=False)
        W = np.stack([w, 1.0 - w])
    if V is None:
        W = W.clip(0.5 * tol, 1.0 - 0.5 * tol)
    if dF is None:
        return W.T, values(slice(None), *W) if V is None else V
    f, df = F.transpose(2, 1, 0), dF.transpose(2, 1, 0)  # (coordinate, point, row)
    d = W * np.stack([2.0 * f[0] * df[0], f[0] * df[1] + f[1] * df[0], 2.0 * f[1] * df[1]])
    with np.errstate(divide="ignore", invalid="ignore"):  # cross = 0: singular
        U, S = values(slice(None), *W, d=(*d, 2.0 * (df[0] * f[1, ::-1] - df[1] * f[0, ::-1]) / [cross, -cross]))
    return W.T, U if V is None else V, S.T


def optimize_weights(model: Model, support: Sequence[float], criterion: CriterionSpec) -> np.ndarray:
    """Optimal weights for a fixed support of two points: one mass solve.  A design on more
    points never beats the best two-point one, so larger supports are not weighed."""
    xs = np.asarray(sorted(float(x) for x in support), dtype=float)
    if len(xs) != 2:
        raise ValidationError(f"optimize_weights takes exactly two support points, got {len(xs)}")
    if np.min(np.diff(xs)) <= model.space.merge_tol():
        raise ValidationError("support points must be distinct")
    for x in xs:
        if not model.space.contains(x):
            raise ValidationError(f"support point {x} outside the design space")
    F = np.asarray(model.regressor(xs), dtype=float)
    W, V = _best_mass(criterion, F[None], WEIGHT_TOL)
    if not math.isfinite(V[0]):
        raise OptimizationError("criterion is infinite for every weighting of this support")
    return W[0]


# --- support search -----------------------------------------------------------

def _regress(model: Model, x: np.ndarray) -> list[np.ndarray]:
    """The regressor and its x-derivative at the points x, each shaped x.shape + (2,)."""
    if model.regressor_dx is None:
        raise ValidationError(f"model {model.name!r} has no regressor_dx; the optimizer needs it")
    return [np.asarray(f(x), dtype=float).reshape(x.shape + (2,))
            for f in (model.regressor, model.regressor_dx)]


def _finite_grid(model: Model, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The points of the n-point grid of the space where the regressor f is finite, and f there (m, 2)."""
    grid = model.space.grid(n)
    F = np.asarray(model.regressor(grid), dtype=float)
    finite = np.all(np.isfinite(F), axis=1)
    return grid[finite], F[finite]


def _fim_grid(model: Model, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``_finite_grid``, checked before any kernel runs: where a one-point information f f^T overflows
    a float, ``fim_entries`` raises its error on the first such point."""
    grid, F = _finite_grid(model, n)
    with np.errstate(over="ignore"):
        finite = np.isfinite(F * F).all(axis=1)
    if not finite.all():
        fim_entries(model, grid[~finite][:1, None], np.ones((1, 1)))
    return grid, F


def _refine(model: Model, spec: CriterionSpec, x: np.ndarray) -> OptimizeResult:
    """Polish of the sorted two-point support x by the slope in each point, then ``_result``.

    The points take turns: ``_zero_slope`` drives x_j's slope, which the support's one
    ``_best_mass`` call gives with its value and the other point's slope, to 0 with x_j kept
    between its neighbour and the end of the space, from a first trial move of ``FIRST_MOVE_REL``
    times the width, and the support takes the result if it lowers the criterion.  A trial move
    that clips to x_j (a zero slope, or an end of the space with the slope pointing out) settles
    the point without a solve.  The polish stops once a point moves no more than ``XTOL_REL``
    times the width right after the other's polish: both then sit at a zero slope.  The result's
    iterations count the supports evaluated.
    """
    space = model.space
    xtol, gap, step = XTOL_REL * space.width, space.merge_tol(), FIRST_MOVE_REL * space.width
    X = np.array(x, dtype=float)[None]  # one row of the batched solvers

    def solve(F: np.ndarray, dF: np.ndarray, W0: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        # Values (n,) and the extra _zero_slope carries, weights and slopes (n, 4); weights resolved to
        # WEIGHT_TOL leave a slope uncertain by about WEIGHT_TOL V / width.
        W, V, S = _best_mass(spec, F, WEIGHT_TOL, W0, dF)
        return V, np.hstack([W, np.where(np.abs(S) * space.width <= WEIGHT_TOL * np.abs(V)[:, None], 0.0, S)])

    def evaluate(rows: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        nonlocal n_evals
        n_evals += len(rows)
        Fr, dFr = F[rows], dF[rows]
        Fr[:, j], dFr[:, j] = _regress(model, x)
        Vr, WSr = solve(Fr, dFr, WS[rows, :2])
        return Vr, WSr[:, 2 + j], WSr

    F, dF = _regress(model, X)
    V, WS = solve(F, dF)
    n_evals, j, settled = 1, 0, 0  # settled: points polished in a row since, and with, the last move beyond xtol
    while settled < 2 and math.isfinite(V[0]):
        x0, s0 = X[:, j], WS[:, 2 + j]
        lo, hi = (X[:, 0] + gap, np.array([space.hi])) if j else (np.array([space.lo]), X[:, 1] - gap)
        x1, moved = np.clip(x0 - np.sign(s0) * step, lo, hi), 0.0
        if x1[0] != x0[0]:
            x, v, WSx = _zero_slope(evaluate, lo, hi, x0, x1, xtol, known=(V, s0, WS))
            if v[0] < V[0]:
                moved = abs(x[0] - x0[0])
                X[:, j], WS, V = x, WSx, v
                F[:, j], dF[:, j] = _regress(model, x)
        settled, j = 1 if moved > xtol else settled + 1, 1 - j
    return _result(model, spec, X[0], WS[0, :2], n_evals)


def _stage1(model: Model, spec: CriterionSpec) -> np.ndarray:
    """The best pair of the ``STAGE1_GRID``-point grid, each weighed at ``WEIGHT_TOL``; the first
    in lexicographic order wins a tie.  Raises if every pair is singular."""
    grid, F = _fim_grid(model, STAGE1_GRID)
    idx = np.stack(np.triu_indices(len(grid), 1), axis=1)
    _, vals = _best_mass(spec, F[idx], WEIGHT_TOL)
    if not np.isfinite(vals).any():
        raise OptimizationError("no admissible (non-singular) design found on the grid")
    return grid[idx[np.argmin(vals)]]


def optimize_design(model: Model, spec: CriterionSpec) -> OptimizeResult:
    """Best design on ``model`` under the criterion ``spec``: a design on at most two points, as no
    design on more points does better.

    Convex criteria return with an equivalence certificate (directional
    derivative >= -1e-6, scaled, on the ``criteria.CERTIFICATE_GRID``-point
    grid).  Kind C is ``c_optimal``'s design, on one or two points; R2, CPB and
    EM are ``_disk_optimal``'s, labeled best-found; the others are searched.
    """
    if spec.kind == "C":
        return c_optimal(model, spec.c)
    if not spec.is_convex:
        return _disk_optimal(model, spec)

    return _refine(model, spec, _stage1(model, spec))


def _result(model: Model, spec: CriterionSpec, xs: Sequence[float], ws: Sequence[float],
            iterations: int) -> OptimizeResult:
    """The design on xs with weights ws, its value and, for a convex kind, its certificate; raises if singular."""
    design = make_design(list(zip(xs, ws)), model.space)
    m = fim(model, design)
    value = criterion_value(m, spec)
    if not math.isfinite(value):
        raise OptimizationError("no admissible (non-singular) design found on the grid" if m.is_singular else
                                f"criterion {spec.kind} overflows a float on the design {design.points}")
    if spec.is_convex:
        report = derivative_report(model, design, spec)
        return OptimizeResult(design, value, report, report.passes(value), iterations)
    return OptimizeResult(design, value, None, False, iterations)


def mm_r_optimal(params: MMParams) -> OptimizeResult:
    """The R-optimal design on MM without stage 1: a two-point design with upper point bK dominates any
    design in the Loewner order (Yang & Stufken 2009, *Ann. Statist.* 37:518) and R is Loewner-antitone, so
    ``_refine`` polishes bK and the lower point (sqrt 2 - 1) b K / ((2 - sqrt 2) b + 1) (or the floor) of the
    c-optimal designs for e_1 and e_2, whose variances R multiplies.  A failed certificate runs the search."""
    model, spec, space, b = mm_model(params), CriterionSpec("R"), params.space(), params.b
    x0 = max((math.sqrt(2.0) - 1.0) * b / ((2.0 - math.sqrt(2.0)) * b + 1.0) * params.K, space.lo)
    return r if (r := _refine(model, spec, np.array([x0, space.hi]))).converged else optimize_design(model, spec)


@dataclass(frozen=True)
class COptimalResult(OptimizeResult):
    """A c-optimal design with Elfving's dual: u^T c = 1, |u^T f| <= gamma on the space."""

    u: tuple[float, float]
    gamma: float


def _grid_dual(a: np.ndarray, b: np.ndarray) -> tuple[float, tuple[int, float], tuple[int, float]]:
    """min over t of max_i |a_i + t b_i|, by cutting planes: the max at t adds the
    line s (a_i + t b_i) of its row, s its sign, and t moves to where the highest
    falling and rising lines cross.  Returns t and those lines (i, s), falling
    first; a flat line (b_i = 0) at the max is both."""
    def top(t: float) -> tuple[int, float, float]:
        v = a + t * b
        i = int(np.argmax(np.abs(v)))
        return i, (1.0 if v[i] >= 0.0 else -1.0), abs(float(v[i]))

    T = 4.0 * np.max(np.abs(a)) / np.max(np.abs(b))  # at -T and T the max rises away from 0
    (i, s, _), (j, r, _) = top(-T), top(T)
    for _ in range(len(a)):
        t = (r * a[j] - s * a[i]) / (s * b[i] - r * b[j])
        k, q, v = top(t)
        if (k, q) in ((i, s), (j, r)) or v <= r * (a[j] + t * b[j]) * (1.0 + 4.0 * EPS):
            break
        g = q * b[k]
        i, s = (k, q) if g <= 0.0 else (i, s)
        j, r = (k, q) if g >= 0.0 else (j, r)
        if g == 0.0:
            break
    return float(t), (i, s), (j, r)


def _root(model: Model, u: np.ndarray, bracket: np.ndarray) -> np.ndarray:
    """The root of u^T f, to EPS times the width, between the points (lo, hi) where it changes sign."""
    sign = 1.0 if np.diff(_regress(model, bracket)[0] @ u)[0] >= 0.0 else -1.0
    return _zero_slope(lambda rows, x: (0.0 * x, sign * (_regress(model, x)[0] @ u), None),
                       bracket[:1], bracket[1:], bracket[:1], bracket[1:], EPS * model.space.width)[0]


def c_optimal(model: Model, c: Sequence[float]) -> COptimalResult:
    """Design minimizing c^T M^- c, by Elfving's theorem (Elfving 1952; Pukelsheim 2006, ch. 2): the least
    value is 1/gamma^2, gamma the least over u with u^T c = 1 of max_x |u^T f(x)|, convex in t along
    u = c/|c|^2 + t c_perp.  ``_grid_dual``'s two active lines name the support.  Points apart are polished to
    local maxima of s u^T f and t moved to where their lines cross, until they stand still; the weights solve
    gamma c = sum_k w_k s_k f(x_k).  Neighbours of one sign straddle the one point where f is parallel to c,
    the optimum only if no non-singular design ties it.  The report is c^T M^- c (1 - (u^T f(x) / gamma)^2),
    u's certificate.  c, checked by ``CriterionSpec``, is divided by the power of two 2^e of its largest entry,
    exactly, and u and gamma are scaled back by 2^-e.
    """
    c1, c2 = CriterionSpec("C", c=tuple(map(float, c))).c
    e = math.frexp(max(abs(c1), abs(c2)))[1]
    c1, c2 = math.ldexp(c1, -e), math.ldexp(c2, -e)
    space, along, across = model.space, np.array([c1, c2]) / (c1 * c1 + c2 * c2), np.array([-c2, c1])

    grid, F = _finite_grid(model, ELFVING_GRID)
    a, b = F @ along, F @ across
    if not np.any(a):
        raise OptimizationError("c is inestimable under every candidate design")
    t, *lines = _grid_dual(a, b) if np.any(b) else (0.0, *[(int(np.argmax(np.abs(a))), 1.0)] * 2)  # f || c
    (i, s), (j, r) = sorted(lines)
    n_evals = 0
    if s == r and j - i <= 1:  # one point: the root of c_perp^T f
        x = _root(model, across, grid[[i, j]])
        Fx, dFx = _regress(model, x)
        if space.lo < x[0] < space.hi and dFx[0] @ across != 0.0:
            t = -float(dFx[0] @ along) / float(dFx[0] @ across)  # u normal to the curve at x
        gamma, w = abs(float(Fx[0] @ along)), np.ones(1)
    else:
        X, S, tol = grid[[i, j]], np.array([s, r]), XTOL_REL * space.width
        lo, hi = grid[np.clip([[i - 1, j - 1], [i + 1, j + 1]], 0, len(grid) - 1)]

        def evaluate(rows: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, None]:
            nonlocal n_evals
            n_evals += len(rows)
            (Fr, dFr), u = _regress(model, x), along + t * across
            # A slope within the rounding of its terms is 0: a flat stretch of the boundary.
            rounding = 8.0 * EPS * (np.abs(dFr) @ (np.abs(along) + abs(t) * np.abs(across)))
            slope = np.where(np.abs(dFr @ u) <= rounding, 0.0, dFr @ u)
            return -S[rows] * (Fr @ u), -S[rows] * slope, None

        for _ in range(MASS_ITERS):
            known = evaluate(np.arange(2), X)
            x1 = np.clip(X - np.sign(known[1]) * tol, lo, hi)
            x = _zero_slope(evaluate, lo, hi, X, x1, tol, known=known)[0]
            Fx = _regress(model, x)[0]
            A, B = S * (Fx @ along), S * (Fx @ across)
            t, moved, X = float((A[1] - A[0]) / (B[0] - B[1])), np.max(np.abs(x - X)), x
            # t's error is second order in the points', so theirs squares each round.
            if moved <= math.sqrt(tol * space.width):
                break
        # gamma c = sum_k w_k s_k f(x_k) with the w_k summing to 1: w / gamma by Cramer's rule, free of the
        # cancellation in det M of a narrow support.  f(x_k) parallel to rounding: f has rank one, c no estimate.
        (g11, g12), (g21, g22) = S[:, None] * Fx
        if (det := _cross(g11 * g22, g12 * g21)) == 0.0:
            raise OptimizationError("c is inestimable under every candidate design")
        w = np.clip(np.array([c1 * g22 - c2 * g21, g11 * c2 - g12 * c1]) / det, 0.0, None)
        gamma, w = 1.0 / float(np.sum(w)), w / np.sum(w)
    if not gamma > 0.0:
        raise OptimizationError("c is inestimable under every candidate design")
    with np.errstate(over="ignore"):  # gamma overflows only where 1/gamma^2 underflows
        gamma, u = float(np.ldexp(gamma, -e)), np.ldexp(along + t * across, -e)
    try:
        value = gamma**-2
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise OptimizationError(f"the c-optimal value 1/gamma^2 {'overflows' if value else 'underflows'} a float "
                                f"(gamma = {gamma:.3g})")
    design = make_design(list(zip(x.tolist(), w.tolist())), space)
    report = _sampled_report(model, design, lambda F, _: value * (1.0 - ((F @ u) / gamma) ** 2) + 0.0)
    return COptimalResult(design, value, report, report.passes(value), n_evals, (float(u[0]), float(u[1])), gamma)


def _disk_optimal(model: Model, spec: CriterionSpec) -> OptimizeResult:
    """The R2-, CPB- or EM-optimal design, without a search.  Up to scale, designs fill the convex hull of the
    circle points f f^T / |f|^2 (Pukelsheim 2006, ch. 2).  On the grid points where |f|^4, a chord's det scale,
    is a normal float, the unwrapped angle phi of f, taken from the first such f (exact at any column scale),
    sweeps [phi_min, phi_max], whose ends span the largest gap: each is polished from its grid cell, in a bracket
    reaching the other end.  Under a quarter turn (f(x_a)^T f keeps its sign on the grid, x_a phi_min's end)
    their chord faces the diameter m12 = 0 and the centre M ~ I; otherwise EM, and R2 and CPB if the ends' f1 f2
    share a sign, take x_a and the root of f(x_a)^T f(x).  ``_SPLIT_WEIGHT`` weighs the chord (EM: at its
    midpoint), unclipped; an end at f -> 0 stops XTOL_REL widths off."""
    (grid, F), n_evals = _fim_grid(model, ELFVING_GRID), 0
    with np.errstate(over="ignore"):  # an |f|^4 beyond the float range is no det scale to lose
        idx = np.flatnonzero(~_is_singular(np.sum(F * F, axis=1) ** 2))
    if not len(idx):
        raise OptimizationError("no admissible (non-singular) design found on the grid")
    phi = np.unwrap(np.arctan2(F[idx] @ [-F[idx[0], 1], F[idx[0], 0]], F[idx] @ F[idx[0]]))
    ends = idx[[np.argmin(phi), np.argmax(phi)]]

    def evaluate(rows: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, None]:
        # phi's rate (row 0 lowers phi_min); NaN, pointing inward, where |f|^4 is not a normal float, as at f = 0.
        nonlocal n_evals
        n_evals += len(rows)
        Fx, dFx = _regress(model, x)
        rate = (1 - 2 * rows) * (Fx[:, 0] * dFx[:, 1] - Fx[:, 1] * dFx[:, 0])
        with np.errstate(over="ignore"):
            return 0.0 * x, np.where(_is_singular(np.sum(Fx * Fx, axis=1) ** 2), np.nan, rate), None

    lo, hi, far = grid[np.maximum(ends - 1, 0)], grid[np.minimum(ends + 1, len(grid) - 1)], grid[ends[::-1]]
    x = _zero_slope(evaluate, np.minimum(lo, far), np.maximum(hi, far), lo, hi, XTOL_REL * model.space.width)[0]
    turn = np.flatnonzero(np.diff(F[idx] @ (f := _regress(model, x)[0])[0] > 0.0))  # a quarter turn off f(x_a)
    if len(turn) and (np.prod(f) >= 0.0 or spec.kind == "EM"):
        x = np.array([x[0], _root(model, f[0], grid[idx[turn[0] + np.arange(2)]])[0]])
    x = np.sort(x)
    return _result(model, spec, x, _best_mass(spec, _regress(model, x)[0][None], 0.0)[0][0], n_evals)


def sa_references(model: Model) -> tuple[float, float]:
    """Optimal c-criterion values for c = (1,0) and c = (0,1), feeding the SA criterion."""
    return c_optimal(model, (1.0, 0.0)).criterion_value, c_optimal(model, (0.0, 1.0)).criterion_value


# --- Michaelis-Menten reference tables ---------------------------------------

MM_CRITERIA = ("D", "SA", "R", "EM", "R2")


@dataclass(frozen=True)
class MMDesignRow:
    """One (eps, criterion) cell of the design table: support {a*K, b*K}, mass p at a*K."""

    eps: float
    criterion: str
    a: float
    p: float
    design: Design | None  # None: the degenerate limit row a=0, p=1


@dataclass(frozen=True)
class MMEfficiencyRow:
    eps: float
    criterion: str
    eff_d: float | None
    eff_sa: float | None
    eff_r: float | None
    eff_em: float | None
    eff_r2: float | None
    r2: float | None


@dataclass(frozen=True)
class MMTables:
    designs: tuple[MMDesignRow, ...]
    efficiencies: tuple[MMEfficiencyRow, ...]


def mm_tables(params: MMParams, eps_list: Sequence[float], compat: bool = True) -> MMTables:
    """Optimal designs and cross-efficiencies per lower design-space extreme.

    With ``compat=True`` (default) the criteria without an attained optimum on
    a space containing zero (condition number and squared correlation, whose
    infima sit at the singular boundary) are reported as the degenerate limit
    rows a=0, p=1; their reference values are then unavailable and dependent
    efficiency cells are left empty.  With ``compat=False`` the optimizer's
    best-found non-singular design is reported instead.
    """
    design_rows, eff_rows = [], []

    for eps in eps_list:
        p_eps = replace(params, eps=float(eps))
        model = mm_model(p_eps)
        refs = sa_references(model)

        evaluators = {k: CriterionSpec(k, sa_refs=refs if k == "SA" else None) for k in MM_CRITERIA}
        designs: dict[str, Design | None] = {}
        for kind in MM_CRITERIA:
            if kind == "D":
                designs[kind] = mm_d_optimal(p_eps)
            elif kind in ("EM", "R2") and compat and p_eps.space().lo == 0.0:
                designs[kind] = None
            else:
                designs[kind] = optimize_design(model, evaluators[kind]).design

        # One value table: vals[k][j] is criterion j at kind k's design, one fim per design; its diagonal the stars.
        ms = {k: fim(model, d) for k, d in designs.items() if d is not None}
        vals = {k: {j: criterion_value(m, evaluators[j]) for j in MM_CRITERIA} for k, m in ms.items()}
        for kind in MM_CRITERIA:
            d = designs[kind]
            if d is None:
                design_rows.append(MMDesignRow(float(eps), kind, 0.0, 1.0, None))
                effs, r2 = [1.0 if k == kind else None for k in MM_CRITERIA], None
            else:
                (x_lo, w_lo), row = d.points[0], vals[kind]
                design_rows.append(MMDesignRow(float(eps), kind, x_lo / p_eps.K, w_lo, d))
                # MMEfficiencyRow's eff_* fields follow MM_CRITERIA's order.
                effs = [vals[k][k] / row[k] if k in vals and 0.0 < row[k] < math.inf
                        else None for k in MM_CRITERIA]
                r2 = row["R2"] if math.isfinite(row["R2"]) else None
            eff_rows.append(MMEfficiencyRow(float(eps), kind, *effs, r2))

    return MMTables(designs=tuple(design_rows), efficiencies=tuple(eff_rows))


def mm_designs_csv(tables: MMTables) -> str:
    return "\n".join(["eps,criterion,a,p", *(f"{r.eps:g},{r.criterion},{_fmt(r.a, 2)},{_fmt(r.p, 2)}"
                                             for r in tables.designs)]) + "\n"


def mm_efficiencies_csv(tables: MMTables) -> str:
    return "\n".join(["eps,criterion,Eff_D,Eff_SA,Eff_R,Eff_EM,Eff_r2,r2", *(
        f"{r.eps:g},{r.criterion}," + ",".join(_fmt(v, 2) for v in astuple(r)[2:])
        for r in tables.efficiencies)]) + "\n"

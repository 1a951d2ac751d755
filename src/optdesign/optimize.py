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
candidate is polished, and ``_criterion_start``'s start for each kind stands in
for stage 1 unless its certificate fails: each optimum, of the CLI's
``optimal`` and of every ``mm_tables`` row, is one ``optimize_design`` call.
``c_optimal`` takes kind C (and the SA references, both c in one pass) from
Elfving's theorem, and ``_disk_optimal`` r^2, CPB and EM from the chord,
best-found for want of an equivalence theorem.

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
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .criteria import (
    EQUIVALENCE_TOL,
    CriterionSpec,
    DerivativeReport,
    _c_frame,
    _dual_report,
    _grid_dual,
    criterion_value,
    criterion_values_raw,
    derivative_report,
    phi_d,
    phi_r,
)
from .designs import EPS, Design, Model, _cross, _csv, _is_singular, _regressor, fim, fim_entries, make_design
from .errors import OptimizationError, ValidationError
from .mm import MMParams, mm_d_optimal, mm_model, mm_r_start
from .slr import SlrInterval, _fmt, d_optimal_slr, r_optimal_slr

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
    evaluated (each a weight solve, the start included) from its start, the one given to ``optimize_design``
    or, without one or after a failed certificate, stage 1's best pair; for C, R2, CPB and EM it counts the
    points that ``c_optimal``'s or ``_disk_optimal``'s polish evaluated.
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


def _r_mass(O: np.ndarray) -> np.ndarray:
    """R's masses (2, n) on closed pairs (a, b) with outer-product entries O (3, 2, n): with r_i the odds of
    w_i = |f_bi| / (|f_ai| + |f_bi|), which minimize the two variances R multiplies, its odds z solve
    2 z^3 + (r_1^2 + r_2^2)(z^2 - z) = 2 r_1^2 r_2^2, a cubic free of scale, convex for z > 0 and rising for
    z >= 1/2, so Newton from the middle's odds, >= 1 once a and b are swapped, needs no bracket.  A row stops
    once its own step is below rounding, so its mass does not depend on the rows solved beside it."""
    f = np.sqrt(O[::2].T)  # (n, point, |f1| and |f2|)
    w = np.divide(f[:, 1], f[:, 0] + f[:, 1], out=np.full_like(f[:, 1], 0.5), where=f[:, 0] + f[:, 1] > 0.0)
    swap = w.sum(axis=1) < 1.0
    w = np.minimum(np.where(swap[:, None], 1.0 - w, w), 1.0 - EPS)
    odds2, wsum = (w / (1.0 - w)) ** 2, w.sum(axis=1)
    S, P, z = odds2.sum(axis=1), 2.0 * odds2.prod(axis=1), wsum / (2.0 - wsum)
    rows = np.arange(len(z))  # the rows still moving: each stops at its own first step within rounding
    for _ in range(MASS_ITERS):
        zr, Sr, Pr = z[rows], S[rows], P[rows]
        z[rows] = zr = zr - (step := (((2.0 * zr + Sr) * zr - Sr) * zr - Pr) / ((6.0 * zr + 2.0 * Sr) * zr - Sr))
        if not len(rows := rows[step > 4.0 * EPS * zr]):
            break
    W = np.array([z, np.ones_like(z)])
    return np.where(swap, W[::-1], W) / (1.0 + z)


def _outer3(f: np.ndarray) -> np.ndarray:
    """(..., 2) regressor values -> (..., 3) outer-product entries (f1^2, f1 f2, f2^2)."""
    return np.concatenate([f[..., :1] ** 2, f[..., :1] * f[..., 1:], f[..., 1:] ** 2], axis=-1)


def _zero_slope(evaluate, lo: np.ndarray, hi: np.ndarray, x0: np.ndarray, x1: np.ndarray, tol: float,
                known: tuple | None = None, open_ends: bool = True) -> tuple:
    """Drive a slope to 0 on many rows at once, each row inside its bracket [lo, hi].

    ``evaluate(rows, x)`` gives the values, the slopes (NaN: singular, next to
    an end, so taken to point inward) and extras (n, k) or None at the points x of
    those rows.  A bracketed secant (Dekker's zero finder) starts from x0 and
    x1 (``known``: the results at x0).  A failed step bisects, or evaluates
    the end it would bisect toward if that end is not evaluated yet, so an
    optimum at an end comes back exact; ``open_ends`` False marks the ends as
    singular.  A row stops at a zero slope or a bracket at most ``tol`` wide.
    Returns (x, value, extra) at the end with the smaller slope.
    """
    n = len(lo)
    lo, hi, mid = lo.copy(), hi.copy(), 0.5 * (lo + hi)
    # The slope is <= 0 at lo and >= 0 at hi; NaN: that end is not evaluated yet.  The secant pair is (a, b).
    (s_lo, s_hi, sa, sb), (v_lo, v_hi), e_at = np.full((4, n), np.nan), np.full((2, n), np.inf), [None, None]
    a, b = x0.copy(), x1.copy()
    if not open_ends:
        s_lo[:], s_hi[:] = -np.inf, np.inf

    def probe(rows: np.ndarray, x: np.ndarray, result: tuple, start: bool = False) -> None:
        v, s, extra = result
        if np.count_nonzero(nan := np.isnan(s)):
            s = np.where(nan, np.where(x > mid[rows], np.inf, -np.inf), s)
        below, above = s <= 0.0, s >= 0.0
        if start:  # a start beyond the other start's end must not widen the bracket
            below, above = below & (x >= lo[rows]), above & (x <= hi[rows])
        if extra is not None and e_at[0] is None:
            e_at[:] = (np.zeros((n,) + extra.shape[1:]) for _ in e_at)
        for i, (side, at, s_at, v_at) in enumerate(((below, lo, s_lo, v_lo), (above, hi, s_hi, v_hi))):
            if count := np.count_nonzero(side):
                side = slice(None) if count == len(rows) else side  # every row: views, not copies
                r = rows[side]
                at[r], s_at[r], v_at[r] = x[side], s[side], v[side]
                if extra is not None:
                    e_at[i][r] = extra[side]
        a[rows], sa[rows], b[rows], sb[rows] = b[rows], sb[rows], x, s

    rows, first = np.arange(n), None
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # the secant line's, once per solve
        if known is None:  # both starts in one evaluation
            both, live = evaluate(np.concatenate([rows, rows]), np.concatenate([x0, x1])), rows
            known, first = ([z if z is None else z[h] for z in both] for h in (slice(n), slice(n, None)))
        probe(rows, x0, known, start=True)
        if first is None and len(live := rows[hi - lo > tol]):
            first = evaluate(live, x1[live])
        if first is not None:
            probe(live, x1[live], first, start=True)
        live = rows[hi - lo > tol]
        for _ in range(MASS_ITERS):
            if not len(live):
                break
            xa, ya, xb, yb, left, right = a[live], sa[live], b[live], sb[live], lo[live], hi[live]
            x = xb - yb * (xb - xa) / (yb - ya)
            inside = (left <= x) & (x <= right) & np.isfinite(ya)  # ya infinite would freeze x at b
            # Points stay tol/2 inside the bracket and tol/2 from b, toward the other end; a step outside bisects.
            x = x.clip(left + 0.5 * tol, right - 0.5 * tol)
            if outside := np.count_nonzero(inside) < len(live):
                x = np.where(inside, x, 0.5 * (left + right))
            if np.count_nonzero(near := np.abs(x - xb) < 0.5 * tol):
                x = np.where(near, xb + np.copysign(0.5 * tol, left + right - 2.0 * xb), x)
            if open_ends and outside:  # or evaluates the end it bisects toward
                nan_lo = np.isnan(s_lo[live])
                if np.count_nonzero(to_end := ~inside & (nan_lo | np.isnan(s_hi[live]))):
                    x = np.where(to_end, np.where(nan_lo, left, right), x)
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
    O = _outer3(F).transpose(2, 1, 0)  # (3, 2, n): m11, m12, m22 of a and of b
    (Oa, Ob), n = O.transpose(1, 0, 2), len(F)
    cross = _cross(F[:, 0, 0] * F[:, 1, 1], F[:, 0, 1] * F[:, 1, 0])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # one float-range context per solve
        cross2 = cross * cross

        def values(rows, w: np.ndarray, u: np.ndarray, d: tuple | None = None):
            return criterion_values_raw(spec, *(w * Oa[:, rows] + u * Ob[:, rows]), w * u * cross2[rows], d=d)

        V = None  # the secant's values
        if spec.kind == "R":
            W = _r_mass(O)
        elif (split := _SPLIT_WEIGHT.get(spec.kind)) is not None:
            g, tiny = split(spec, *O[:, ::-1]), np.finfo(float).tiny  # (g_b, g_a); beyond the float range: NaN masses
            top = g if np.count_nonzero(normal := g >= tiny) == g.size else np.where(normal, g, EPS * EPS * g[::-1])
            W = np.divide(top, g.sum(0), out=np.full((2, n), 0.5), where=g.any(0))  # zero or subnormal: EPS^2 the other
            least = 2.0 * tiny / cross2  # a minor mass w at which det w u cross2 (u >= 1/2) is normal
            clipped = W.clip(least, 1.0 - least)
            W = clipped if np.count_nonzero(fits := least <= 0.5) == n else np.where(fits, clipped, W)
        else:
            dO = Oa - Ob

            def evaluate(rows: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, None]:
                return (*values(rows, w, u := 1.0 - w, d=(*dO[:, rows], (u - w) / (w * u))), None)

            w0 = np.full(n, 0.5) if W0 is None else W0[:, 0]
            w, V, _ = _zero_slope(evaluate, np.zeros(n), np.ones(n), w0, np.where(w0 <= 0.5, w0 + 1e-6, w0 - 1e-6),
                                  tol, open_ends=False)
            W = np.array([w, 1.0 - w])
        if V is None:
            W = W.clip(0.5 * tol, 1.0 - 0.5 * tol)
        if dF is None:
            return W.T, values(slice(None), *W) if V is None else V
        f, df = F.transpose(2, 1, 0), dF.transpose(2, 1, 0)  # (coordinate, point, row)
        d = W * np.array([2.0 * f[0] * df[0], f[0] * df[1] + f[1] * df[0], 2.0 * f[1] * df[1]])
        dlogdet = 2.0 * (df[0] * f[1, ::-1] - df[1] * f[0, ::-1]) / np.array([cross, -cross])  # cross = 0: singular
        U, S = values(slice(None), *W, d=(*d, dlogdet))
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
    W, V = _best_mass(criterion, _regressor(model, xs)[None], WEIGHT_TOL)
    if not math.isfinite(V[0]):
        raise OptimizationError("criterion is infinite for every weighting of this support")
    return W[0]


# --- support search -----------------------------------------------------------

def _regress(model: Model, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The regressor and its x-derivative at the points x, each shaped x.shape + (2,)."""
    return _regressor(model, x), _regressor(model, x, True)


def _finite_grid(model: Model, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The points of the n-point grid of the space where the regressor f is finite, and f there (m, 2)."""
    grid = model.space.grid(n)
    F = _regressor(model, grid)
    finite = np.isfinite(F).all(axis=1)
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


def _refine(model: Model, spec: CriterionSpec, x: np.ndarray) -> OptimizeResult | None:
    """Polish of the sorted two-point support x by the slope in each point, then ``_result``; None if the
    criterion is not finite at x.

    The points take turns: ``_zero_slope`` drives x_j's slope, which the support's one
    ``_best_mass`` call gives with its value and the other point's slope, to 0 with x_j kept
    between its neighbour and the end of the space, from a first trial move of ``FIRST_MOVE_REL``
    times the width, and the support takes the result, with the regressor values its evaluation
    carried, if it lowers the criterion.  A trial move that clips to x_j (a zero slope, or an end
    of the space with the slope pointing out) settles the point without a solve.  The polish stops
    once a point moves no more than ``XTOL_REL`` times the width right after the other's polish:
    both then sit at a zero slope.  The result's iterations count the supports evaluated.
    """
    space = model.space
    xtol, gap, step = XTOL_REL * space.width, space.merge_tol(), FIRST_MOVE_REL * space.width
    X = np.array(x, dtype=float)[None]  # one row of the batched solvers

    def solve(F: np.ndarray, dF: np.ndarray, W0: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        # Values (n,), weights and slopes (n, 4); weights resolved to WEIGHT_TOL leave a slope uncertain by
        # about WEIGHT_TOL V / width.
        W, V, S = _best_mass(spec, F, WEIGHT_TOL, W0, dF)
        S[np.abs(S) * space.width <= WEIGHT_TOL * np.abs(V)[:, None]] = 0.0
        return V, np.concatenate((W, S), axis=1)

    def evaluate(rows: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # The extra _zero_slope carries: weights, slopes and x_j's regressor and its derivative (n, 8).
        nonlocal n_evals
        n_evals += len(rows)
        Fr, dFr = F[rows], dF[rows]
        Fr[:, j], dFr[:, j] = f = _regress(model, x)
        Vr, WSr = solve(Fr, dFr, WS[rows, :2])
        return Vr, WSr[:, 2 + j], np.concatenate((WSr, *f), axis=1)

    F, dF = _regress(model, X)
    V, WS = solve(F, dF)
    if not math.isfinite(V[0]):
        return None
    n_evals, j, settled = 1, 0, 0  # settled: points polished in a row since, and with, the last move beyond xtol
    while settled < 2:
        x0, s0 = X[:, j], WS[:, 2 + j]
        lo, hi = (X[:, 0] + gap, np.array([space.hi])) if j else (np.array([space.lo]), X[:, 1] - gap)
        x1, moved = (x0 - np.sign(s0) * step).clip(lo, hi), 0.0
        if x1[0] != x0[0]:
            x, v, E = _zero_slope(evaluate, lo, hi, x0, x1, xtol,
                                  known=(V, s0, np.concatenate((WS, F[:, j], dF[:, j]), axis=1)))
            if v[0] < V[0]:
                moved = abs(x[0] - x0[0])
                X[:, j], V, WS, F[:, j], dF[:, j] = x, v, E[:, :4], E[:, 4:6], E[:, 6:]
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


def optimize_design(model: Model, spec: CriterionSpec, start: np.ndarray | None = None) -> OptimizeResult:
    """Best design on ``model`` under the criterion ``spec``: a design on at most two points, as no
    design on more points does better.

    Kind C is ``c_optimal``'s design, on one or two points; R2, CPB and EM are ``_disk_optimal``'s, labeled
    best-found.  D, R, SA and COMPOUND polish the two-point ``start``, if given, after stage 1's float-range
    check, and run stage 1 and the polish if there is none, the criterion is not finite at it or the equivalence
    certificate (directional derivative >= -1e-6, scaled, on the ``criteria.CERTIFICATE_GRID``-point grid)
    fails: a certified design is optimal whatever its start.
    """
    if spec.kind == "C":
        return c_optimal(model, spec.c)
    if not spec.is_convex:
        return _disk_optimal(model, spec)
    if start is not None:
        _fim_grid(model, STAGE1_GRID)
        if (r := _refine(model, spec, start)) is not None and r.converged:
            return r
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


def _mix(designs: Sequence[Design], weights: Sequence[float]) -> np.ndarray | None:
    """sum_i weights_i x_i over two-point designs, point by point; None if one has a single point."""
    return None if any(d.support_size != 2 for d in designs) else sum(w * d.xs for d, w in zip(designs, weights))


@dataclass(frozen=True)
class COptimalResult(OptimizeResult):
    """A c-optimal design with Elfving's dual: u^T c = 1, |u^T f| <= gamma on the space."""

    u: tuple[float, float]
    gamma: float


def _root(model: Model, u: np.ndarray, bracket: np.ndarray) -> np.ndarray:
    """The root of u^T f, to EPS times the width, between the points (lo, hi) where it changes sign."""
    sign = 1.0 if np.diff(_regressor(model, bracket) @ u)[0] >= 0.0 else -1.0
    return _zero_slope(lambda rows, x: (0.0 * x, sign * _regressor(model, x).dot(u), None),
                       bracket[:1], bracket[1:], bracket[:1], bracket[1:], EPS * model.space.width)[0]


def c_optimal(model: Model, c: Sequence[float]) -> COptimalResult:
    """Design minimizing c^T M^- c, by Elfving's theorem (Elfving 1952; Pukelsheim 2006, ch. 2): the least value is
    1/gamma^2, gamma the least over u with u^T c = 1 of max_x |u^T f(x)|, convex in t along u = c/|c|^2 + t c_perp.
    ``_grid_dual``'s two active lines name the support.  Points apart are polished to local maxima of s u^T f and t
    moved to where their lines cross, until they stand still; the weights solve gamma c = sum_k w_k s_k f(x_k).
    A one-point design lies at the root of c_perp^T f in a grid cell, where f is parallel to c, u normal to f there:
    in the cell neighbours of one sign straddle, if |u^T f| <= gamma (1 + EQUIVALENCE_TOL)^(1/2) on the grid (else
    the largest |u^T f| joins a neighbour), or, where a polished pair has a negative weight, its face missing c, in
    the cell of c_perp^T f's sign change nearest its heavier point.  c is divided by 2^e, the power of two of its
    largest entry, and u and gamma scaled back.  The certificate is u's, c^T M^- c (1 - (u^T f(x) / gamma)^2) >= 0,
    sampled by ``criteria._dual_report``, as ``derivative_report``'s on a singular M."""
    design, value, n_evals, u, gamma = _elfving(model, [c])[0]
    report = _dual_report(model, design, value, u, gamma)
    return COptimalResult(design, value, report, report.passes(value), n_evals, u, gamma)


def _elfving(model: Model, cs: Sequence[Sequence[float]]) -> list[tuple[Design, float, int, tuple, float]]:
    """``c_optimal``'s design, value, iterations, u and gamma, uncertified, for each c of cs at once: one grid, one
    polish whose rows 2m and 2m + 1 hold c_m's pair, each row stopping with its c and following the arithmetic
    of its c alone.  Each c raises its error where it arises: a one-point c in the grid pass, a pair after it."""
    space, tol, k = model.space, XTOL_REL * model.space.width, len(cs)
    cs = [CriterionSpec("C", c=tuple(map(float, c))).c for c in cs]
    grid, F = _finite_grid(model, ELFVING_GRID)
    (X, S, lo, hi), (Fx, dFx), edges = np.zeros((4, 2 * k)), np.zeros((2, 2 * k, 2)), np.arange(0, 2 * k + 1, 2)
    frames, sol, n_evals, out = [], {}, [0] * k, [None] * k  # c_m's (e, along, across, a, b); its pair's (t, A, B)

    def one_point(m: int, t: float, cell: list) -> tuple[float, np.ndarray, float, np.ndarray]:
        # t, x, gamma and u^T f on the grid: x the root of c_perp^T f in the cell, u normal to the curve there or t's.
        _, along, across, a, b = frames[m]
        fx, dfx = _regress(model, x := _root(model, across, grid[cell]))
        if space.lo < x[0] < space.hi and dfx[0] @ across != 0.0:
            t = -float(dfx[0] @ along) / float(dfx[0] @ across)
        return t, x, abs(float(fx[0] @ along)), a + t * b

    def finish(m: int, t: float, x: np.ndarray, gamma: float, w: np.ndarray) -> None:  # u, gamma scaled by 2^-e
        e, along, across = frames[m][:3]
        if not gamma > 0.0:
            raise OptimizationError("c is inestimable under every candidate design")
        with np.errstate(over="ignore"):  # gamma overflows only where 1/gamma^2 underflows; a scalar's pow is C's
            gamma, u = float(np.ldexp(gamma, -e)), tuple(np.ldexp(along + t * across, -e).tolist())
            value = float(np.float64(gamma) ** -2)
        if not 0.0 < value < math.inf:
            raise OptimizationError(f"the c-optimal value 1/gamma^2 {'overflows' if value else 'underflows'} a float "
                                    f"(gamma = {gamma:.3g})")
        out[m] = make_design(list(zip(x.tolist(), w.tolist())), space), value, n_evals[m], u, gamma

    for m, c in enumerate(cs):
        e, along, across = _c_frame(c)
        if not (a := F @ along).any():
            raise OptimizationError("c is inestimable under every candidate design")
        frames.append((e, along, across, a, b := F @ across))
        t, *active = _grid_dual(a, b) if b.any() else (0.0, *[(int(np.abs(a).argmax()), 1.0)] * 2)  # f || c
        (i, s), (j, r) = sorted(active)
        if s == r and j - i <= 1:  # neighbours of one sign straddle the one point where f is parallel to c
            t, x, gamma, v = one_point(m, t, [i, j])
            if np.abs(v).max() <= gamma * math.sqrt(1.0 + EQUIVALENCE_TOL):  # u's bound holds: x is the optimum
                finish(m, t, x, gamma, np.ones(1))
                continue
            g = int(np.abs(v).argmax())  # f(x) is inside Elfving's set: the largest |u^T f| joins the pair
            (i, s), (j, r) = sorted([(j, r) if g == i else (i, s), (g, math.copysign(1.0, v[g]))])
        h = slice(2 * m, 2 * m + 2)  # two points, their f from the grid
        X[h], S[h], Fx[h], dFx[h] = grid[[i, j]], (s, r), F[[i, j]], _regressor(model, grid[[i, j]], True)
        lo[h], hi[h] = grid[np.clip([[i - 1, j - 1], [i + 1, j + 1]], 0, len(grid) - 1)]
        sol[m] = t, S[h] * a[[i, j]], S[h] * b[[i, j]]

    def lines(rows: np.ndarray, Fr: np.ndarray, dFr: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # -s u^T f and its slope -s u^T f', with f and f' as extras, c by c: a slope within the rounding of its
        # terms is 0, a flat stretch of the boundary.
        v, slope, cut = np.empty(len(rows)), np.empty(len(rows)), rows.searchsorted(edges).tolist()
        for m, r0, r1 in zip(range(k), cut, cut[1:]):
            if r1 > r0:
                (u, bound), n_evals[m] = u_bound[m], n_evals[m] + r1 - r0
                v[r0:r1], du = Fr[r0:r1].dot(u), dFr[r0:r1].dot(u)  # @'s product, at less call overhead
                du[np.abs(du) <= 8.0 * EPS * np.abs(dFr[r0:r1]).dot(bound)] = 0.0
                slope[r0:r1] = du
        return (neg := -S[rows]) * v, neg * slope, np.concatenate((Fr, dFr), axis=1)

    polish, u_bound = list(sol), {}
    for _ in range(MASS_ITERS):
        if not polish:
            break
        for m in polish:  # t, where the lines cross, is off by up to about EPS (|A_0| + |A_1|) / |B_0 - B_1|,
            (_, along, across, *_), (t, A, B) = frames[m], sol[m]  # all of t on a flat edge
            t_bound = abs(t) + np.abs(A).sum() / abs(B[0] - B[1])
            u_bound[m] = along + t * across, np.abs(along) + t_bound * np.abs(across)
        rows = np.array([2 * m + h for m in polish for h in (0, 1)])
        known, x0, left, right = lines(rows, Fx[rows], dFx[rows]), X[rows], lo[rows], hi[rows]
        x, _, fdf = _zero_slope(lambda r, x: lines(rows[r], *_regress(model, x)), left, right, x0,
                                (x0 - np.sign(known[1]) * tol).clip(left, right), tol, known=known)
        Fx[rows], dFx[rows], moved, X[rows] = fdf[:, :2], fdf[:, 2:], np.abs(x - x0), x
        for m in polish:
            A, B = (S[2 * m:2 * m + 2] * Fx[2 * m:2 * m + 2].dot(v) for v in frames[m][1:3])
            sol[m] = float((A[1] - A[0]) / (B[0] - B[1])), A, B
        # t's error is second order in the points', so theirs squares each round.
        polish = [m for p, m in enumerate(polish) if moved[2 * p:2 * p + 2].max() > math.sqrt(tol * space.width)]
    for m, (t, _, _) in sol.items():
        # gamma c = sum_k w_k s_k f(x_k) with the w_k summing to 1: w / gamma by Cramer's rule, free of the
        # cancellation in det M of a narrow support.  f(x_k) parallel to rounding: f has rank one, c no estimate.
        h, (c2, c1), b = slice(2 * m, 2 * m + 2), frames[m][2] * (-1.0, 1.0), frames[m][4]  # across = (-c2, c1)
        (g11, g12), (g21, g22) = S[h, None] * Fx[h]
        if (det := _cross(g11 * g22, g12 * g21)) == 0.0:
            raise OptimizationError("c is inestimable under every candidate design")
        if (w := np.array([c1 * g22 - c2 * g21, g11 * c2 - g12 * c1]) / det).min() >= 0.0:
            finish(m, t, X[h], 1.0 / float(w.sum()), w / w.sum())
            continue
        # A negative weight: the face misses c; f || c at the sign change of c_perp^T f nearest the heavier point.
        if not len(cells := np.flatnonzero(np.diff(b > 0.0))):
            raise OptimizationError("the polished pair misses c, and c_perp^T f changes sign nowhere on the grid")
        i = cells[np.abs(grid[cells] + grid[cells + 1] - 2.0 * X[h][w.argmax()]).argmin()]
        finish(m, *one_point(m, t, [i, i + 1])[:3], np.ones(1))
    return out


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
        rate[_is_singular((Fx * Fx).sum(axis=1) ** 2)] = np.nan  # |f|^4 may overflow: _zero_slope ignores it
        return 0.0 * x, rate, None

    lo, hi, far = grid[np.maximum(ends - 1, 0)], grid[np.minimum(ends + 1, len(grid) - 1)], grid[ends[::-1]]
    x = _zero_slope(evaluate, np.minimum(lo, far), np.maximum(hi, far), lo, hi, XTOL_REL * model.space.width)[0]
    turn = np.flatnonzero(np.diff(F[idx] @ (f := _regressor(model, x))[0] > 0.0))  # a quarter turn off f(x_a)
    if len(turn) and (np.prod(f) >= 0.0 or spec.kind == "EM"):
        x = np.array([x[0], _root(model, f[0], grid[idx[turn[0] + np.arange(2)]])[0]])
    x = np.sort(x)
    return _result(model, spec, x, _best_mass(spec, _regressor(model, x)[None], 0.0)[0][0], n_evals)


def sa_references(model: Model) -> tuple[tuple[float, float], np.ndarray | None]:
    """Optimal c-criterion values for c = (1,0) and c = (0,1), feeding the SA criterion, and SA's start: the
    midpoint of their designs' supports, point by point, or None if one design has a single point."""
    (d1, v1, *_), (d2, v2, *_) = _elfving(model, [(1.0, 0.0), (0.0, 1.0)])
    return (v1, v2), _mix((d1, d2), (0.5, 0.5))


def _reference_stars(model: Model, params: SlrInterval | MMParams) -> tuple[tuple[float, float], tuple]:
    """((phi_D*, phi_R*), (D design, R design)), references of COMPOUND and the efficiencies: the closed forms
    of ``params`` (SLR's interval or MM's parameters) but on MM the R design, polished from ``mm_r_start``."""
    slr = isinstance(params, SlrInterval)
    d = d_optimal_slr(params) if slr else mm_d_optimal(params)
    d_star = phi_d(fim(model, d))  # fim first: it names an M beyond the float range
    r = r_optimal_slr(params) if slr else optimize_design(model, *_criterion_start(model, params, "R")).design
    return (d_star, phi_r(fim(model, r))), (d, r)


def _criterion_start(model: Model, params: SlrInterval | MMParams, kind: str, c: tuple[float, float] | None = None,
                     lam: float | None = None) -> tuple[CriterionSpec, np.ndarray | None]:
    """The criterion ``kind`` (C takes c, COMPOUND lam) and the start ``optimize_design`` polishes: D's closed
    form, R's on SLR (``mm_r_start`` on MM), SA's from ``sa_references``, COMPOUND's (1 - lam) x_D + lam x_R,
    point by point, from the designs of its ``_reference_stars`` after lam's check; None for C, R2, CPB, EM."""
    slr = isinstance(params, SlrInterval)
    if kind == "D":
        return CriterionSpec("D"), (d_optimal_slr(params) if slr else mm_d_optimal(params)).xs
    if kind == "R":
        return CriterionSpec("R"), r_optimal_slr(params).xs if slr else mm_r_start(params)
    if kind == "SA":
        refs, start = sa_references(model)
        return CriterionSpec("SA", sa_refs=refs), start
    if kind == "COMPOUND":
        spec = CriterionSpec("COMPOUND", lam=lam, phi_d_star=1.0, phi_r_star=1.0)  # checks lam before the references
        (d_star, r_star), designs = _reference_stars(model, params)
        return replace(spec, phi_d_star=d_star, phi_r_star=r_star), _mix(designs, (1 - lam, lam))
    return CriterionSpec(kind, c=c), None


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

    Each row is the design ``optimal`` prints for its kind: ``_criterion_start``'s criterion and start through
    ``optimize_design``.  With ``compat=True`` (default) the criteria without an attained optimum on a space
    containing zero (condition number and squared correlation, whose infima sit at the singular boundary) are
    reported as the degenerate limit rows a=0, p=1; their reference values are then unavailable and dependent
    efficiency cells are left empty.  With ``compat=False`` the optimizer's best-found non-singular design is
    reported instead.
    """
    design_rows, eff_rows = [], []
    for eps in eps_list:
        model = mm_model(p_eps := replace(params, eps=float(eps)))
        built = {k: _criterion_start(model, p_eps, k) for k in MM_CRITERIA}
        designs = {k: None if k in ("EM", "R2") and compat and p_eps.space().lo == 0.0
                   else optimize_design(model, *built[k]).design for k in MM_CRITERIA}

        # One value table: vals[k][j] is criterion j at kind k's design, one fim per design; its diagonal the stars.
        ms = {k: fim(model, d) for k, d in designs.items() if d is not None}
        vals = {k: {j: criterion_value(m, built[j][0]) for j in MM_CRITERIA} for k, m in ms.items()}
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
    return _csv("eps,criterion,a,p", ((f"{r.eps:g}", r.criterion, _fmt(r.a, 2), _fmt(r.p, 2))
                                      for r in tables.designs))


def mm_efficiencies_csv(tables: MMTables) -> str:
    return _csv("eps,criterion,Eff_D,Eff_SA,Eff_R,Eff_EM,Eff_r2,r2", ((f"{r.eps:g}", r.criterion, *(
        _fmt(v, 2) for v in (r.eff_d, r.eff_sa, r.eff_r, r.eff_em, r.eff_r2, r.r2))) for r in tables.efficiencies))

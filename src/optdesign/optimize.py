"""Numeric design optimization and the Michaelis-Menten reference tables.

The search is grid-plus-refinement.  Stage 1 scores candidate supports on a
grid: for two points every pair of the design grid, for three or four points
every subset of a coarse grid, each with optimal weights, all at once.  The
best few are polished by coordinate descent on the support coordinates with
step halving.  For the non-convex criteria (squared correlation and condition
number, which carry no equivalence theorem) a seeded multistart adds random
initial supports.  Convex results come back with a directional-derivative
certificate on a fine grid; non-convex results are labeled best-found.

One solver serves every weight problem: a bracketed secant on the
criterion's slope in the mass split of two points, run on many rows at once.
Supports of three or four points get their weights by cyclic pairwise
transfers, each transfer such a two-point solve.

The refinement is batched: all candidates, stage-1 picks and multistarts
alike, are rows of arrays.  Each sweep builds the 2k moves (plus or minus the
candidate's step on one of its k coordinates) of every live candidate and
weighs all of them in one batched weight solve.  A candidate takes its best
improving move, or halves its step when none improves, and drops out once the
step falls to ``STEP_MIN_REL`` times the width, or once the criterion is at
its infimum: r^2 zero to rounding for R2 and CPB, EM within the weight
tolerance of 1.

Weight optimization relies on the criteria being unimodal along the weight
segment of a fixed two-point support: the convex criteria trivially so, and
the two non-convex ones by direct analysis of their one-dimensional slices.

Everything is deterministic given the request (the seed only feeds the
multistart); ties are broken by lexicographic design comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Sequence

import numpy as np

from .criteria import (
    CriterionSpec,
    DerivativeReport,
    EQUIVALENCE_TOL,
    criterion_value,
    criterion_values_raw,
    derivative_report,
    phi_c,
)
from .designs import Design, Model, fim, make_design
from .errors import OptimizationError, ValidationError
from .mm import MMParams, mm_d_optimal, mm_model

STAGE1_TOL = 2e-6          # width of the stage-1 mass brackets
STAGE1_BLOCK = 4096        # stage-1 pairs per mass solve; bounds its working arrays
MASS_ITERS = 64            # cap on the secant iterations of one mass solve
REFINE_TOP = 16            # candidates kept for coordinate-descent polish
MULTISTARTS = 16           # random restarts for non-convex criteria
STEP_MIN_REL = 1e-8        # refinement stops at this step, relative to the width
R2_FLOOR = float(np.finfo(float).eps)  # r^2 this small is zero to rounding: R2/CPB refinement stops


@dataclass(frozen=True)
class OptimizeRequest:
    """One optimization problem: model, criterion, and search controls."""

    model: Model
    criterion: CriterionSpec
    n_support: int = 2
    grid_resolution: int = 201
    weight_tolerance: float = 1e-8
    seed: int = 0

    def __post_init__(self) -> None:
        if not 2 <= self.n_support <= 4:
            raise ValidationError(f"n_support must lie in [2, 4], got {self.n_support}")
        if self.grid_resolution < 100:
            raise ValidationError(f"grid_resolution must be >= 100, got {self.grid_resolution}")
        if not self.weight_tolerance > 0.0:
            raise ValidationError("weight_tolerance must be positive")


@dataclass(frozen=True)
class OptimizeResult:
    """Outcome of a design search.

    ``iterations`` counts the support moves the refinement evaluated, summed
    over all candidates.
    """

    design: Design
    criterion_value: float
    derivative_report: DerivativeReport | None
    converged: bool
    iterations: int
    label: str  # "certified" or "best-found"


def _outer3(f: np.ndarray) -> np.ndarray:
    """(..., 2) regressor values -> (..., 3) outer-product entries (f1^2, f1 f2, f2^2)."""
    return np.stack([f[..., 0] ** 2, f[..., 0] * f[..., 1], f[..., 1] ** 2], axis=-1)


def _best_mass(spec: CriterionSpec, Oa: np.ndarray, Ob: np.ndarray,
               tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Optimal mass w at the first point of each row's two-point support.

    Oa and Ob hold the (n, 3) outer-product entries of the two points; at mass
    w the matrix is Ob + w (Oa - Ob).  A bracketed secant (Dekker's zero
    finder) drives the criterion's slope along Oa - Ob to 0 on all rows at
    once, so rounding in the slope, not in the value, limits its precision.
    A row stops at a zero slope or once its bracket is at most ``tol`` wide.
    Returns (w, value) at the bracket end with the smaller slope.
    """
    base, direction = Ob.T.copy(), (Oa - Ob).T.copy()  # (3, n): m11, m12, m22
    n = len(Oa)
    # Bracket ends (mass, slope, value): the slope is <= 0 at lo and >= 0 at hi.
    lo, s_lo, v_lo = np.zeros(n), np.full(n, -np.inf), np.full(n, np.inf)
    hi, s_hi, v_hi = np.ones(n), np.full(n, np.inf), np.full(n, np.inf)

    def evaluate(rows: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        d = direction[:, rows]
        v, s = criterion_values_raw(spec, *(base[:, rows] + w * d), d=d)
        # Singular masses lie next to 0 or 1; the admissible ones are inward.
        return v, np.where(np.isnan(s), np.where(w > 0.5, np.inf, -np.inf), s)

    def update(rows: np.ndarray, w: np.ndarray, v: np.ndarray, s: np.ndarray) -> None:
        for side, at, s_at, v_at in ((s <= 0.0, lo, s_lo, v_lo), (s >= 0.0, hi, s_hi, v_hi)):
            at[rows[side]], s_at[rows[side]], v_at[rows[side]] = w[side], s[side], v[side]

    rows = np.arange(n)
    w0, w1 = np.full(n, 0.5), np.full(n, 0.5 + 1e-6)  # a start and its secant partner
    v, s = evaluate(np.concatenate([rows, rows]), np.concatenate([w0, w1]))
    (v0, v1), (s0, s1) = np.split(v, 2), np.split(s, 2)
    update(rows, w0, v0, s0)
    update(rows, w1, v1, s1)
    live = rows[hi - lo > tol]
    for _ in range(MASS_ITERS):
        if not len(live):
            break
        a, sa, b, sb, left, right = (x[live] for x in (w0, s0, w1, s1, lo, hi))
        with np.errstate(divide="ignore", invalid="ignore"):
            w = b - sb * (b - a) / (sb - sa)
        w = np.where((left < w) & (w < right), w, 0.5 * (left + right))
        w = np.where(np.abs(w - b) < 0.5 * tol, b + np.copysign(0.5 * tol, w - b), w)
        v, s = evaluate(live, w)
        w0[live], s0[live], w1[live], s1[live] = b, sb, w, s
        update(live, w, v, s)
        live = live[hi[live] - lo[live] > tol]
    take_lo = np.abs(s_lo) <= np.abs(s_hi)
    return np.where(take_lo, lo, hi), np.where(take_lo, v_lo, v_hi)


def _support_weights(spec: CriterionSpec, O: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Optimal weights (n, k) and criterion values (n,) of the n supports whose
    points have the outer-product entries O (n, k, 3)."""
    if O.shape[1] == 2:
        w, v = _best_mass(spec, O[:, 0], O[:, 1], tol)
        return np.stack([w, 1.0 - w], axis=1), v
    return _best_weights_k(spec, O, tol)


def _best_weights_k(spec: CriterionSpec, O: np.ndarray, tol: float,
                    max_sweeps: int = 60) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic pairwise mass transfers on the simplex, for supports of 3 or 4 points.

    O holds the (n, k, 3) outer-product entries of n supports, all solved at
    once.  For points i and j, with R the weighted sum of the other points and
    m = w_i + w_j, the transfer is the two-point mass solve between R + m O_i
    and R + m O_j.  A row stops after a sweep whose largest weight shift is
    below ``tol``.  Returns the weights (n, k) and the criterion values (n,).
    """
    n, k, _ = O.shape
    W = np.full((n, k), 1.0 / k)
    V = np.full(n, np.inf)
    live = np.arange(n)
    for _ in range(max_sweeps):
        if not len(live):
            break
        w, Ol = W[live], O[live]
        shift = np.zeros(len(live))
        for i, j in combinations(range(k), 2):
            rest = sum(w[:, q, None] * Ol[:, q] for q in range(k) if q not in (i, j))
            mass = w[:, i] + w[:, j]
            t, V[live] = _best_mass(spec, rest + mass[:, None] * Ol[:, i],
                                    rest + mass[:, None] * Ol[:, j], tol)
            shift = np.maximum(shift, np.abs(t * mass - w[:, i]))
            w[:, i], w[:, j] = t * mass, mass - t * mass
        W[live] = w
        live = live[shift >= tol]
    return W, V


def optimize_weights(model: Model, support: Sequence[float], criterion: CriterionSpec,
                     tol: float = 1e-8) -> np.ndarray:
    """Optimal simplex weights for a fixed support.

    Two points: a bracketed secant on the criterion's slope in the mass split.
    Three or four points: cyclic pairwise transfers between the points, each
    one such two-point solve.
    """
    xs = np.asarray(sorted(float(x) for x in support), dtype=float)
    if len(xs) < 2:
        raise ValidationError("optimize_weights needs at least two support points")
    if np.min(np.diff(xs)) <= model.space.merge_tol():
        raise ValidationError("support points must be distinct")
    for x in xs:
        if not model.space.contains(x):
            raise ValidationError(f"support point {x} outside the design space")
    F = np.asarray(model.regressor(xs), dtype=float)
    W, V = _support_weights(criterion, _outer3(F)[None], tol)
    if not math.isfinite(V[0]):
        raise OptimizationError("criterion is infinite for every weighting of this support")
    return W[0]


# --- support search -----------------------------------------------------------

def _stage1_pairs(spec: CriterionSpec, O: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized weight optimization over all grid pairs; returns (i, j, w, value)."""
    I, J = np.triu_indices(len(O), k=1)
    w, vals = np.empty(len(I)), np.empty(len(I))
    for start in range(0, len(I), STAGE1_BLOCK):
        block = slice(start, start + STAGE1_BLOCK)
        w[block], vals[block] = _best_mass(spec, O[I[block]], O[J[block]], STAGE1_TOL)
    return I, J, w, vals


def _refine(model: Model, spec: CriterionSpec, X: np.ndarray, step: np.ndarray,
            wtol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Batched coordinate descent on k-point supports, with per-candidate step halving.

    X (n, k) holds the sorted initial supports and ``step`` (n,) their
    initial steps.  Each sweep weighs the 2k moves of every live candidate in
    one batched weight solve; a candidate takes its best improving move or
    halves its step.  A candidate retires once its step falls to
    ``STEP_MIN_REL`` times the width, or at the criterion's infimum: r^2 at
    most ``R2_FLOOR`` for R2 and CPB, EM - 1 at most ``wtol``.  Returns the
    supports, their weights (n, k), the criterion values and the number of
    moves evaluated.
    """
    space = model.space
    merge_tol = space.merge_tol()
    step_min = STEP_MIN_REL * space.width
    X = np.array(X, dtype=float)
    step = np.array(step, dtype=float)
    k = X.shape[1]
    # The moves +e1, -e1, +e2, -e2, ... (this order breaks ties between
    # equally good moves).
    moves = np.zeros((2 * k, k))
    moves[np.arange(2 * k), np.repeat(np.arange(k), 2)] = np.tile([1.0, -1.0], k)

    def evaluate(supports: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        F = np.asarray(model.regressor(supports.ravel()), dtype=float).reshape(-1, k, 2)
        W, V = _support_weights(spec, _outer3(F), wtol)
        return W, np.where(np.all(np.isfinite(F), axis=(1, 2)), V, np.inf)

    def still_open(rows: np.ndarray) -> np.ndarray:
        # On some spaces a continuum of designs reaches r = 0 or EM = 1.  A
        # candidate there finds only "gains" made of the weight solve's
        # error, and would chase them for thousands of sweeps.  EM grows
        # linearly off its kink at 1, so weights resolved to wtol resolve
        # EM - 1 only to about wtol.
        keep = step[rows] > step_min
        if spec.kind == "R2":
            keep &= V[rows] > R2_FLOOR
        elif spec.kind == "CPB":
            keep &= V[rows] ** 2 > R2_FLOOR
        elif spec.kind == "EM":
            keep &= V[rows] - 1.0 > wtol
        return rows[keep]

    W, V = evaluate(X)
    n_moves = 0
    live = still_open(np.arange(len(X)))
    while len(live):
        base = X[live, None, :]
        cand = np.sort(np.clip(base + step[live, None, None] * moves, space.lo, space.hi), axis=2)
        # A move that merges two points, or that the boundary clips to the
        # current support, is not evaluated.
        ok = np.all(np.diff(cand, axis=2) > merge_tol, axis=2) & np.any(cand != base, axis=2)
        vals = np.full(ok.shape, np.inf)
        weights = np.zeros(ok.shape + (k,))
        weights[ok], vals[ok] = evaluate(cand[ok])
        n_moves += int(np.count_nonzero(ok))
        rows = np.arange(len(live))
        pick = np.argmin(vals, axis=1)
        best = vals[rows, pick]
        better = best < V[live]
        won = live[better]
        X[won] = cand[rows, pick][better]
        W[won] = weights[rows, pick][better]
        V[won] = best[better]
        step[live[~better]] *= 0.5
        live = still_open(live)
    return X, W, V, n_moves


def _design_key(xs: Sequence[float], ws: Sequence[float]) -> tuple[float, ...]:
    return tuple(float(v) for pair in zip(xs, ws) for v in pair)


def _initial_supports(model: Model, n_support: int) -> tuple[np.ndarray, np.ndarray]:
    """Candidate supports of a three- or four-point search: every subset of a
    coarse grid, in lexicographic order, with their outer-product entries."""
    grid = model.space.grid(24 if n_support == 3 else 14)
    F = np.asarray(model.regressor(grid), dtype=float)
    finite = np.all(np.isfinite(F), axis=1)
    idx = np.array(list(combinations(range(np.count_nonzero(finite)), n_support)),
                   dtype=int).reshape(-1, n_support)
    return grid[finite][idx], _outer3(F[finite])[idx]


def optimize_design(request: OptimizeRequest) -> OptimizeResult:
    """Best design of the requested support size under the requested criterion.

    Convex criteria return with an equivalence certificate (directional
    derivative >= -1e-6, scaled, on a 1000-point grid); the non-convex ones
    return the best design found by grid search plus seeded multistart.
    """
    model = request.model
    spec = request.criterion
    space = model.space

    candidates: list[tuple[float, ...]] = []  # stage-1 supports, best first
    if request.n_support == 2:
        grid = space.grid(request.grid_resolution)
        F = np.asarray(model.regressor(grid), dtype=float)
        finite_rows = np.all(np.isfinite(F), axis=1)
        grid, F = grid[finite_rows], F[finite_rows]
        I, J, _, vals = _stage1_pairs(spec, _outer3(F))
        order = np.argsort(vals, kind="stable")
        # Coarse-cell dedupe so the refinement fan-out covers distinct basins
        # instead of sixteen neighbors of the same grid optimum.
        cell = max(1, len(grid) // 32)
        seen: set[tuple[int, int]] = set()
        for idx in order:
            if not math.isfinite(vals[idx]):
                break
            key = (int(I[idx]) // cell, int(J[idx]) // cell)
            if key in seen:
                continue
            seen.add(key)
            candidates.append((float(grid[I[idx]]), float(grid[J[idx]])))
            if len(candidates) >= REFINE_TOP:
                break
    else:
        S, O = _initial_supports(model, request.n_support)
        _, vals = _best_weights_k(spec, O, max(request.weight_tolerance, 1e-4), max_sweeps=4)
        # The rows are in lexicographic order, so a stable sort breaks ties by support.
        candidates = [tuple(float(x) for x in S[i])
                      for i in np.argsort(vals, kind="stable")[:REFINE_TOP]
                      if math.isfinite(vals[i])]

    if not candidates:
        raise OptimizationError("no admissible (non-singular) design found on the grid")

    step0 = space.width / max(request.grid_resolution - 1, 1)
    starts = [(supp, step0) for supp in candidates]
    if not spec.is_convex:
        rng = np.random.default_rng(request.seed)
        for _ in range(MULTISTARTS):
            supp = np.sort(rng.uniform(space.lo, space.hi, request.n_support))
            if len(supp) > 1 and np.min(np.diff(supp)) <= space.merge_tol():
                continue
            starts.append((tuple(float(x) for x in supp), space.width / 16.0))

    X, W, V, total_iter = _refine(model, spec, np.array([s for s, _ in starts]),
                                  np.array([h for _, h in starts]), request.weight_tolerance)
    refined = sorted(((float(v), tuple(float(x) for x in xs), ws)
                      for xs, ws, v in zip(X, W, V) if math.isfinite(v)),
                     key=lambda r: (r[0], _design_key(r[1], r[2])))
    if not refined:
        raise OptimizationError("no admissible (non-singular) design found")
    best_val, best_xs, best_ws = refined[0]

    # Canonicalize: a support point carrying negligible mass is optimizer dust;
    # drop it and re-optimize the remaining weights when that does not hurt.
    keep = [i for i, w in enumerate(best_ws) if w > 1e-7]
    if 2 <= len(keep) < len(best_xs):
        xs2 = [best_xs[i] for i in keep]
        F2 = np.asarray(model.regressor(np.asarray(xs2)), dtype=float)
        W2, V2 = _support_weights(spec, _outer3(F2)[None], request.weight_tolerance)
        if V2[0] <= best_val * (1.0 + 1e-9) + 1e-12:
            best_xs, best_ws, best_val = tuple(xs2), W2[0], float(V2[0])

    design = make_design(list(zip(best_xs, best_ws)), space)
    value = criterion_value(fim(model, design), spec)

    if spec.is_convex and not fim(model, design).is_singular:
        report = derivative_report(model, design, spec, grid_points=1000)
        converged = report.passes(value, EQUIVALENCE_TOL)
        return OptimizeResult(design, value, report, converged, total_iter,
                              "certified" if converged else "best-found")
    return OptimizeResult(design, value, None, False, total_iter, "best-found")


def c_optimal(model: Model, c: Sequence[float], grid_resolution: int = 201,
              weight_tolerance: float = 1e-8, seed: int = 0) -> OptimizeResult:
    """Design minimizing the generalized variance c^T M^- c.

    c-optimal designs may be singular (one-point); those are admissible when
    c is estimable there, found by locating the points where the regressor is
    parallel to c.  Non-singular optima win ties so that they can carry an
    equivalence certificate.
    """
    c1, c2 = float(c[0]), float(c[1])
    if c1 == 0.0 and c2 == 0.0:
        raise ValidationError("c must be nonzero")
    spec = CriterionSpec("C", c=(c1, c2))
    two_point = optimize_design(OptimizeRequest(
        model=model, criterion=spec, n_support=2,
        grid_resolution=grid_resolution, weight_tolerance=weight_tolerance, seed=seed))

    best = two_point
    # Singleton candidates: roots of cross(x) = c1 f2(x) - c2 f1(x).
    grid = model.space.grid(max(grid_resolution, 400))
    F = np.asarray(model.regressor(grid), dtype=float)
    cross = c1 * F[:, 1] - c2 * F[:, 0]
    roots: list[float] = []
    for i in range(len(grid) - 1):
        lo_v, hi_v = cross[i], cross[i + 1]
        if lo_v == 0.0:
            roots.append(float(grid[i]))
        elif lo_v * hi_v < 0.0:
            a, b = float(grid[i]), float(grid[i + 1])
            fa = lo_v
            for _ in range(80):
                mid = 0.5 * (a + b)
                f_mid = model.regressor_at(mid)
                fm = float(c1 * f_mid[1] - c2 * f_mid[0])
                if fa * fm <= 0.0:
                    b = mid
                else:
                    a, fa = mid, fm
            roots.append(0.5 * (a + b))
    if cross[-1] == 0.0:
        roots.append(float(grid[-1]))
    for x in roots:
        design = make_design([(x, 1.0)], model.space)
        val = phi_c(fim(model, design), (c1, c2))
        if math.isfinite(val) and val < best.criterion_value * (1.0 - 1e-12):
            best = OptimizeResult(design, val, None, False, best.iterations, "best-found")

    if not math.isfinite(best.criterion_value):
        raise OptimizationError("c is inestimable under every candidate design")
    return best


def sa_references(model: Model, grid_resolution: int = 201,
                  weight_tolerance: float = 1e-8, seed: int = 0) -> tuple[float, float]:
    """Optimal c-criterion values for c = (1,0) and c = (0,1), feeding the SA criterion."""
    r1 = c_optimal(model, (1.0, 0.0), grid_resolution, weight_tolerance, seed)
    r2 = c_optimal(model, (0.0, 1.0), grid_resolution, weight_tolerance, seed)
    return r1.criterion_value, r2.criterion_value


# --- Michaelis-Menten reference tables ---------------------------------------

MM_CRITERIA = ("D", "SA", "R", "EM", "R2")


@dataclass(frozen=True)
class MMDesignRow:
    """One (eps, criterion) cell of the design table: support {a*K, b*K}, mass p at a*K."""

    eps: float
    criterion: str
    a: float
    p: float
    design: Design | None
    collapsed: bool


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


def _criterion_for(kind: str, refs: tuple[float, float]) -> CriterionSpec:
    if kind == "SA":
        return CriterionSpec("SA", sa_refs=refs)
    return CriterionSpec(kind)


def mm_tables(params: MMParams, eps_list: Sequence[float],
              criteria: Sequence[str] = MM_CRITERIA, compat: bool = True,
              grid_resolution: int = 201, weight_tolerance: float = 1e-8,
              seed: int = 0) -> MMTables:
    """Optimal designs and cross-efficiencies per lower design-space extreme.

    With ``compat=True`` (default) the criteria without an attained optimum on
    a space containing zero (condition number and squared correlation, whose
    infima sit at the singular boundary) are reported as the degenerate limit
    rows a=0, p=1; their reference values are then unavailable and dependent
    efficiency cells are left empty.  With ``compat=False`` the optimizer's
    best-found non-singular design is reported instead.
    """
    for kind in criteria:
        if kind not in MM_CRITERIA:
            raise ValidationError(f"unknown table criterion {kind!r}; choose from {MM_CRITERIA}")

    design_rows: list[MMDesignRow] = []
    eff_rows: list[MMEfficiencyRow] = []

    for eps in eps_list:
        p_eps = replace(params, eps=float(eps))
        model = mm_model(p_eps)
        at_zero_floor = p_eps.space().lo == 0.0
        refs = sa_references(model, grid_resolution, weight_tolerance, seed)

        designs: dict[str, Design | None] = {}
        for kind in criteria:
            if kind == "D":
                designs[kind] = mm_d_optimal(p_eps)
            elif kind in ("EM", "R2") and compat and at_zero_floor:
                designs[kind] = None
            else:
                spec = _criterion_for(kind, refs)
                designs[kind] = optimize_design(OptimizeRequest(
                    model=model, criterion=spec, n_support=2,
                    grid_resolution=grid_resolution,
                    weight_tolerance=weight_tolerance, seed=seed)).design

        evaluators = {
            "D": CriterionSpec("D"),
            "SA": CriterionSpec("SA", sa_refs=refs),
            "R": CriterionSpec("R"),
            "EM": CriterionSpec("EM"),
            "R2": CriterionSpec("R2"),
        }
        stars: dict[str, float | None] = {}
        for kind in criteria:
            d = designs[kind]
            stars[kind] = None if d is None else criterion_value(fim(model, d), evaluators[kind])

        for kind in criteria:
            d = designs[kind]
            if d is None:
                design_rows.append(MMDesignRow(eps=float(eps), criterion=kind,
                                               a=0.0, p=1.0, design=None, collapsed=True))
                cells = {k: (1.0 if k == kind else None) for k in MM_CRITERIA}
                eff_rows.append(MMEfficiencyRow(
                    eps=float(eps), criterion=kind,
                    eff_d=cells["D"], eff_sa=cells["SA"], eff_r=cells["R"],
                    eff_em=cells["EM"], eff_r2=cells["R2"], r2=None))
                continue

            x_lo, w_lo = d.points[0]
            design_rows.append(MMDesignRow(
                eps=float(eps), criterion=kind,
                a=x_lo / p_eps.K, p=w_lo, design=d, collapsed=False))

            m = fim(model, d)
            def eff(col: str) -> float | None:
                star = stars.get(col)
                if star is None or col not in criteria:
                    return None
                val = criterion_value(m, evaluators[col])
                if not math.isfinite(val) or val <= 0.0:
                    return None
                return star / val

            r2_val = criterion_value(m, evaluators["R2"])
            eff_rows.append(MMEfficiencyRow(
                eps=float(eps), criterion=kind,
                eff_d=eff("D"), eff_sa=eff("SA"), eff_r=eff("R"),
                eff_em=eff("EM"), eff_r2=eff("R2"),
                r2=r2_val if math.isfinite(r2_val) else None))

    return MMTables(designs=tuple(design_rows), efficiencies=tuple(eff_rows))


def _fmt2(v: float | None) -> str:
    if v is None:
        return ""
    r = round(v, 2)
    if r == 0.0:
        r = 0.0
    return f"{r:.2f}"


def mm_designs_csv(tables: MMTables) -> str:
    lines = ["eps,criterion,a,p"]
    for row in tables.designs:
        lines.append(f"{row.eps:g},{row.criterion},{_fmt2(row.a)},{_fmt2(row.p)}")
    return "\n".join(lines) + "\n"


def mm_efficiencies_csv(tables: MMTables) -> str:
    lines = ["eps,criterion,Eff_D,Eff_SA,Eff_R,Eff_EM,Eff_r2,r2"]
    for row in tables.efficiencies:
        cells = [_fmt2(row.eff_d), _fmt2(row.eff_sa), _fmt2(row.eff_r),
                 _fmt2(row.eff_em), _fmt2(row.eff_r2), _fmt2(row.r2)]
        lines.append(f"{row.eps:g},{row.criterion}," + ",".join(cells))
    return "\n".join(lines) + "\n"

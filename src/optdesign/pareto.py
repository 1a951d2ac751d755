"""Multi-objective analysis: Pareto fronts, compound-criterion sweeps, and
fixed-support criterion sweeps.

The front is computed on (Eff_D, Eff_R), both maximized; that ordering is
equivalent to minimizing the criteria themselves because both are inverse
homogeneous, and it keeps the two axes on the same unit scale.  Sampled
designs with indistinguishable objectives (within 1e-12) are all retained.

The fixed-support sweep moves the mass p between two fixed points and tabulates
all three head criteria plus the correlation; it is the data behind the
"loop": near the D-optimal weight the (phi_D, phi_R) pairs are mutually
non-dominated, so neither criterion can be improved without hurting the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .criteria import CriterionSpec, correlation, phi_d, phi_r, phi_r2
from .designs import Design, Model, fim, make_design
from .errors import ValidationError
from .optimize import OptimizeRequest, OptimizeResult, optimize_design

TIE_TOL = 1e-12


@dataclass(frozen=True)
class FrontPoint:
    design: Design
    eff_d: float
    eff_r: float
    r2: float
    dominated: bool = False


def sample_two_point_designs(model: Model, n: int, seed: int) -> list[Design]:
    """n random two-point designs: points uniform on the space, weight uniform in (0,1).

    Samples whose information matrix is singular (coincident points, degenerate
    regressors) are resampled, so every returned design is admissible.
    """
    if n < 1:
        raise ValidationError(f"need n >= 1 samples, got {n}")
    rng = np.random.default_rng(seed)
    space = model.space
    out: list[Design] = []
    while len(out) < n:
        x1, x2 = rng.uniform(space.lo, space.hi, 2)
        w = rng.uniform(0.0, 1.0)
        if not 0.0 < w < 1.0:
            continue
        if abs(x1 - x2) <= space.merge_tol():
            continue
        design = make_design([(x1, w), (x2, 1.0 - w)], space)
        if design.support_size < 2 or fim(model, design).is_singular:
            continue
        out.append(design)
    return out


def evaluate_front_points(model: Model, designs: Sequence[Design],
                          phi_d_star: float, phi_r_star: float) -> list[FrontPoint]:
    """Efficiencies and squared correlation for each design, dominance flags unset."""
    points = []
    for d in designs:
        m = fim(model, d)
        points.append(FrontPoint(
            design=d,
            eff_d=phi_d_star / phi_d(m),
            eff_r=phi_r_star / phi_r(m),
            r2=phi_r2(m),
        ))
    return points


def _dominated(points: Sequence[FrontPoint]) -> list[bool]:
    """For each point: is it dominated under (maximize eff_d, maximize eff_r)?

    A point is dominated by one at least as good on both objectives and
    better by more than ``TIE_TOL`` on one of them.
    """
    d = np.array([p.eff_d for p in points])
    r = np.array([p.eff_r for p in points])
    return [bool(np.any((d >= p.eff_d) & (r >= p.eff_r)
                        & ((d - p.eff_d > TIE_TOL) | (r - p.eff_r > TIE_TOL))))
            for p in points]


def pareto_front(points: Sequence[FrontPoint]) -> list[FrontPoint]:
    """Non-dominated subset under (maximize eff_d, maximize eff_r), sorted by eff_d descending.

    Ties within 1e-12 on both objectives are kept.  Idempotent.
    """
    if len(points) == 0:
        raise ValidationError("pareto_front needs at least one point")
    keep = [replace(p, dominated=False)
            for p, dominated in zip(points, _dominated(points)) if not dominated]
    keep.sort(key=lambda p: (-p.eff_d, -p.eff_r))
    return keep


def mark_dominance(points: Sequence[FrontPoint]) -> list[FrontPoint]:
    """Return all points with their dominated flag filled in."""
    if len(points) == 0:
        raise ValidationError("mark_dominance needs at least one point")
    return [replace(p, dominated=dominated) for p, dominated in zip(points, _dominated(points))]


def front_csv(points: Sequence[FrontPoint], x_scale: float = 1.0) -> str:
    """CSV of front points: efficiencies plus the (a, p) shape of each design.

    a is the lower support point divided by x_scale (pass K to get K-units),
    p the mass it carries.
    """
    lines = ["eff_D,eff_R,p,a,r2"]
    for p in points:
        x_lo, w_lo = p.design.points[0]
        lines.append(f"{p.eff_d!r},{p.eff_r!r},{w_lo!r},{x_lo / x_scale!r},{p.r2!r}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CompoundSweepRow:
    lam: float
    design: Design
    value: float
    eff_d: float
    eff_r: float
    corr: float


def compound_sweep(model: Model, lam_grid: Sequence[float], phi_d_star: float,
                   phi_r_star: float, grid_resolution: int = 201,
                   weight_tolerance: float = 1e-8, seed: int = 0) -> list[CompoundSweepRow]:
    """Compound-optimal designs along a grid of mixing weights.

    At lam = 0 this is the D-optimal design, at lam = 1 the R-optimal one; in
    between Eff_D decreases and Eff_R increases monotonically.
    """
    if phi_d_star <= 0.0 or phi_r_star <= 0.0:
        raise ValidationError("reference criterion values must be positive")
    rows = []
    for lam in lam_grid:
        if not 0.0 <= lam <= 1.0:
            raise ValidationError(f"lambda grid must lie in [0, 1], got {lam}")
        spec = CriterionSpec("COMPOUND", lam=float(lam),
                             phi_d_star=phi_d_star, phi_r_star=phi_r_star)
        res: OptimizeResult = optimize_design(OptimizeRequest(
            model=model, criterion=spec, grid_resolution=grid_resolution,
            weight_tolerance=weight_tolerance, seed=seed))
        m = fim(model, res.design)
        rows.append(CompoundSweepRow(
            lam=float(lam), design=res.design, value=res.criterion_value,
            eff_d=phi_d_star / phi_d(m), eff_r=phi_r_star / phi_r(m),
            corr=correlation(m)))
    return rows


def compound_sweep_csv(rows: Sequence[CompoundSweepRow]) -> str:
    lines = ["lambda,value,eff_D,eff_R,corr"]
    for r in rows:
        lines.append(f"{r.lam!r},{r.value!r},{r.eff_d!r},{r.eff_r!r},{r.corr!r}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SweepRow:
    p: float
    phi_d: float
    phi_r: float
    phi_r2: float
    corr: float


def criterion_sweep(model: Model, a_fixed: float, p_grid: Sequence[float]) -> list[SweepRow]:
    """Criterion values of the designs {x_lo: p, hi: 1-p} as the mass p varies.

    x_lo is a_fixed, interpreted in K-units for the Michaelis-Menten model
    (matching how its design spaces are specified) and in raw units otherwise.
    The upper point is the top of the design space.  Every row satisfies the
    identity phi_R^2 = phi_D^2 / (1 - phi_r2).
    """
    if model.name == "michaelis_menten" and model.nominal_params is not None:
        x_lo = a_fixed * model.nominal_params[1]
    else:
        x_lo = a_fixed
    if not model.space.contains(x_lo):
        raise ValidationError(f"fixed point {x_lo} outside the design space")
    x_hi = model.space.hi
    if abs(x_hi - x_lo) <= model.space.merge_tol():
        raise ValidationError("fixed point coincides with the upper end of the space")
    rows = []
    for p in p_grid:
        if not 0.0 < p < 1.0:
            raise ValidationError(f"sweep weights must lie strictly in (0, 1), got {p}")
        design = make_design([(x_lo, float(p)), (x_hi, 1.0 - float(p))], model.space)
        m = fim(model, design)
        rows.append(SweepRow(p=float(p), phi_d=phi_d(m), phi_r=phi_r(m),
                             phi_r2=phi_r2(m), corr=correlation(m)))
    return rows


def sweep_csv(rows: Sequence[SweepRow]) -> str:
    lines = ["p,phi_D,phi_R,phi_r2,corr"]
    for r in rows:
        lines.append(f"{r.p!r},{r.phi_d!r},{r.phi_r!r},{r.phi_r2!r},{r.corr!r}")
    return "\n".join(lines) + "\n"


def has_mutually_nondominated_rows(rows: Sequence[SweepRow]) -> bool:
    """True when some pair of sweep rows trades off phi_D against phi_R.

    Both criteria are minimized here: rows (i, j) are mutually non-dominated
    when phi_D(i) < phi_D(j) while phi_R(i) > phi_R(j).
    """
    vals = [(r.phi_d, r.phi_r) for r in rows if math.isfinite(r.phi_d) and math.isfinite(r.phi_r)]
    for i, (d_i, r_i) in enumerate(vals):
        for d_j, r_j in vals[i + 1:]:
            if (d_i < d_j and r_i > r_j) or (d_j < d_i and r_j > r_i):
                return True
    return False

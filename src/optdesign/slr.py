"""Closed-form optimal designs and their cross-quantities for simple linear regression.

Everything on [a, b] is explicit.  With A = sqrt(a^4 + 14 a^2 b^2 + b^4):

  D-optimal:   mass 1/2 on each endpoint.
  R-optimal:   endpoints with mass p_R = 4a^2/(5a^2 + A - b^2) at b
               (1/3 if a = 0, 2/3 if b = 0; simplifies to 1/2 when b = -a).
  r2-optimal:  endpoints with mass |b|/(|a|+|b|) at a and |a|/(|a|+|b|) at b.
               For a < 0 < b this is the mean-zero member of a continuum of
               zero-correlation optima; for a = 0 or b = 0 the optimum
               degenerates to a one-point design and the slope is inestimable.

The cross-efficiencies and correlations of these designs are closed forms as
well; each is cross-checked in the tests against the design-based computation
through the generic criteria.  Two of them have guaranteed lower bounds:

  Eff_D(xi_R) >= 2*sqrt(2)/3 ~= 0.943,   Eff_R(xi_D) >= 3*sqrt(3/2)/4 ~= 0.919,

attained when one endpoint sits at zero.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

from .designs import Design, DesignSpace, Model, _csv, make_design, slr_model
from .errors import DegenerateDesignError, ValidationError

EFF_D_OF_R_MIN = 2.0 * math.sqrt(2.0) / 3.0     # 0.9428...
EFF_R_OF_D_MIN = 3.0 * math.sqrt(1.5) / 4.0     # 0.9185...
CORR_R_LIMIT = 1.0 / math.sqrt(3.0)             # 0.5773...

# Below this (relative to the width) an endpoint counts as sitting at zero;
# the general p_R formula is discontinuous there and the special branch applies.
ZERO_REL_TOL = 1e-12


@dataclass(frozen=True)
class SlrInterval:
    """Design interval [a, b] with the recurring shorthand A."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValidationError(f"interval endpoints must be finite, got [{self.a}, {self.b}]")
        if not self.a < self.b:
            raise ValidationError(f"interval needs a < b, got [{self.a}, {self.b}]")

    @property
    def A(self) -> float:
        a2, b2 = self.a * self.a, self.b * self.b
        return math.sqrt(a2 * a2 + 14.0 * a2 * b2 + b2 * b2)

    @property
    def a_is_zero(self) -> bool:
        return abs(self.a) <= ZERO_REL_TOL * (self.b - self.a)

    @property
    def b_is_zero(self) -> bool:
        return abs(self.b) <= ZERO_REL_TOL * (self.b - self.a)

    @property
    def mixed_sign(self) -> bool:
        return self.a < 0.0 < self.b and not (self.a_is_zero or self.b_is_zero)

    def space(self) -> DesignSpace:
        return DesignSpace(self.a, self.b)

    def model(self) -> Model:
        return slr_model(self.space())


def _unit_scale(interval: SlrInterval) -> SlrInterval:
    """The interval scaled by the power of two that brings max(|a|, |b|) into [1/2, 1), exactly."""
    e = -math.frexp(max(abs(interval.a), abs(interval.b)))[1]
    return SlrInterval(math.ldexp(interval.a, e), math.ldexp(interval.b, e)) if e else interval


def _scale_free(closed_form):
    """A closed form homogeneous of degree 0 in (a, b), evaluated at unit scale, where its powers of a and b
    neither overflow nor underflow."""
    @functools.wraps(closed_form)
    def on_unit_scale(interval: SlrInterval):
        return closed_form(_unit_scale(interval))
    return on_unit_scale


@_scale_free
def p_r(interval: SlrInterval) -> float:
    """Mass at b of the R-optimal design.

    Evaluated as 4(A + b^2) / (a^2 + 5A + 19 b^2), an exact rewriting of
    4a^2 / (5a^2 + A - b^2) via (A - b^2)(A + b^2) = a^4 + 14 a^2 b^2 that
    avoids the 0/0 cancellation near a = 0 and reproduces the special cases
    1/3 (a = 0) and 2/3 (b = 0) without branching.
    """
    a2, b2 = interval.a * interval.a, interval.b * interval.b
    A = interval.A
    return 4.0 * (A + b2) / (a2 + 5.0 * A + 19.0 * b2)


def _a_minus(interval: SlrInterval) -> float:
    """Stable A - b^2 = a^2 (a^2 + 14 b^2) / (A + b^2) >= 0."""
    a2, b2 = interval.a * interval.a, interval.b * interval.b
    return a2 * (a2 + 14.0 * b2) / (interval.A + b2)


@_scale_free
def p_r2(interval: SlrInterval) -> float:
    """Mass at b of the minimum-correlation endpoint design."""
    if interval.a_is_zero or interval.b_is_zero:
        raise DegenerateDesignError(
            "correlation optimum degenerates to a one-point design at zero; slope inestimable")
    aa, ab = abs(interval.a), abs(interval.b)
    return aa / (aa + ab)


def d_optimal_slr(interval: SlrInterval) -> Design:
    """Equal mass on the endpoints."""
    return make_design([(interval.a, 0.5), (interval.b, 0.5)], interval.space())


def r_optimal_slr(interval: SlrInterval) -> Design:
    p = p_r(interval)
    return make_design([(interval.a, 1.0 - p), (interval.b, p)], interval.space())


def r2_optimal_slr(interval: SlrInterval) -> Design:
    """Endpoint design with the smallest squared estimator correlation.

    For a < 0 < b the returned design is the canonical mean-zero
    representative of a non-unique optimal set (every mean-zero design has
    correlation exactly 0); ``interval.mixed_sign`` identifies that case.
    """
    p = p_r2(interval)
    return make_design([(interval.a, 1.0 - p), (interval.b, p)], interval.space())


@_scale_free
def eff_d_of_r(interval: SlrInterval) -> float:
    """D-efficiency of the R-optimal design; >= 2*sqrt(2)/3 with equality at a=0 or b=0."""
    if interval.a_is_zero or interval.b_is_zero:
        return EFF_D_OF_R_MIN
    a2 = interval.a * interval.a
    t = _a_minus(interval)  # A - b^2, computed without cancellation
    return 4.0 * abs(interval.a) * math.sqrt(a2 + t) / (5.0 * a2 + t)


@_scale_free
def eff_d_of_r2(interval: SlrInterval) -> float:
    """D-efficiency of the minimum-correlation design; 0 when an endpoint is zero."""
    if interval.a_is_zero or interval.b_is_zero:
        return 0.0
    aa, ab = abs(interval.a), abs(interval.b)
    return 2.0 * math.sqrt(aa * ab) / (aa + ab)


@_scale_free
def eff_r_of_d(interval: SlrInterval) -> float:
    """R-efficiency of the D-optimal design; >= 3*sqrt(3/2)/4 with equality at a=0 or b=0.

    The display is invariant under (a, b) -> (-b, -a); evaluation swaps into
    the better-conditioned orientation and groups the two b^-2 terms so the
    formula stays finite for small |b|.
    """
    if interval.a_is_zero or interval.b_is_zero:
        return EFF_R_OF_D_MIN
    a, b = interval.a, interval.b
    if abs(b) < abs(a):
        a, b = -b, -a
    a2, b2 = a * a, b * b
    A = math.sqrt(a2 * a2 + 14.0 * a2 * b2 + b2 * b2)
    # (a^2 + 13 b^2) A / (b^2 (a^2 + b^2)) - a^2/b^2, grouped over one denominator,
    # and (A - b^2)/a^2 = (a^2 + 14 b^2)/(A + b^2); both cancellation-free.
    grouped = ((a2 + 13.0 * b2) * A - a2 * (a2 + b2)) / (b2 * (a2 + b2))
    inner = 34.0 + grouped + (a2 + 14.0 * b2) / (A + b2)
    return math.sqrt(inner) / 8.0


@_scale_free
def eff_r_of_r2(interval: SlrInterval) -> float:
    """R-efficiency of the minimum-correlation design; 0 when an endpoint is zero."""
    if interval.a_is_zero or interval.b_is_zero:
        return 0.0
    a, b = interval.a, interval.b
    if abs(b) < abs(a):
        a, b = -b, -a
    aa, ab_ = abs(a), abs(b)
    a2, b2 = a * a, b * b
    A = math.sqrt(a2 * a2 + 14.0 * a2 * b2 + b2 * b2)
    t = a2 * (a2 + 14.0 * b2) / (A + b2)  # A - b^2 without cancellation
    # 3a^4 - b^4 + 14 a^2 b^2 + A (b^2 + 3 a^2), regrouped so the b^4 terms
    # never cancel: 3 a^2 (a^2 + A) + 14 a^2 b^2 + b^2 (A - b^2).
    inner = (ab_ / aa) * (3.0 * a2 * (a2 + A) + 14.0 * a2 * b2 + b2 * t)
    num = (A + 5.0 * b2 - a2) * math.sqrt(inner)
    den = 8.0 * math.sqrt(2.0) * b2 * (aa + ab_) ** 2
    return num / den


@_scale_free
def corr_d(interval: SlrInterval) -> float:
    """Estimator correlation under the D-optimal design: -(a+b)/sqrt(2(a^2+b^2))."""
    a, b = interval.a, interval.b
    return -(a + b) / math.sqrt(2.0 * (a * a + b * b))


@_scale_free
def corr_r(interval: SlrInterval) -> float:
    """Estimator correlation under the R-optimal design.

    At a = 0 (resp. b = 0) the display is 0/0; the one-sided limit
    -1/sqrt(3) (resp. +1/sqrt(3)) is returned.
    """
    if interval.a_is_zero:
        return -CORR_R_LIMIT
    if interval.b_is_zero:
        return CORR_R_LIMIT
    a, b = interval.a, interval.b
    a2, b2, A = a * a, b * b, interval.A
    num = abs(b) * (a2 + 4.0 * a * b + A - b2) * (-5.0 * a2 - A + b2)
    rad = 2.0 * A ** 3 - 2.0 * (a2 ** 3 - 33.0 * a2 * a2 * b2 - 33.0 * a2 * b2 * b2 + b2 ** 3)
    den = math.copysign(1.0, a) * (a2 + A - b2) * math.sqrt(rad)
    return num / den


@_scale_free
def corr_r2(interval: SlrInterval) -> float:
    """Estimator correlation under the minimum-correlation design."""
    a, b = interval.a, interval.b
    if a <= 0.0 <= b:
        return 0.0
    return -2.0 * math.sqrt(a * b) / (a + b)


@dataclass(frozen=True)
class SlrSummary:
    """One interval's closed-form designs and cross-quantities (full precision)."""

    a: float
    b: float
    p_r: float
    p_r2: float | None
    eff_d_of_r: float
    eff_d_of_r2: float
    eff_r_of_d: float
    eff_r_of_r2: float
    corr_d: float
    corr_r: float
    corr_r2: float | None
    r2_design_unique: bool


def summarize(interval: SlrInterval) -> SlrSummary:
    unit = _unit_scale(interval)  # once, so the closed forms need not rescale
    degenerate = unit.a_is_zero or unit.b_is_zero
    return SlrSummary(
        a=interval.a,
        b=interval.b,
        p_r=p_r(unit),
        p_r2=None if degenerate else p_r2(unit),
        eff_d_of_r=eff_d_of_r(unit),
        eff_d_of_r2=eff_d_of_r2(unit),
        eff_r_of_d=eff_r_of_d(unit),
        eff_r_of_r2=eff_r_of_r2(unit),
        corr_d=corr_d(unit),
        corr_r=corr_r(unit),
        corr_r2=None if degenerate else corr_r2(unit),
        r2_design_unique=not unit.mixed_sign,
    )


TABLE_COLUMNS = (
    "a", "p_R", "p_r2",
    "Eff_D(xi_R)", "Eff_D(xi_r2)", "Eff_R(xi_D)", "Eff_R(xi_r2)",
    "Corr(xi_D)", "Corr(xi_R)", "Corr(xi_r2)",
)


def table_slr(a_values: Sequence[float], b: float) -> list[SlrSummary]:
    """Summaries for a family of intervals [a, b], one row per a.

    Degenerate rows (a = 0) carry None in the undefined columns.
    """
    rows = []
    for a in a_values:
        if not a < b:
            raise ValidationError(f"every a must satisfy a < b, got a={a}, b={b}")
        rows.append(summarize(SlrInterval(float(a), float(b))))
    return rows


def _fmt(value: float | None, ndigits: int) -> str:
    if value is None:
        return ""
    v = round(value, ndigits)
    if v == 0.0:
        v = 0.0  # canonicalize -0.0
    return f"{v:.{ndigits}f}"


def table_slr_csv(rows: Sequence[SlrSummary]) -> str:
    """Render rows as CSV in the canonical column order, rounded for comparison."""
    return _csv(",".join(TABLE_COLUMNS), ((f"{r.a:g}", *(_fmt(v, 3) for v in (r.p_r, r.p_r2, r.eff_d_of_r,
        r.eff_d_of_r2, r.eff_r_of_d, r.eff_r_of_r2, r.corr_d, r.corr_r, r.corr_r2))) for r in rows))

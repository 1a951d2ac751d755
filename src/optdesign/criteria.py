"""Optimality criteria, efficiencies, correlations, and directional derivatives.

All criteria are functions of the 2x2 information matrix M, through its entries, det (passed
in, by Cauchy-Binet: ``designs._det``), tr = m11 + m22 and disc = hypot(m11 - m22, 2 m12) (numpy's):

    phi_D  = det^(-1/2)                   volume of the confidence ellipse
    phi_R  = sqrt(m11 m22) / det          sqrt({M^-1}_11 {M^-1}_22), product of variances
    phi_r2 = m12^2 / (m11 m22)            squared estimator correlation
    phi_c  = c^T M^- c                    variance of c^T theta-hat
    phi_SA = phi_c1/ref1 + phi_c2/ref2    variance sum, each term scaled by its
                                          own c-optimal value
    phi_EM = lmax^2 / det                 lambda_max / lambda_min, lmax = (tr + disc) / 2
    phi_CPB= sqrt(phi_r2)                 RMS off-diagonal correlation at p = 2
    phi_lambda = (1-l)/Eff_D + l/Eff_R    compound D/R criterion

Each formula is written once in the table ``_criterion``, a convex kind's next to its slope along a
direction, whose slope of log det the caller forms from cross products, never from the entries, where it
cancels: ``criterion_values_raw`` (the kernel) evaluates it on arrays, ``criterion_value`` and the phi_* on
an InfoMatrix's floats.  EM, lmax (lmax / det), avoids lambda_min = (tr - disc)/2, which cancels on badly
scaled columns, and squares no entry, which overflows first.  C's c^T adj(M) c = p - q, p = c1^2 m22 +
c2^2 m11, cancels where q = 2 c1 c2 m12 > 0; there it is (t^2 + 4 (c1 c2)^2 det) / (p + q),
t = c1^2 m22 - c2^2 m11: (p - q)(p + q) is that numerator, whose terms share a sign.

Reported values use C pow.  The table's operations give the same bits on
floats and on arrays, except a power: Python floats and numpy scalars take
C pow, arrays (0-d too) numpy's vectorized pow, which may differ by an ulp.
So the scalar path never builds an array, and squares are written as
products (Python's x ** 2 is C pow).  The kernel agrees with the scalar API
bit for bit on every kind but D and COMPOUND.

The head criteria satisfy phi_R^2 = phi_D^2 / (1 - phi_r2) exactly.  The
directional derivative toward the one-point design at x is the slope along
f(x) f(x)^T - M, checked against finite differences in the test suite (the
published displays of the phi_R derivative do not survive that check).

Sign convention: a directional derivative >= 0 at x means "no improvement by
moving mass toward x"; a design is optimal for a convex criterion iff its
directional derivative is nonnegative everywhere on the design space.

Singular matrices (``designs._is_singular``) map to +inf for the inverse-monotone
criteria, so optimizers reject them uniformly; the correlation-based quantities
raise instead: a correlation of a rank-deficient system is undefined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .designs import EPS, Design, InfoMatrix, Model, _cross, _csv, _fim_of, _is_singular, _regressor, fim
from .errors import SingularDesignError, ValidationError

ALL_KINDS = ("D", "R", "R2", "C", "SA", "EM", "CPB", "COMPOUND")  # in the order the CLI lists them
CONVEX_KINDS = frozenset(ALL_KINDS) - {"R2", "EM", "CPB"}

# Equivalence-theorem violation threshold, relative to the criterion value (> 0 for every convex kind).
EQUIVALENCE_TOL = 1e-6
# Equispaced points on which the certificate samples the directional derivative.
CERTIFICATE_GRID = 1000


@dataclass(frozen=True)
class CriterionSpec:
    """Selects one criterion together with its parameters.

    kind: one of ``ALL_KINDS``.
      C        needs ``c`` (nonzero finite 2-vector).
      SA       needs ``sa_refs`` (the two positive c-optimal reference values).
      COMPOUND needs ``lam`` in [0, 1] plus positive ``phi_d_star``/``phi_r_star``.
    """

    kind: str
    c: tuple[float, float] | None = None
    sa_refs: tuple[float, float] | None = None
    lam: float | None = None
    phi_d_star: float | None = None
    phi_r_star: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ALL_KINDS:
            raise ValidationError(f"unknown criterion kind {self.kind!r}; choose from {sorted(ALL_KINDS)}")
        if self.kind == "C":
            if self.c is None or len(self.c) != 2 or (self.c[0] == 0.0 and self.c[1] == 0.0):
                raise ValidationError("criterion C needs a nonzero 2-vector c")
            if not (math.isfinite(self.c[0]) and math.isfinite(self.c[1])):
                raise ValidationError(f"c must be finite, got {tuple(self.c)}")
        if self.kind == "SA":
            if self.sa_refs is None or len(self.sa_refs) != 2:
                raise ValidationError("criterion SA needs sa_refs=(ref1, ref2)")
            if not (self.sa_refs[0] > 0.0 and self.sa_refs[1] > 0.0):
                raise ValidationError(f"SA reference values must be positive, got {self.sa_refs}")
        if self.kind == "COMPOUND":
            if self.lam is None or not 0.0 <= self.lam <= 1.0:
                raise ValidationError(f"compound weight must lie in [0, 1], got {self.lam}")
            if self.phi_d_star is None or self.phi_d_star <= 0.0 \
                    or self.phi_r_star is None or self.phi_r_star <= 0.0:
                raise ValidationError("compound criterion needs positive phi_d_star and phi_r_star")

    @property
    def is_convex(self) -> bool:
        return self.kind in CONVEX_KINDS


# --- the criterion table ----------------------------------------------------

def _criterion(spec: CriterionSpec, m11, m12, m22, det, d=None) -> tuple:
    """The one table of criterion formulas: (value, slope along d or None).

    Entries and det are Python floats or float arrays; the caller masks singular matrices.  A convex kind
    gives its slope along ``d = (d11, d12, d22, dlogdet)``, dlogdet the slope of log det, which the caller
    forms from cross products; R2, CPB and EM give None.
    """
    array = isinstance(det, np.ndarray)
    sqrt, hypot = (np.sqrt, np.hypot) if array else (math.sqrt, lambda a, b: float(np.hypot(a, b)))
    kind, slope = spec.kind, None
    if d is not None:
        d11, d12, d22, dlogdet = d
        dprod = d11 * m22 + m11 * d22  # slope of m11 m22
    if kind == "D":
        value = det ** -0.5
        if d is not None:
            slope = -0.5 * value * dlogdet
    elif kind == "R":
        value = sqrt(m11 * m22) / det
        if d is not None:
            slope = value * (0.5 * dprod / (m11 * m22) - dlogdet)
    elif kind in ("R2", "CPB"):
        r2 = (m12 * m12) / (m11 * m22)
        value = r2 if kind == "R2" else sqrt(r2)
    elif kind == "C":
        c1, c2 = spec.c  # type: ignore[misc]
        q = 2.0 * c1 * c2 * m12
        value = (c1 * c1 * m22 - q + c2 * c2 * m11) / det  # (p - q) / det
        if array or q > 0.0:  # p - q cancels: (t^2 + 4 (c1 c2)^2 det) / (p + q), see the module doc
            t, pq = c1 * c1 * m22 - c2 * c2 * m11, c1 * c1 * m22 + c2 * c2 * m11 + q
            exact = t / pq * (t / det) + 4.0 * (c1 * c2) * (c1 * c2) / pq
            value = np.where(q > 0.0, exact, value) if array else exact
        if d is not None:
            slope = (c1 * c1 * d22 - 2.0 * c1 * c2 * d12 + c2 * c2 * d11) / det - value * dlogdet
    elif kind == "SA":
        ref1, ref2 = spec.sa_refs  # type: ignore[misc]
        value = (m22 / det) / ref1 + (m11 / det) / ref2
        if d is not None:
            slope = (d22 / ref1 + d11 / ref2) / det - value * dlogdet
    elif kind == "EM":
        lmax = 0.5 * (m11 + m22 + hypot(m11 - m22, 2.0 * m12))  # no lambda_min to cancel, no square to overflow
        value = lmax * (lmax / det)
    elif kind == "COMPOUND":
        lam = spec.lam  # type: ignore[assignment]
        d_part = det ** -0.5
        r_part = sqrt(m11 * m22) / det
        value = (1.0 - lam) * d_part / spec.phi_d_star + lam * r_part / spec.phi_r_star
        if d is not None:
            slope = (-0.5 * (1.0 - lam) * d_part * dlogdet / spec.phi_d_star
                     + lam * r_part * (0.5 * dprod / (m11 * m22) - dlogdet) / spec.phi_r_star)
    return value, slope


def _correlation(m11, m12, m22):
    """Signed correlation of the two estimators, -m12 / sqrt(m11 m22), on floats or arrays."""
    sqrt = np.sqrt if isinstance(m11, np.ndarray) else math.sqrt
    return -m12 / sqrt(m11 * m22)


_D, _R, _R2, _EM = (CriterionSpec(kind) for kind in ("D", "R", "R2", "EM"))


# --- scalar criterion functions ---------------------------------------------

def criterion_value(m: InfoMatrix, spec: CriterionSpec) -> float:
    """Evaluate any CriterionSpec on M; +inf when singular (C: see phi_c)."""
    if spec.kind == "C":
        return phi_c(m, spec.c)  # type: ignore[arg-type]
    if m.is_singular:
        return math.inf
    return _criterion(spec, m.m11, m.m12, m.m22, m.det)[0]


def phi_d(m: InfoMatrix) -> float:
    """D-criterion |M^-1|^(1/2); +inf when singular."""
    return criterion_value(m, _D)


def phi_r(m: InfoMatrix) -> float:
    """R-criterion sqrt({M^-1}_11 {M^-1}_22); +inf when singular."""
    return criterion_value(m, _R)


def phi_r2(m: InfoMatrix) -> float:
    """Squared correlation of the two estimators, in [0, 1]."""
    if m.is_singular:
        raise SingularDesignError("correlation is undefined for a singular information matrix")
    return criterion_value(m, _R2)


def correlation(m: InfoMatrix) -> float:
    """Signed correlation cov12 / sqrt(v1 v2); equals -m12/sqrt(m11 m22)."""
    if m.is_singular:
        raise SingularDesignError("correlation is undefined for a singular information matrix")
    return _correlation(m.m11, m.m12, m.m22)


def phi_c(m: InfoMatrix, c: Sequence[float]) -> float:
    """Generalized variance c^T M^- c, c checked by ``CriterionSpec``.

    Non-singular M: the table's value.  Singular M: c^T theta is estimable iff c lies in the range of M
    (Pukelsheim 2006, ch. 2), spanned by its larger column u when tr M > 0, that is iff ``_cross`` sets
    c x u to 0; M is then tr M times the projection on u, so the value is |c|^2 / tr M.  Else +inf.
    """
    spec = CriterionSpec("C", c=tuple(map(float, c)))
    if not m.is_singular:
        return _criterion(spec, m.m11, m.m12, m.m22, m.det)[0]
    (c1, c2), (u1, u2) = spec.c, (m.m11, m.m12) if m.m11 >= m.m22 else (m.m12, m.m22)
    return (c1 * c1 + c2 * c2) / m.trace if m.trace > 0.0 and _cross(c1 * u2, c2 * u1) == 0.0 else math.inf


def phi_sa(m: InfoMatrix, ref1: float, ref2: float) -> float:
    """Standardized variance sum phi_c1/ref1 + phi_c2/ref2; >= 2 at true references.

    +inf when singular: no rank-one M estimates both coordinates.
    """
    return criterion_value(m, CriterionSpec("SA", sa_refs=(ref1, ref2)))


def phi_em(m: InfoMatrix) -> float:
    """Condition number lambda_max / lambda_min of M; +inf when singular."""
    return criterion_value(m, _EM)


def phi_compound(m: InfoMatrix, lam: float, phi_d_star: float, phi_r_star: float) -> float:
    """Compound criterion (1-lam)/Eff_D + lam/Eff_R; >= 1 at true references; +inf when singular."""
    return criterion_value(m, CriterionSpec("COMPOUND", lam=lam, phi_d_star=phi_d_star,
                                            phi_r_star=phi_r_star))


def efficiency(kind: str, design: Design, design_star: Design, model: Model) -> float:
    """Eff(design) = phi(M(design_star)) / phi(M(design)) for kind in {D, R}.

    The caller guarantees design_star is optimal for the chosen criterion;
    values then land in (0, 1] up to numerical slack.
    """
    if kind not in ("D", "R"):
        raise ValidationError(f"efficiency is defined for kinds 'D' and 'R', got {kind!r}")
    phi = phi_d if kind == "D" else phi_r
    m = fim(model, design)
    m_star = fim(model, design_star)
    if m.is_singular or m_star.is_singular:
        raise SingularDesignError("efficiency needs non-singular designs")
    return phi(m_star) / phi(m)


# --- directional derivatives -------------------------------------------------

def _dd(spec: CriterionSpec, design: Design, F: np.ndarray, Fs: np.ndarray) -> np.ndarray:
    """The slopes along f f^T - M toward the one-point designs at regressor values F (n, 2), M formed by
    ``fim``'s own operations from the support's regressors Fs (k, 2), only for a convex kind (one with an
    equivalence theorem); their slope of log det is f^T adj(M) f / det - 2, with f^T adj(M) f =
    sum_i w_i (f_i x f)^2."""
    m = InfoMatrix(*(float(v[0]) for v in _fim_of(Fs[None], design.xs[None], design.ws[None])))
    if m.is_singular:
        raise SingularDesignError("directional derivative needs a non-singular design")
    f1, f2 = F[:, 0], F[:, 1]
    adj = design.ws @ (np.multiply.outer(Fs[:, 0], f2) - np.multiply.outer(Fs[:, 1], f1)) ** 2
    # + 0.0 turns the -0.0 slope at an exact optimum into 0.0 and leaves the rest.
    return criterion_values_raw(spec, m.m11, m.m12, m.m22, m.det, d=(
        f1 * f1 - m.m11, f1 * f2 - m.m12, f2 * f2 - m.m22, adj / m.det - 2.0))[1] + 0.0


def directional_derivative(model: Model, design: Design, x: float, spec: CriterionSpec) -> float:
    """d phi[M(design), M(one-point at x)]; >= 0 everywhere iff design is optimal."""
    F = _regressor(model, np.concatenate([[float(x)], design.xs]))
    return float(_dd(spec, design, F[:1], F[1:])[0])


@dataclass(frozen=True)
class DerivativeReport:
    """Directional derivative sampled on a grid, for equivalence-theorem checks."""

    x_grid: tuple[float, ...]
    dd_values: tuple[float, ...]
    min_dd: float
    argmin_x: float

    def passes(self, criterion_value_at_design: float) -> bool:
        return self.min_dd >= -EQUIVALENCE_TOL * abs(criterion_value_at_design)

    def to_csv(self) -> str:
        return _csv("x,dd", zip(self.x_grid, self.dd_values))


def _once(x: np.ndarray) -> np.ndarray:
    """The sorted values of x, each once (np.unique's, without the numpy.ma import it costs on first use)."""
    x = np.sort(x)
    return x[np.concatenate([[True], x[1:] != x[:-1]])]


def _sampled_report(model: Model, design: Design, dd_of) -> DerivativeReport:
    """``dd_of(F, Fs)`` at the regressors F of a ``CERTIFICATE_GRID``-point grid plus the design's support, each
    point once, Fs the support's rows of F: one regressor call."""
    grid = _once(np.concatenate([model.space.grid(CERTIFICATE_GRID), design.xs]))
    F = _regressor(model, grid)
    dd = dd_of(F, F[np.searchsorted(grid, design.xs)])
    i = int(np.argmin(dd))
    return DerivativeReport(tuple(grid.tolist()), tuple(dd.tolist()), float(dd[i]), float(grid[i]))


def derivative_report(model: Model, design: Design, spec: CriterionSpec) -> DerivativeReport:
    """The equivalence certificate of a convex kind: its directional derivative ``_dd`` on the certificate grid
    plus the support, by ``_sampled_report``, whose one regressor call also gives the support's rows of M.  Kind C
    on a singular M has no slope; where c is in M's range, ``_dual_report`` certifies the value with the dual u
    of ``_singular_c_dual`` and gamma = value^(-1/2), as ``optimize.c_optimal`` certifies its design."""
    if spec.kind == "C" and (m := fim(model, design)).is_singular and 0.0 < (value := phi_c(m, spec.c)) < math.inf:
        return _dual_report(model, design, value, _singular_c_dual(model, design, spec.c), value ** -0.5)
    return _sampled_report(model, design, lambda F, Fs: _dd(spec, design, F, Fs))


def _c_frame(c: Sequence[float]) -> tuple[int, np.ndarray, np.ndarray]:
    """e, c/|c|^2 and c_perp = (-c2, c1) of c divided by 2^e, exactly, 2^e the power of two of its largest entry."""
    e = math.frexp(max(abs(c[0]), abs(c[1])))[1]
    c1, c2 = math.ldexp(c[0], -e), math.ldexp(c[1], -e)
    return e, np.array([c1, c2]) / (c1 * c1 + c2 * c2), np.array([-c2, c1])


def _dual_report(model: Model, design: Design, value: float, u, gamma: float) -> DerivativeReport:
    """Kind C's certificate from Elfving's dual u, u^T c = 1: c^T M^- c (1 - (u^T f(x) / gamma)^2), >= 0 wherever
    |u^T f(x)| <= gamma, sampled by ``_sampled_report``."""
    return _sampled_report(model, design, lambda F, _: value * (1.0 - (F.dot(u) / gamma) ** 2) + 0.0)


def _singular_c_dual(model: Model, design: Design, c: Sequence[float]) -> np.ndarray:
    """Elfving's dual u = c/|c|^2 + t c_perp for a design whose singular M holds c in its range.  t makes u normal to
    the curve f at the first interior support point, as ``optimize._elfving`` takes it for one point; where there is
    none, or f has no slope across c there, t is ``_grid_dual``'s on the certificate grid.  c is scaled by
    ``_c_frame``, and u scaled back."""
    e, along, across = _c_frame(c)
    inner = design.xs[(model.space.lo < design.xs) & (design.xs < model.space.hi)][:1]
    df = _regressor(model, inner, True)[0] if len(inner) and model.regressor_dx is not None else np.zeros(2)
    if df @ across != 0.0:
        t = -float(df @ along) / float(df @ across)
    else:
        F = _regressor(model, model.space.grid(CERTIFICATE_GRID))
        t = _grid_dual(F @ along, b)[0] if (b := F @ across).any() else 0.0
    return np.ldexp(along + t * across, -e)


def _grid_dual(a: np.ndarray, b: np.ndarray) -> tuple[float, tuple[int, float], tuple[int, float]]:
    """min over t of max_i |a_i + t b_i|, by cutting planes: the max at t adds the
    line s (a_i + t b_i) of its row, s its sign, and t moves to where the highest
    falling and rising lines cross.  Returns t and those lines (i, s), falling
    first; a flat line (b_i = 0) at the max is both."""
    def top(t: float) -> tuple[int, float, float]:
        v = a + t * b
        i = int(np.abs(v).argmax())
        return i, (1.0 if v[i] >= 0.0 else -1.0), abs(float(v[i]))

    T = 4.0 * np.abs(a).max() / np.abs(b).max()  # at -T and T the max rises away from 0
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


# --- vectorized raw-entry evaluation (optimizer hot path) ---------------------

def criterion_values_raw(spec: CriterionSpec, m11: np.ndarray, m12: np.ndarray, m22: np.ndarray,
                         det: np.ndarray, d: Sequence[np.ndarray] | None = None,
                         ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Criterion values for arrays of matrix entries and their dets; singular matrices map to +inf.

    The R2/CPB kinds also map singular to +inf here: in an optimizer a design
    whose correlation is undefined is simply inadmissible.

    With a direction ``d = (d11, d12, d22, dlogdet)`` it returns ``(values, slopes)``,
    the table's slopes along d, for a convex kind only; singular entries get a NaN slope.
    """
    if d is not None and not spec.is_convex:
        raise ValidationError(f"criterion {spec.kind} is not convex: no slope and no certificate")
    m11, m12, m22, det = (np.asarray(v, dtype=float) for v in (m11, m12, m22, det))  # 0-d: numpy's pow
    d = None if d is None else tuple(np.asarray(v, dtype=float) for v in d)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        vals, slopes = _criterion(spec, m11, m12, m22, det, d)
    if np.count_nonzero(bad := _is_singular(det) | np.isnan(vals)):
        vals = np.where(bad, np.inf, vals)
    if d is None:
        return vals
    finite = np.isfinite(vals)
    return vals, slopes if np.count_nonzero(finite) == finite.size else np.where(finite, slopes, np.nan)

"""Criterion functions, the variance-product identity, and directional derivatives."""

from __future__ import annotations

import decimal
import math

import numpy as np
import pytest

from optdesign import (
    CriterionSpec,
    DesignSpace,
    InfoMatrix,
    Model,
    SingularDesignError,
    ValidationError,
    correlation,
    criterion_value,
    derivative_report,
    directional_derivative,
    efficiency,
    fim,
    make_design,
    phi_c,
    phi_compound,
    phi_d,
    phi_em,
    phi_r,
    phi_r2,
    phi_sa,
    slr_model,
)
import optdesign.criteria as criteria_module
import optdesign.designs as designs_module
from optdesign.criteria import criterion_values_raw
from optdesign.mm import MMParams, mm_model
from optdesign.slr import SlrInterval, d_optimal_slr, r_optimal_slr
from conftest import mixed, random_design, random_slr_model

IDENTITY = InfoMatrix(1.0, 0.0, 1.0)
HAND = InfoMatrix(1.0, 0.5, 0.5)       # det 1/4, v1 2, v2 4, cov12 -2
SINGULAR = InfoMatrix(1.0, 1.0, 1.0)


class TestScalarCriteria:
    def test_phi_d(self):
        assert phi_d(IDENTITY) == 1.0
        assert math.isclose(phi_d(HAND), 2.0, rel_tol=1e-14)
        assert phi_d(SINGULAR) == math.inf

    def test_phi_r(self):
        assert phi_r(IDENTITY) == 1.0
        assert math.isclose(phi_r(HAND), math.sqrt(8.0), rel_tol=1e-14)
        assert math.isclose(phi_r(InfoMatrix(2.0, 0.0, 0.5)), 1.0, rel_tol=1e-14)
        assert phi_r(SINGULAR) == math.inf

    def test_phi_r2(self):
        assert phi_r2(IDENTITY) == 0.0
        assert math.isclose(phi_r2(HAND), 0.5, rel_tol=1e-14)
        with pytest.raises(SingularDesignError):
            phi_r2(SINGULAR)

    def test_phi_r2_of_min_correlation_design(self):
        # {1: 5/6, 5: 1/6} on [1,5]: correlation -0.745, squared 0.555
        model = slr_model(DesignSpace(1.0, 5.0))
        m = fim(model, make_design([(1.0, 5 / 6), (5.0, 1 / 6)], model.space))
        assert abs(phi_r2(m) - 0.745 ** 2) < 1e-3
        assert math.isclose(phi_r2(m), 5.0 / 9.0, rel_tol=1e-12)

    def test_correlation_values(self):
        iv = SlrInterval(1.0, 5.0)
        m = fim(iv.model(), d_optimal_slr(iv))
        assert abs(correlation(m) - (-0.832)) < 1e-3
        sym = SlrInterval(-5.0, 5.0)
        assert abs(correlation(fim(sym.model(), d_optimal_slr(sym)))) < 1e-14
        unit = SlrInterval(0.0, 1.0)
        m01 = fim(unit.model(), d_optimal_slr(unit))
        assert abs(correlation(m01) - (-1 / math.sqrt(2))) < 1e-12
        with pytest.raises(SingularDesignError):
            correlation(SINGULAR)

    def test_correlation_squared_equals_phi_r2(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            model = random_slr_model(rng)
            m = fim(model, random_design(model, rng))
            if m.is_singular:
                continue
            assert abs(correlation(m) ** 2 - phi_r2(m)) <= 1e-12

    def test_phi_c(self):
        assert phi_c(IDENTITY, (1.0, 0.0)) == 1.0
        assert math.isclose(phi_c(HAND, (0.0, 1.0)), 4.0, rel_tol=1e-14)
        assert phi_c(SINGULAR, (1.0, -1.0)) == math.inf      # not estimable
        assert math.isclose(phi_c(SINGULAR, (1.0, 1.0)), 1.0, rel_tol=1e-12)  # estimable
        with pytest.raises(ValidationError):
            phi_c(IDENTITY, (0.0, 0.0))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("c", [(math.nan, 1.0), (math.inf, 1.0)])
    @pytest.mark.parametrize("m", [IDENTITY, SINGULAR])
    def test_phi_c_rejects_a_non_finite_c(self, m, c):
        # c is checked once, by CriterionSpec, on singular and non-singular M alike.
        with pytest.raises(ValidationError, match="c must be finite"):
            phi_c(m, c)

    @pytest.mark.parametrize("e1, e2", [(0, 0), (-300, -300), (300, 300), (-300, 300), (300, -300), (-150, 200)])
    def test_phi_c_estimability_on_rank_one_m_is_the_cross_product_rule(self, e1, e2):
        # M = f f^T from a one-point design, columns scaled by 2^e1 and 2^e2: c parallel to f is
        # estimable with c^T M^- c = |c|^2 / tr M (9 for c = 3 f), and c rotated by 1e-12 off f is not,
        # at every column scale; a tolerance of 1e-9 |c| on c x u accepted the rotated c.
        s = np.array([2.0 ** e1, 2.0 ** e2])
        model = Model("scaled", DesignSpace(1.0, 3.0), lambda x: slr_model(DesignSpace(1.0, 3.0)).regressor(x) * s)
        m, f = fim(model, make_design([(1.7, 1.0)], model.space)), model.regressor(np.array([1.7]))[0]
        assert m.is_singular
        c = 3.0 * f
        assert math.isclose(phi_c(m, c), 9.0, rel_tol=1e-12)
        rot = np.array([[math.cos(1e-12), -math.sin(1e-12)], [math.sin(1e-12), math.cos(1e-12)]])
        assert phi_c(m, rot @ c) == math.inf

    def test_phi_sa(self):
        assert phi_sa(IDENTITY, 1.0, 1.0) == 2.0
        with pytest.raises(ValidationError):
            phi_sa(IDENTITY, 0.0, 1.0)

    def test_phi_em(self):
        assert phi_em(IDENTITY) == 1.0
        assert math.isclose(phi_em(InfoMatrix(2.0, 0.0, 0.5)), 4.0, rel_tol=1e-14)
        assert phi_em(SINGULAR) == math.inf

    def test_phi_em_at_least_one_equality_iff_spherical(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            d1, d2 = rng.uniform(0.1, 3.0, 2)
            m = InfoMatrix(float(d1), 0.0, float(d2))
            assert phi_em(m) >= 1.0
            if abs(d1 - d2) > 1e-9:
                assert phi_em(m) > 1.0
        assert phi_em(InfoMatrix(2.5, 0.0, 2.5)) == 1.0

    def test_phi_compound(self):
        iv = SlrInterval(1.0, 5.0)
        model = iv.model()
        m_d = fim(model, d_optimal_slr(iv))
        m_r = fim(model, r_optimal_slr(iv))
        d_star, r_star = phi_d(m_d), phi_r(m_r)
        assert math.isclose(phi_compound(m_d, 0.0, d_star, r_star), 1.0, rel_tol=1e-12)
        assert math.isclose(phi_compound(m_r, 1.0, d_star, r_star), 1.0, rel_tol=1e-12)
        # Half-and-half at the D-optimum: 0.5 + 0.5/Eff_R(xi_D) = 0.5 + 0.5/0.934
        assert abs(phi_compound(m_d, 0.5, d_star, r_star) - 1.035) < 1e-3
        with pytest.raises(ValidationError):
            phi_compound(m_d, 1.5, d_star, r_star)


class TestEfficiency:
    def test_cross_efficiencies_on_1_5(self, slr_15):
        iv = SlrInterval(1.0, 5.0)
        xi_d, xi_r = d_optimal_slr(iv), r_optimal_slr(iv)
        assert abs(efficiency("D", xi_r, xi_d, slr_15) - 0.958) < 1e-3
        assert abs(efficiency("R", xi_d, xi_r, slr_15) - 0.934) < 1e-3
        assert math.isclose(efficiency("D", xi_d, xi_d, slr_15), 1.0, rel_tol=1e-12)

    def test_rejects_singular_and_bad_kind(self, slr_15):
        iv = SlrInterval(1.0, 5.0)
        one_pt = make_design([(1.0, 1.0)], slr_15.space)
        with pytest.raises(SingularDesignError):
            efficiency("D", one_pt, d_optimal_slr(iv), slr_15)
        with pytest.raises(ValidationError):
            efficiency("E", d_optimal_slr(iv), d_optimal_slr(iv), slr_15)


class TestIdentityAndConvexity:
    def test_variance_product_identity_random(self):
        # phi_R^2 = phi_D^2 / (1 - phi_r2) on random designs of both models
        rng = np.random.default_rng(21)
        mm = mm_model(MMParams(eps=0.05))
        count = 0
        while count < 1000:
            model = mm if count % 2 else random_slr_model(rng)
            m = fim(model, random_design(model, rng))
            if m.is_singular:
                continue
            lhs = phi_r(m) ** 2
            rhs = phi_d(m) ** 2 / (1.0 - phi_r2(m))
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))
            count += 1

    def test_phi_r_squared_midpoint_convexity(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            model = random_slr_model(rng)
            m1 = fim(model, random_design(model, rng))
            m2 = fim(model, random_design(model, rng))
            if m1.is_singular or m2.is_singular:
                continue
            alpha = float(rng.uniform(0.05, 0.95))
            mix = mixed(m1, m2, alpha)
            lhs = phi_r(mix) ** 2
            rhs = (1 - alpha) * phi_r(m1) ** 2 + alpha * phi_r(m2) ** 2
            assert lhs <= rhs + 1e-10 * max(1.0, abs(rhs))

    def test_loewner_monotone_in_added_information(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            model = random_slr_model(rng)
            m = fim(model, random_design(model, rng))
            if m.is_singular:
                continue
            x = float(rng.uniform(model.space.lo, model.space.hi))
            f = model.regressor(np.array([x]))[0]
            eps = 0.01
            bigger = InfoMatrix(m.m11 + eps * f[0] * f[0],
                                m.m12 + eps * f[0] * f[1],
                                m.m22 + eps * f[1] * f[1])
            assert phi_d(bigger) <= phi_d(m) + 1e-12
            assert phi_r(bigger) <= phi_r(m) + 1e-12

    def test_inverse_homogeneity(self):
        rng = np.random.default_rng(24)
        for _ in range(30):
            model = random_slr_model(rng)
            m = fim(model, random_design(model, rng))
            if m.is_singular:
                continue
            lam = float(rng.uniform(0.1, 10.0))
            scaled = InfoMatrix(m.m11 * lam, m.m12 * lam, m.m22 * lam)
            assert abs(phi_d(scaled) - phi_d(m) / lam) <= 1e-12 * phi_d(m) / lam
            assert abs(phi_r(scaled) - phi_r(m) / lam) <= 1e-12 * phi_r(m) / lam


class TestDirectionalDerivatives:
    def test_dd_d_zero_at_d_optimal_support(self):
        for a, b in [(1.0, 5.0), (-1.0, 1.0), (-3.0, 0.5)]:
            iv = SlrInterval(a, b)
            model = iv.model()
            xi = d_optimal_slr(iv)
            assert abs(directional_derivative(model, xi, a, CriterionSpec("D"))) <= 1e-9
            assert abs(directional_derivative(model, xi, b, CriterionSpec("D"))) <= 1e-9

    def test_dd_d_interior_value(self):
        iv = SlrInterval(-1.0, 1.0)
        model = iv.model()
        # M = I, phi_D = 1; dd at 0 is (1/2)(2 - f M^-1 f) = 0.5
        dd = directional_derivative(model, d_optimal_slr(iv), 0.0, CriterionSpec("D"))
        assert math.isclose(dd, 0.5, rel_tol=1e-12)

    def test_dd_r_zero_at_r_optimal_support(self):
        iv = SlrInterval(1.0, 5.0)
        model = iv.model()
        xi = r_optimal_slr(iv)
        assert abs(directional_derivative(model, xi, 1.0, CriterionSpec("R"))) <= 1e-6
        assert abs(directional_derivative(model, xi, 5.0, CriterionSpec("R"))) <= 1e-6

    def test_dd_r_positive_inside_symmetric_interval(self):
        iv = SlrInterval(-2.0, 2.0)
        assert directional_derivative(iv.model(), r_optimal_slr(iv), 0.0, CriterionSpec("R")) > 0.0

    @pytest.mark.parametrize("kind", ["D", "R", "C", "SA", "COMPOUND"])
    def test_matches_finite_difference_quotient(self, kind):
        # The defining quotient with alpha = 1e-6 arbitrates the formulas.
        rng = np.random.default_rng(31)
        mm = mm_model(MMParams(eps=0.2))
        spec = {
            "C": CriterionSpec("C", c=(1.0, 0.5)),
            "SA": CriterionSpec("SA", sa_refs=(2.0, 0.5)),
            "COMPOUND": CriterionSpec("COMPOUND", lam=0.5, phi_d_star=1.0, phi_r_star=2.0),
        }.get(kind) or CriterionSpec(kind)

        def phi(m):
            return criterion_value(m, spec)

        checked = 0
        while checked < 40:
            model = mm if checked % 2 else random_slr_model(rng, min_width=2.0)
            design = random_design(model, rng, min_sep_rel=0.15, w_floor=0.4)
            m = fim(model, design)
            if m.is_singular:
                continue
            x = float(rng.uniform(model.space.lo, model.space.hi))
            an = directional_derivative(model, design, x, spec)
            if abs(an) < 0.02 * phi(m):
                continue  # relative comparison needs a non-vanishing target
            f = model.regressor(np.array([x]))[0]
            mx = InfoMatrix(f[0] * f[0], f[0] * f[1], f[1] * f[1])
            alpha = 1e-6
            fd = (phi(mixed(m, mx, alpha)) - phi(m)) / alpha
            assert abs(an - fd) <= 1e-4 * abs(fd)
            checked += 1

    def test_equivalence_grid_property(self):
        # dd >= -1e-6 (scaled) across the space, and ~0 at optimal supports
        for a, b in [(1.0, 5.0), (-2.0, 3.0), (-1.0, 0.5)]:
            iv = SlrInterval(a, b)
            model = iv.model()
            for spec, xi in [(CriterionSpec("D"), d_optimal_slr(iv)),
                             (CriterionSpec("R"), r_optimal_slr(iv))]:
                rep = derivative_report(model, xi, spec)
                val = criterion_value(fim(model, xi), spec)
                assert rep.min_dd >= -1e-6 * val

    def test_nonconvex_refused(self, slr_15):
        iv = SlrInterval(1.0, 5.0)
        with pytest.raises(ValidationError):
            directional_derivative(slr_15, d_optimal_slr(iv), 2.0, CriterionSpec("R2"))

    def test_singular_design_rejected(self, slr_15):
        one_pt = make_design([(2.0, 1.0)], slr_15.space)
        with pytest.raises(SingularDesignError):
            directional_derivative(slr_15, one_pt, 3.0, CriterionSpec("D"))

    @pytest.mark.parametrize("name", ["slr", "mm"])
    @pytest.mark.parametrize("kind", ["D", "R", "SA"])
    def test_report_evaluates_the_regressor_once(self, monkeypatch, name, kind):
        # The certificate's evaluation budget: the grid pass holds every support point, so M is formed
        # from its rows, without a second regressor call or a call of designs.fim.
        base = slr_model(DesignSpace(1.0, 5.0)) if name == "slr" else mm_model(MMParams(eps=0.5))
        calls = {"regressor": 0, "fim": 0}

        def counted(key, f):
            def wrapper(*args):
                calls[key] += 1
                return f(*args)
            return wrapper

        model = Model(base.name, base.space, counted("regressor", base.regressor))
        for module in (criteria_module, designs_module):
            monkeypatch.setattr(module, "fim", counted("fim", designs_module.fim))
        spec = CriterionSpec(kind, sa_refs=(1.0, 1.0) if kind == "SA" else None)
        lo, width = base.space.lo, base.space.width
        derivative_report(model, make_design([(lo + 0.1 * width, 0.4), (lo + 0.6 * width, 0.2),
                                              (base.space.hi, 0.4)], base.space), spec)
        assert calls == {"regressor": 1, "fim": 0}

    def test_report_internal_consistency(self, slr_15):
        iv = SlrInterval(1.0, 5.0)
        rep = derivative_report(slr_15, r_optimal_slr(iv), CriterionSpec("R"))
        assert rep.min_dd == min(rep.dd_values)
        assert rep.argmin_x in rep.x_grid
        lines = rep.to_csv().strip().splitlines()
        assert lines[0] == "x,dd"
        assert len(lines) == len(rep.x_grid) + 1


class TestCriterionSpec:
    def test_validation(self):
        with pytest.raises(ValidationError):
            CriterionSpec("X")
        with pytest.raises(ValidationError):
            CriterionSpec("C")
        with pytest.raises(ValidationError):
            CriterionSpec("C", c=(0.0, 0.0))
        with pytest.raises(ValidationError):
            CriterionSpec("SA", sa_refs=(1.0, -1.0))
        with pytest.raises(ValidationError):
            CriterionSpec("COMPOUND", lam=2.0, phi_d_star=1.0, phi_r_star=1.0)

    def test_dispatch_matches_direct_functions(self):
        m = HAND
        assert criterion_value(m, CriterionSpec("D")) == phi_d(m)
        assert criterion_value(m, CriterionSpec("R")) == phi_r(m)
        assert criterion_value(m, CriterionSpec("R2")) == phi_r2(m)
        assert criterion_value(m, CriterionSpec("EM")) == phi_em(m)
        assert criterion_value(m, CriterionSpec("CPB")) == math.sqrt(phi_r2(m))
        assert criterion_value(m, CriterionSpec("C", c=(0.0, 1.0))) == phi_c(m, (0.0, 1.0))

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(41)
        mats = []
        while len(mats) < 50:
            model = random_slr_model(rng)
            m = fim(model, random_design(model, rng))
            mats.append(m)
        m11 = np.array([m.m11 for m in mats])
        m12 = np.array([m.m12 for m in mats])
        m22 = np.array([m.m22 for m in mats])
        det = np.array([m.det for m in mats])
        for spec in [CriterionSpec("D"), CriterionSpec("R"), CriterionSpec("EM"),
                     CriterionSpec("C", c=(1.0, -0.5)),
                     CriterionSpec("SA", sa_refs=(2.0, 3.0)),
                     CriterionSpec("COMPOUND", lam=0.3, phi_d_star=1.0, phi_r_star=1.0)]:
            vec = criterion_values_raw(spec, m11, m12, m22, det)
            for i, m in enumerate(mats):
                ref = criterion_value(m, spec)
                if math.isinf(ref):
                    assert math.isinf(vec[i])
                else:
                    assert abs(vec[i] - ref) <= 1e-12 * max(1.0, abs(ref))


def column_scaled(rng, n, log_scale):
    """Entries of n matrices S M0 S with S = diag(s1, s2), log s_i uniform in
    [-log_scale, log_scale] and M0 a random positive definite matrix."""
    A = rng.normal(size=(n, 2, 2))
    M0 = A @ np.transpose(A, (0, 2, 1)) + 0.1 * np.eye(2)
    s1, s2 = np.exp(rng.uniform(-log_scale, log_scale, (2, n)))
    return s1 * s1 * M0[:, 0, 0], s1 * s2 * M0[:, 0, 1], s2 * s2 * M0[:, 1, 1]


@pytest.mark.parametrize("spec", [
    CriterionSpec("R"), CriterionSpec("R2"), CriterionSpec("CPB"),
    CriterionSpec("C", c=(1.0, -0.5)), CriterionSpec("SA", sa_refs=(2.0, 3.0)),
    CriterionSpec("EM")], ids=lambda s: s.kind)
def test_scalar_value_is_the_kernel_value_bit_for_bit(spec):
    m11, m12, m22 = column_scaled(np.random.default_rng(23), 12000, 6.0)
    mats = [InfoMatrix(*row) for row in zip(m11.tolist(), m12.tolist(), m22.tolist())]
    keep = [i for i, m in enumerate(mats) if not m.is_singular]
    assert len(keep) >= 10_000
    det = np.array([mats[i].det for i in keep])
    vec = criterion_values_raw(spec, m11[keep], m12[keep], m22[keep], det).tolist()
    assert [criterion_value(mats[i], spec) for i in keep] == vec


def test_em_survives_column_scaling():
    # (tr + disc)^2 / (4 det) against lambda_max / lambda_min of the same
    # float entries in 50-digit decimal arithmetic; lambda_min = (tr - disc) / 2
    # cancels on badly scaled columns, det = m11 m22 (1 - r^2) does not.
    rng = np.random.default_rng(29)
    s1, s2 = 10.0 ** rng.uniform(-4.0, 4.0, (2, 3000))
    r = rng.uniform(-0.9, 0.9, 3000)
    ctx = decimal.Context(prec=50)
    checked = 0
    for m11, m12, m22 in zip((s1 * s1).tolist(), (r * s1 * s2).tolist(), (s2 * s2).tolist()):
        m = InfoMatrix(m11, m12, m22)
        assert not m.is_singular  # 1 - r^2 >= 0.19, at every scale
        a, b, c = (decimal.Decimal(v) for v in (m11, m12, m22))
        tr = ctx.add(a, c)
        disc = ctx.sqrt(ctx.add(ctx.multiply(ctx.subtract(a, c), ctx.subtract(a, c)),
                                ctx.multiply(4, ctx.multiply(b, b))))
        ref = float(ctx.divide(ctx.add(tr, disc), ctx.subtract(tr, disc)))
        assert abs(phi_em(m) - ref) <= 1e-13 * ref
        checked += 1
    assert checked == 3000


RAW_SPECS = [CriterionSpec("D"), CriterionSpec("R"), CriterionSpec("R2"), CriterionSpec("CPB"),
             CriterionSpec("C", c=(1.0, -0.5)), CriterionSpec("SA", sa_refs=(2.0, 3.0)),
             CriterionSpec("EM"),
             CriterionSpec("COMPOUND", lam=0.3, phi_d_star=0.8, phi_r_star=1.1)]
# Only the convex kinds have a slope: nothing searches R2, CPB and EM.
SLOPE_SPECS = [spec for spec in RAW_SPECS if spec.is_convex]


def with_det(m11, m12, m22):
    """Entries and det of matrices known by their entries alone, as ``InfoMatrix`` derives it."""
    return m11, m12, m22, m11 * m22 - m12 * m12


class TestRawSlopes:
    H = 3e-6  # central finite-difference step

    def sample(self, n=200):
        # Directions d = (d11, d12, d22, slope of log det), the last formed from the entries, as the reference.
        rng = np.random.default_rng(17)
        A = rng.normal(size=(n, 2, 2))
        M = A @ np.transpose(A, (0, 2, 1)) + 0.2 * np.eye(2)  # det >= 0.04
        (m11, m12, m22, det), d = with_det(M[:, 0, 0], M[:, 0, 1], M[:, 1, 1]), rng.normal(size=(3, n))
        return (m11, m12, m22, det), np.vstack([d, (d[0] * m22 + m11 * d[2] - 2.0 * m12 * d[1]) / det])

    def shifted(self, spec, m, d, h):
        return criterion_values_raw(spec, *with_det(*(mi + h * di for mi, di in zip(m[:3], d[:3]))))

    @pytest.mark.parametrize("spec", SLOPE_SPECS, ids=lambda s: s.kind)
    def test_slope_matches_finite_difference(self, spec):
        m, d = self.sample()
        values, slopes = criterion_values_raw(spec, *m, d=d)
        assert np.array_equal(values, criterion_values_raw(spec, *m))
        fd = (self.shifted(spec, m, d, self.H) - self.shifted(spec, m, d, -self.H)) / (2.0 * self.H)
        # Relative, except for slopes so near 0 that the difference is rounding.
        assert np.all(np.abs(slopes - fd) <= 1e-6 * np.maximum(np.abs(fd), 1e-2))

    @pytest.mark.parametrize("spec", RAW_SPECS, ids=lambda s: s.kind)
    def test_one_matrix_is_a_row_of_the_batch(self, spec):
        # The certificate passes one matrix as floats; it must take the
        # batch's power too, not C pow on numpy scalars.
        m, d = self.sample(2000)
        if not spec.is_convex:  # values only
            values = criterion_values_raw(spec, *m).tolist()
            assert [float(criterion_values_raw(spec, *(float(mi[i]) for mi in m))) for i in range(2000)] == values
            return
        values, slopes = criterion_values_raw(spec, *m, d=d)
        for i in range(2000):
            v, s = criterion_values_raw(spec, *(float(mi[i]) for mi in m), d=d[:, i:i + 1])
            assert (float(v), s[0]) == (values[i], slopes[i])

    @pytest.mark.parametrize("spec", RAW_SPECS, ids=lambda s: s.kind)
    def test_singular_rows(self, spec):
        f = np.array([[1.0, 2.0], [0.5, -0.3], [0.0, 1.0]])  # rank-one M = f f^T, det 0
        m = (f[:, 0] ** 2, f[:, 0] * f[:, 1], f[:, 1] ** 2, np.zeros(3))
        assert np.all(criterion_values_raw(spec, *m) == np.inf)
        if not spec.is_convex:
            with pytest.raises(ValidationError, match="is not convex"):
                criterion_values_raw(spec, *m, d=np.ones((4, 3)))
            return
        values, slopes = criterion_values_raw(spec, *m, d=np.ones((4, 3)))
        assert np.all(values == np.inf)
        assert np.all(np.isnan(slopes))

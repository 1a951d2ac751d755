"""Closed-form simple-linear-regression designs against theory and oracles."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from optdesign import (
    DegenerateDesignError,
    SlrInterval,
    ValidationError,
    correlation,
    efficiency,
    fim,
    make_design,
    phi_d,
    phi_r,
    phi_r2,
)
from optdesign.criteria import CriterionSpec
from optdesign.optimize import optimize_weights
from optdesign.slr import (
    CORR_R_LIMIT,
    EFF_D_OF_R_MIN,
    EFF_R_OF_D_MIN,
    corr_d,
    corr_r,
    corr_r2,
    d_optimal_slr,
    eff_d_of_r,
    eff_d_of_r2,
    eff_r_of_d,
    eff_r_of_r2,
    p_r,
    p_r2,
    r2_optimal_slr,
    r_optimal_slr,
    summarize,
    table_slr,
    table_slr_csv,
)

# Published reference values for intervals [a, 5]:
# (p_R, p_r2, Eff_D(xi_R), Eff_D(xi_r2), Eff_R(xi_D), Eff_R(xi_r2), Corr_D, Corr_R, Corr_r2)
REFERENCE_B5 = {
    3.0:  (0.439, 0.375, 0.992, 0.968, 0.986, 0.984, -0.970, -0.969, -0.968),
    1.0:  (0.356, 0.167, 0.958, 0.745, 0.934, 0.837, -0.832, -0.785, -0.745),
    0.5:  (0.340, 0.0909, 0.947, 0.575, 0.923, 0.686, -0.774, -0.689, -0.575),
    0.2:  (0.334, 0.0385, 0.944, 0.385, 0.919, 0.481, -0.735, -0.623, -0.385),
    -0.2: (0.334, 0.0385, 0.944, 0.385, 0.919, 0.481, -0.678, -0.531, 0.0),
    -0.5: (0.340, 0.0909, 0.947, 0.575, 0.923, 0.686, -0.633, -0.465, 0.0),
    -1.0: (0.356, 0.167, 0.958, 0.745, 0.934, 0.837, -0.555, -0.367, 0.0),
    -3.0: (0.439, 0.375, 0.992, 0.968, 0.986, 0.984, -0.243, -0.127, 0.0),
    -5.0: (0.500, 0.500, 1.000, 1.000, 1.000, 1.000, 0.0, 0.0, 0.0),
}


def random_intervals(rng, n, min_conditioning=1e-3):
    out = []
    while len(out) < n:
        a = float(rng.uniform(-6, 6))
        b = a + float(rng.uniform(0.1, 8))
        if min(abs(a), abs(b)) < min_conditioning * (b - a):
            continue
        out.append(SlrInterval(a, b))
    return out


class TestClosedFormDesigns:
    def test_d_optimal(self):
        assert d_optimal_slr(SlrInterval(-1, 1)).points == ((-1.0, 0.5), (1.0, 0.5))
        assert d_optimal_slr(SlrInterval(1, 5)).points == ((1.0, 0.5), (5.0, 0.5))

    def test_p_r_values(self):
        assert abs(p_r(SlrInterval(1, 5)) - 0.356) < 1e-3
        assert math.isclose(p_r(SlrInterval(-5, 5)), 0.5, rel_tol=1e-12)
        assert math.isclose(p_r(SlrInterval(0, 5)), 1 / 3, rel_tol=1e-12)
        assert math.isclose(p_r(SlrInterval(-5, 0)), 2 / 3, rel_tol=1e-12)

    def test_r_optimal_weights_match_numeric_oracle(self):
        # golden-section weight optimization over endpoint designs
        for a, b in [(1.0, 5.0), (-2.0, 3.0), (0.0, 5.0), (-4.0, -0.5)]:
            iv = SlrInterval(a, b)
            ws = optimize_weights(iv.model(), (a, b), CriterionSpec("R"))
            assert abs(ws[1] - p_r(iv)) < 1e-6

    def test_r2_same_sign_weights(self):
        xi = r2_optimal_slr(SlrInterval(1, 5))
        assert np.allclose(xi.ws, [5 / 6, 1 / 6], atol=1e-12)
        assert abs(p_r2(SlrInterval(1, 5)) - 0.167) < 1e-3

    def test_r2_mixed_sign_is_mean_zero(self):
        iv = SlrInterval(-1, 5)
        xi = r2_optimal_slr(iv)
        assert np.allclose(xi.ws, [5 / 6, 1 / 6], atol=1e-12)
        assert abs(xi.xs @ xi.ws) < 1e-12
        assert abs(correlation(fim(iv.model(), xi))) < 1e-12
        assert not summarize(iv).r2_design_unique

    def test_r2_degenerate_raises(self):
        with pytest.raises(DegenerateDesignError):
            r2_optimal_slr(SlrInterval(0, 5))
        with pytest.raises(DegenerateDesignError):
            r2_optimal_slr(SlrInterval(-5, 0))


class TestReferenceValues:
    @pytest.mark.parametrize("a", sorted(REFERENCE_B5))
    def test_row_matches_reference(self, a):
        want = REFERENCE_B5[a]
        s = summarize(SlrInterval(a, 5.0))
        got = (s.p_r, s.p_r2, s.eff_d_of_r, s.eff_d_of_r2,
               s.eff_r_of_d, s.eff_r_of_r2, s.corr_d, s.corr_r, s.corr_r2)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-3


class TestCrossChecks:
    @pytest.mark.parametrize("e", [-300, 300])
    def test_closed_forms_are_free_of_scale(self, e):
        # Each closed form is homogeneous of degree 0 in (a, b).  Written in a^4 and
        # a^6, p_R once divided 0 by 0 at 2^-300 and Corr(xi_R) overflowed at 2^300.
        fixed = [SlrInterval(a, b) for a, b in [(-1.3, 4.2), (1.0, 3.0), (-5.0, -0.5), (0.0, 2.0), (-2.0, 0.0)]]
        for iv in fixed + random_intervals(np.random.default_rng(23), 40):
            far = summarize(SlrInterval(math.ldexp(iv.a, e), math.ldexp(iv.b, e)))
            assert replace(far, a=iv.a, b=iv.b) == summarize(iv), iv

    def test_formulas_equal_design_based_quantities(self):
        rng = np.random.default_rng(77)
        for iv in random_intervals(rng, 60):
            model = iv.model()
            xi_d, xi_r, xi_r2 = d_optimal_slr(iv), r_optimal_slr(iv), r2_optimal_slr(iv)
            assert abs(eff_d_of_r(iv) - efficiency("D", xi_r, xi_d, model)) <= 1e-9
            assert abs(eff_d_of_r2(iv) - efficiency("D", xi_r2, xi_d, model)) <= 1e-9
            assert abs(eff_r_of_d(iv) - efficiency("R", xi_d, xi_r, model)) <= 1e-9
            assert abs(eff_r_of_r2(iv) - efficiency("R", xi_r2, xi_r, model)) <= 1e-9
            assert abs(corr_d(iv) - correlation(fim(model, xi_d))) <= 1e-9
            assert abs(corr_r(iv) - correlation(fim(model, xi_r))) <= 1e-9
            assert abs(corr_r2(iv) - correlation(fim(model, xi_r2))) <= 1e-9

    def test_zero_endpoint_branches_match_designs(self):
        for a, b in [(0.0, 5.0), (-5.0, 0.0), (0.0, 1.0), (-1.0, 0.0)]:
            iv = SlrInterval(a, b)
            model = iv.model()
            xi_d, xi_r = d_optimal_slr(iv), r_optimal_slr(iv)
            assert abs(eff_d_of_r(iv) - efficiency("D", xi_r, xi_d, model)) <= 1e-12
            assert abs(eff_r_of_d(iv) - efficiency("R", xi_d, xi_r, model)) <= 1e-12
            assert abs(corr_r(iv) - correlation(fim(model, xi_r))) <= 1e-12
            assert abs(corr_r(iv)) == CORR_R_LIMIT  # the one-sided limit
            assert eff_d_of_r2(iv) == 0.0 and eff_r_of_r2(iv) == 0.0

    def test_proposition_bounds(self):
        rng = np.random.default_rng(78)
        for iv in random_intervals(rng, 200):
            assert eff_d_of_r(iv) >= EFF_D_OF_R_MIN - 1e-9
            assert eff_r_of_d(iv) >= EFF_R_OF_D_MIN - 1e-9
        # bounds attained when an endpoint sits at zero
        assert abs(eff_d_of_r(SlrInterval(0.0, 1.0)) - 0.943) <= 1e-3
        assert abs(eff_r_of_d(SlrInterval(-1.0, 0.0)) - 0.919) <= 1e-3

    def test_limits_as_interval_becomes_symmetric(self):
        a = -2.0
        iv = SlrInterval(a, -a * (1 + 1e-6))
        assert abs(eff_d_of_r(iv) - 1.0) < 1e-6
        assert abs(eff_r_of_d(iv) - 1.0) < 1e-6
        assert abs(corr_d(iv)) < 1e-5 and abs(corr_r(iv)) < 1e-5

    def test_corr_r_one_sided_limits(self):
        assert math.isclose(corr_r(SlrInterval(0.0, 3.0)), -0.577, abs_tol=1e-3)
        assert math.isclose(corr_r(SlrInterval(-3.0, 0.0)), 0.577, abs_tol=1e-3)

    def test_sign_symmetry(self):
        # x -> -x maps [a, b] onto [-b, -a] and sends the mass at b to the
        # lower endpoint, so the flipped interval has p_R' = 1 - p_R.
        rng = np.random.default_rng(79)
        for iv in random_intervals(rng, 40):
            flipped = SlrInterval(-iv.b, -iv.a)
            assert abs(p_r(flipped) - (1.0 - p_r(iv))) <= 1e-10
            assert abs(eff_d_of_r(iv) - eff_d_of_r(flipped)) <= 1e-12
            assert abs(eff_r_of_d(iv) - eff_r_of_d(flipped)) <= 1e-10
            assert abs(corr_d(iv) + corr_d(flipped)) <= 1e-12
            assert abs(corr_r(iv) + corr_r(flipped)) <= 1e-10
            assert abs(corr_r2(iv) + corr_r2(flipped)) <= 1e-12

    def test_mean_zero_designs_have_equal_d_and_r(self):
        # On mixed-sign intervals, every mean-zero design has correlation 0,
        # where the D- and R-criteria coincide.
        rng = np.random.default_rng(80)
        iv = SlrInterval(-2.0, 5.0)
        model = iv.model()
        for _ in range(25):
            x_neg = float(rng.uniform(-2.0, -0.1))
            x_pos = float(rng.uniform(0.1, 5.0))
            w_neg = x_pos / (x_pos - x_neg)
            xi = make_design([(x_neg, w_neg), (x_pos, 1.0 - w_neg)], model.space)
            m = fim(model, xi)
            assert abs(xi.xs @ xi.ws) < 1e-12
            assert abs(phi_r2(m)) < 1e-20
            assert abs(phi_d(m) - phi_r(m)) <= 1e-10 * phi_d(m)


class TestBruteForceOracle:
    def _oracle_mins(self, iv, n_x=120, n_w=80):
        """Independent grid search over two-point designs via raw SLR moments."""
        xs = np.linspace(iv.a, iv.b, n_x)
        i, j = np.triu_indices(n_x, k=1)
        x1, x2 = xs[i], xs[j]
        best_d = best_r = best_r2 = np.inf
        for w in np.linspace(1.0 / (n_w + 1), n_w / (n_w + 1.0), n_w):
            xbar = w * x1 + (1 - w) * x2
            x2bar = w * x1 ** 2 + (1 - w) * x2 ** 2
            s2 = x2bar - xbar ** 2
            ok = s2 > 1e-12
            best_d = min(best_d, float(np.min(np.where(ok, s2, np.inf) ** -0.5)))
            best_r = min(best_r, float(np.min(np.where(ok, np.sqrt(x2bar) / np.where(ok, s2, 1.0), np.inf))))
            best_r2 = min(best_r2, float(np.min(np.where(ok, xbar ** 2 / x2bar, np.inf))))
        return best_d, best_r, best_r2

    def test_closed_forms_never_beaten(self):
        rng = np.random.default_rng(81)
        for iv in random_intervals(rng, 5, min_conditioning=0.02):
            model = iv.model()
            o_d, o_r, o_r2 = self._oracle_mins(iv)
            assert phi_d(fim(model, d_optimal_slr(iv))) <= o_d + 1e-6
            assert phi_r(fim(model, r_optimal_slr(iv))) <= o_r + 1e-6
            assert phi_r2(fim(model, r2_optimal_slr(iv))) <= o_r2 + 1e-6


class TestTable:
    def test_shape_and_columns(self):
        rows = table_slr([3, 1, -1], 5.0)
        assert len(rows) == 3
        csv = table_slr_csv(rows)
        header = csv.splitlines()[0]
        assert header == ("a,p_R,p_r2,Eff_D(xi_R),Eff_D(xi_r2),Eff_R(xi_D),"
                          "Eff_R(xi_r2),Corr(xi_D),Corr(xi_R),Corr(xi_r2)")

    def test_degenerate_row_has_empty_cells(self):
        csv = table_slr_csv(table_slr([0.0], 5.0))
        row = csv.splitlines()[1].split(",")
        assert row[2] == "" and row[-1] == ""      # p_r2, corr_r2 undefined
        assert row[1] == "0.333"                   # p_R defined

    def test_rejects_bad_a(self):
        with pytest.raises(ValidationError):
            table_slr([6.0], 5.0)

    def test_rounding_canonicalizes_negative_zero(self):
        csv = table_slr_csv(table_slr([-5.0], 5.0))
        assert "-0.000" not in csv

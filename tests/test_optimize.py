"""Numeric optimizer: weights, supports, c-optimality, and the reference tables."""

from __future__ import annotations

import json
import math
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import optdesign.optimize as optimize_module
from conftest import exp_decay_model, logistic_model
from optdesign.cli import main as cli_main
from optdesign import (
    CriterionSpec,
    DesignSpace,
    Model,
    OptimizationError,
    ValidationError,
    criterion_value,
    fim,
    make_design,
    phi_c,
    phi_d,
    phi_r2,
    slr_model,
)
from optdesign.criteria import ALL_KINDS, criterion_values_raw, derivative_report
from optdesign.designs import fim_entries
from optdesign.mm import MMParams, mm_d_optimal, mm_model
from optdesign.optimize import (
    _best_mass,
    _mix,
    _outer3,
    _refine,
    _stage1,
    _zero_slope,
    c_optimal,
    mm_designs_csv,
    mm_efficiencies_csv,
    mm_tables,
    optimize_design,
    optimize_weights,
    sa_references,
)
from optdesign.pareto import sampled_front
from optdesign.slr import SlrInterval, d_optimal_slr, p_r, r2_optimal_slr, r_optimal_slr


def hump_model(space: DesignSpace) -> Model:
    """f = (1, 2x - x^2): its angle rises to a peak at x = 1, then falls."""
    return Model(name="hump", space=space,
                 regressor=lambda x: np.stack([np.ones_like(x), 2.0 * x - x * x], axis=-1),
                 regressor_dx=lambda x: np.stack([np.zeros_like(x), 2.0 - 2.0 * x], axis=-1))


class TestOptimizeWeights:
    def test_slr_r_weights(self, slr_15):
        ws = optimize_weights(slr_15, (1.0, 5.0), CriterionSpec("R"))
        assert abs(ws[1] - 0.356) < 1e-3
        assert abs(ws[1] - p_r(SlrInterval(1.0, 5.0))) < 1e-4

    def test_slr_d_weights_half(self):
        model = slr_model(DesignSpace(-2.0, 3.0))
        ws = optimize_weights(model, (-2.0, 3.0), CriterionSpec("D"))
        assert np.allclose(ws, [0.5, 0.5], atol=1e-7)

    def test_mm_r_weights_at_published_support(self):
        model = mm_model(MMParams(b=5.0, eps=0.0))
        K = 227.27
        ws = optimize_weights(model, (0.55 * K, 5 * K), CriterionSpec("R"))
        assert abs(ws[0] - 0.54) < 0.01  # mass at 0.55K

    def test_three_point_support_is_rejected(self, slr_15):
        # No design on more points beats the best two-point one, so only two are weighed.
        with pytest.raises(ValidationError, match="exactly two support points"):
            optimize_weights(slr_15, (1.0, 3.0, 5.0), CriterionSpec("D"))

    def test_rejects_bad_support(self, slr_15):
        with pytest.raises(ValidationError):
            optimize_weights(slr_15, (2.0, 2.0), CriterionSpec("D"))
        with pytest.raises(ValidationError):
            optimize_weights(slr_15, (0.0, 5.0), CriterionSpec("D"))  # outside space
        with pytest.raises(ValidationError):
            optimize_weights(slr_15, (3.0,), CriterionSpec("D"))

    def test_all_singular_support_is_an_error(self):
        # The regressor vanishes at the origin, so every weighting of a
        # support containing 0 is rank-deficient.
        model = mm_model(MMParams(V=1.0, K=1.0, b=5.0, eps=0.0))
        with pytest.raises(OptimizationError):
            optimize_weights(model, (0.0, 1e-4), CriterionSpec("R"))


class TestOptimizeDesign:
    def test_slr_d_matches_closed_form(self, slr_15):
        res = optimize_design(slr_15, CriterionSpec("D"))
        xi_star = d_optimal_slr(SlrInterval(1.0, 5.0))
        assert res.converged and res.label == "certified"
        for (x, w), (xs, ws) in zip(res.design.points, xi_star.points):
            assert abs(x - xs) < 1e-6 and abs(w - ws) < 1e-6

    def test_slr_r_matches_closed_form(self, slr_15):
        res = optimize_design(slr_15, CriterionSpec("R"))
        assert res.converged
        assert abs(res.design.points[1][0] - 5.0) < 1e-9
        assert abs(res.design.points[1][1] - p_r(SlrInterval(1.0, 5.0))) < 1e-6

    def test_certificate_contract(self, mm_half):
        res = optimize_design(mm_half, CriterionSpec("R"))
        assert res.converged
        assert res.derivative_report is not None
        assert res.derivative_report.min_dd >= -1e-6 * res.criterion_value

    def test_mm_em_interior_optimum(self, mm_half):
        res = optimize_design(mm_half, CriterionSpec("EM"))
        assert res.label == "best-found" and res.derivative_report is None
        K = 227.27
        assert abs(res.design.points[0][0] / K - 0.50) < 0.02
        assert abs(res.design.points[0][1] - 0.86) < 0.02

    def test_mm_r2_boundary_beats_interior(self):
        # On [0.05K, 5K] the squared-correlation optimum hugs the lower
        # boundary with a near-extreme weight and strictly beats the interior
        # two-point design (0.50, 0.61).
        params = MMParams(b=5.0, eps=0.05)
        model = mm_model(params)
        res = optimize_design(model, CriterionSpec("R2"))
        K = params.K
        assert abs(res.design.points[0][0] / K - 0.05) < 0.01
        assert res.design.points[0][1] > 0.95
        interior = make_design([(0.50 * K, 0.61), (5.0 * K, 0.39)], model.space)
        assert res.criterion_value < phi_r2(fim(model, interior)) - 0.1
        assert abs(res.criterion_value - 0.507) < 0.005

    def test_oracle_dominance(self, mm_half):
        # No random design of two, three or four points beats the search: the
        # guard that the coarse-grid start and its polish need no random
        # restarts, and that two support points are enough.  On the toy model
        # the angle of f peaks inside the space, so the chord's end there is polished.
        rng = np.random.default_rng(7)
        models = [mm_half, mm_model(MMParams(b=5.0, eps=0.05)),
                  slr_model(DesignSpace(1.0, 5.0)), slr_model(DesignSpace(2.04, 3.15)),
                  hump_model(DesignSpace(0.0, 3.0)), hump_model(DesignSpace(0.25, 1.9))]
        for model in models:
            space = model.space
            X = np.sort(rng.uniform(space.lo, space.hi, (10_000, 2)), axis=1)
            w = rng.uniform(0.0, 1.0, 10_000)
            keep = (X[:, 1] - X[:, 0] > space.merge_tol()) & (0.0 < w) & (w < 1.0)
            ms = [fim_entries(model, X[keep], np.stack([w, 1.0 - w], axis=1)[keep])]
            for k in (3, 4):
                X = np.sort(rng.uniform(space.lo, space.hi, (10_000, k)), axis=1)
                ms.append(fim_entries(model, X, rng.dirichlet(np.ones(k), 10_000)))
            for kind in ("D", "R", "R2", "EM", "CPB"):
                spec = CriterionSpec(kind)
                res = optimize_design(model, spec)
                for k, m in enumerate(ms, start=2):
                    best_random = np.min(criterion_values_raw(spec, *m))
                    assert res.criterion_value <= best_random * (1 + 1e-8), (space, kind, k)

    def test_chord_end_inside_the_space_is_polished(self):
        # On [0.25, 1.9] the angle of f = (1, 2x - x^2) peaks at x = 1, off the grid:
        # EM's chord joins that peak and the end 1.9, EM* = cot^2 of half their angle.
        res = optimize_design(hump_model(DesignSpace(0.25, 1.9)), CriterionSpec("EM"))
        half = (math.atan(1.0) - math.atan(2.0 * 1.9 - 1.9 * 1.9)) / 2.0
        assert math.isclose(res.design.xs[0], 1.0, rel_tol=1e-12)
        assert math.isclose(res.criterion_value, 1.0 / math.tan(half) ** 2, rel_tol=1e-12)

    def test_determinism(self, mm_half):
        r1 = optimize_design(mm_half, CriterionSpec("EM"))
        r2 = optimize_design(mm_half, CriterionSpec("EM"))
        assert r1.design == r2.design
        assert r1.criterion_value == r2.criterion_value
        assert r1.iterations == r2.iterations

    def test_self_efficiency_is_one(self, slr_15):
        res = optimize_design(slr_15, CriterionSpec("D"))
        val = criterion_value(fim(slr_15, res.design), CriterionSpec("D"))
        assert abs(res.criterion_value / val - 1.0) <= 1e-9

    def test_cpb_shares_optimum_with_r2(self, mm_half):
        # CPB is the square root of the squared correlation for two
        # parameters, so the minimizers coincide.
        res_cpb = optimize_design(mm_half, CriterionSpec("CPB"))
        res_r2 = optimize_design(mm_half, CriterionSpec("R2"))
        assert abs(res_cpb.criterion_value ** 2 - res_r2.criterion_value) < 1e-6
        for (x1, w1), (x2, w2) in zip(res_cpb.design.points, res_r2.design.points):
            assert abs(x1 - x2) < 1e-4 * mm_half.space.width and abs(w1 - w2) < 1e-4


# optimize_design results, recorded before the two-point refinement was
# batched.  The criterion parameters are recorded with them, so
# that each case exercises optimize_design alone.
PINNED_MODELS = {
    "slr": slr_model(DesignSpace(-1.3, 4.2)),
    "mm": mm_model(MMParams(V=43.73, K=227.27, b=5.0, eps=0.5)),
}
PINNED_SPECS = {
    "slr": {
        "C": CriterionSpec("C", c=(1.0, 6.0)),
        "SA": CriterionSpec("SA", sa_refs=(1.0, 0.1322314049586777)),
        "COMPOUND": CriterionSpec("COMPOUND", lam=0.5, phi_d_star=0.36363636363636365,
                                  phi_r_star=0.3906385899918728),
    },
    "mm": {
        "C": CriterionSpec("C", c=(1.0, 0.5)),
        "SA": CriterionSpec("SA", sa_refs=(6.753878438166096, 1902.6241053409324)),
        "COMPOUND": CriterionSpec("COMPOUND", lam=0.5, phi_d_star=71.84496867139269,
                                  phi_r_star=125.41165399160522),
    },
}
PINNED_VALUES = {
    "slr": {
        "D": 0.36363636363636365,
        "R": 0.3906385899918728,
        "R2": 3.4480975675537566e-25,
        "C": 2.7375206611570255,
        "SA": 2.148623685100273,
        "EM": 1.000000003175771,
        "CPB": 5.872050380875284e-13,
        "COMPOUND": 1.0095874225440065,
    },
    "mm": {
        "D": 71.84496867139269,
        "R": 125.41165399160522,
        "R2": 0.6399999999999999,
        "C": 595.7681507063578,
        "SA": 2.2126891445618986,
        "EM": 437.72126588859464,
        "CPB": 0.7999999999999999,
        "COMPOUND": 1.006896444560438,
    },
}


@pytest.mark.parametrize("model_name, kind",
                         [(m, k) for m, values in PINNED_VALUES.items() for k in values])
def test_pinned_results(model_name, kind):
    # Non-convex designs are not pinned: on SLR a whole set of designs reaches
    # r2 = 0 or EM = 1, so only the value is stable.  The recorded values came
    # from a search, which stopped short of those infima by up to 4.7e-9.
    spec = PINNED_SPECS[model_name].get(kind) or CriterionSpec(kind)
    res = optimize_design(PINNED_MODELS[model_name], spec)
    pinned = PINNED_VALUES[model_name][kind]
    if spec.is_convex:
        assert res.label == "certified"
        assert math.isclose(res.criterion_value, pinned, rel_tol=1e-12, abs_tol=0.0)
    else:
        assert res.label == "best-found"
        assert res.criterion_value <= pinned * (1.0 + 1e-12) + 1e-15


TWO_POINT_RULE_MODELS = {**PINNED_MODELS, "mm-floor-0": mm_model(MMParams(V=77.79, K=113.38, b=3.8, eps=0.0)),
                         "slr-1-5": slr_model(DesignSpace(1.0, 5.0)), "slr-sym": slr_model(DesignSpace(-1.0, 1.0))}
# The same models as CLI flags.
TWO_POINT_RULE_FLAGS = {
    "slr": ("--model", "slr", "--a", "-1.3", "--b", "4.2"),
    "mm": ("--model", "mm", "--V", "43.73", "--K", "227.27", "--b", "5", "--eps", "0.5"),
    "mm-floor-0": ("--model", "mm", "--V", "77.79", "--K", "113.38", "--b", "3.8", "--eps", "0"),
    "slr-1-5": ("--model", "slr", "--a", "1", "--b", "5"),
    "slr-sym": ("--model", "slr", "--a", "-1", "--b", "1"),
}


@pytest.mark.parametrize("model_name", list(TWO_POINT_RULE_MODELS))
@pytest.mark.parametrize("kind", list(PINNED_VALUES["slr"]))
def test_larger_supports_get_the_two_point_search(capsys, model_name, kind):
    # Every optimum needs at most two points, so optimal's --n-support, kept for
    # compatibility, changes nothing but its echo in the config.  Searches on 3
    # and 4 points once fell short of these optima: on mm-floor-0 a 4-point r^2
    # search ended at 0.6685, against 0.5711; on slr 3- and 4-point r^2 ended at
    # 2.2e-19 and 4.8e-18, EM on slr-sym at 1 + 1e-8, and 3-point D searches
    # stopped beside the optimum with a third point of weight near 1e-7.
    extra = {"C": ("--c", "1,6" if model_name == "slr" else "1,0.5"), "COMPOUND": ("--lam", "0.5")}
    argv = ("optimal", *TWO_POINT_RULE_FLAGS[model_name], "--criterion", kind, *extra.get(kind, ()))
    runs = []
    for n_support in (2, 3, 4):
        code = cli_main([*argv, f"--n-support={n_support}"])
        out = capsys.readouterr().out
        runs.append((code, out.replace(f'"n_support": {n_support}', '"n_support": 2')))
    assert runs[1] == runs[0] and runs[2] == runs[0]
    payload = json.loads(runs[0][1])
    assert len(payload["design"]["points"]) <= 2
    expected = {("slr-1-5", "D"): 0.5, ("slr", "R2"): 1e-24, ("slr-sym", "EM"): 1.0}.get((model_name, kind))
    assert expected is None or payload["criterion_value"] <= expected * (1.0 + 1e-12)


@pytest.mark.parametrize("model_name", list(TWO_POINT_RULE_MODELS))
def test_disk_kinds_run_no_search(monkeypatch, model_name):
    # R2, CPB and EM take their optima from the chord of the normalised
    # information disk, with no stage 1 and no polish.
    def no_search(*args):
        raise AssertionError("a search ran")
    monkeypatch.setattr(optimize_module, "_stage1", no_search)
    monkeypatch.setattr(optimize_module, "_refine", no_search)
    model = TWO_POINT_RULE_MODELS[model_name]
    for kind in ("R2", "CPB", "EM"):
        res = optimize_design(model, CriterionSpec(kind))
        assert res.label == "best-found" and math.isfinite(res.criterion_value)


class TestGoldenMass:
    # The two-point mass solver against closed forms.  A closed pair of D, SA,
    # EM, R2, CPB or R takes its exact mass; the other masses come from a
    # secant that zeroes the slope, so its precision is set by rounding in the
    # slope, not in the value: on the badly scaled MM regressor (columns about
    # tenfold apart), and on the close pair (0.06K, 0.07K) above all, a search
    # that compares criterion values misses these masses by up to 1.5e-6.
    SUPPORTS = np.array([(-1.0, 1.0), (0.3, 4.0), (-2.5, -0.1), (-3.0, 5.0)])
    MM_SUPPORTS = 227.27 * np.array([(0.06, 0.07), (0.1, 5.0), (0.5, 5.0), (0.71, 5.0),
                                     (0.06, 1.0)])
    TOL = optimize_module.WEIGHT_TOL

    def rows(self, model=None, supports=None):
        model = model or slr_model(DesignSpace(-3.0, 5.0))
        supports = self.SUPPORTS if supports is None else supports
        return np.asarray(model.regressor(supports.ravel()), dtype=float).reshape(-1, 2, 2)

    @staticmethod
    def on_line(spec, F, w, d=None):
        # Criterion values at mass w on the first point of each pair: w Oa + (1 - w) Ob, with its
        # Cauchy-Binet det w (1 - w) (f_a x f_b)^2.  A direction's slope of log det, the kernel's
        # 4th entry of d, is formed here from the entries, as the reference.
        Oa, Ob = _outer3(F[:, 0]).T[:, :, None], _outer3(F[:, 1]).T[:, :, None]
        cross2 = ((F[:, 0, 0] * F[:, 1, 1] - F[:, 0, 1] * F[:, 1, 0]) ** 2)[:, None]
        m, det = Ob + w * (Oa - Ob), w * (1.0 - w) * cross2
        with np.errstate(divide="ignore", invalid="ignore"):  # the masses 0 and 1 are singular
            d = None if d is None else (*d, (d[0] * m[2] + m[0] * d[2] - 2.0 * m[1] * d[1]) / det)
        return criterion_values_raw(spec, *m, det, d=d)

    def secant(self, spec, F):
        # The slope-zeroing secant that weighs COMPOUND, here with the masses 0 and 1 open to it.
        n = len(F)

        def evaluate(rows, w):
            d = (_outer3(F[rows, 0]) - _outer3(F[rows, 1])).T[:, :, None]
            return (*(v[:, 0] for v in self.on_line(spec, F[rows], w[:, None], d=d)), None)

        return _zero_slope(evaluate, np.zeros(n), np.ones(n), np.full(n, 0.5), np.full(n, 0.5 + 1e-6),
                           self.TOL)[1]

    def mm_rows(self):
        return self.rows(mm_model(MMParams(V=43.73, K=227.27, b=5.0, eps=0.05)), self.MM_SUPPORTS)

    def check_d_mass(self, F):
        W, _ = _best_mass(CriterionSpec("D"), F, self.TOL)
        assert np.all(np.abs(W - 0.5) <= self.TOL)

    def check_c_mass(self, F, c):
        # c^T M^-1 c = sum u_i^2 / w_i with u = F^-T c, minimized at w_i ~ |u_i|.
        u = np.linalg.solve(np.transpose(F, (0, 2, 1)), np.tile(c, (len(F), 1))[..., None])[..., 0]
        expected = np.abs(u[:, 0]) / np.abs(u).sum(axis=1)
        W, vals = _best_mass(CriterionSpec("C", c=c), F, self.TOL)
        assert np.all(np.abs(W[:, 0] - expected) <= self.TOL)
        return vals, np.abs(u).sum(axis=1) ** 2

    def test_d_mass_is_half(self):
        self.check_d_mass(self.rows())

    @pytest.mark.parametrize("c", [(1.0, 0.0), (0.0, 1.0), (1.0, 6.0), (2.0, -1.0)])
    def test_c_mass_closed_form(self, c):
        vals, expected = self.check_c_mass(self.rows(), c)
        assert np.allclose(vals, expected, rtol=1e-12)

    def test_mm_d_mass_is_half(self):
        self.check_d_mass(self.mm_rows())

    @pytest.mark.parametrize("c", [(1.0, 0.0), (0.0, 1.0), (1.0, 0.5)])
    def test_mm_c_mass_closed_form(self, c):
        # The value itself carries the rounding of M^-1, about 1e-11 relative
        # on the close pair, so only the mass is checked to the tolerance.
        self.check_c_mass(self.mm_rows(), c)

    def random_rows(self, model_name, n=24):
        model = PINNED_MODELS[model_name]
        rng = np.random.default_rng(20260812)
        return self.rows(model, np.sort(rng.uniform(model.space.lo, model.space.hi, (n, 2)), axis=1))

    @pytest.mark.parametrize("model_name", list(PINNED_MODELS))
    @pytest.mark.parametrize("kind", ["D", "C", "SA", "EM", "R2", "CPB", "R"])
    def test_exact_mass_beats_grid_and_secant(self, model_name, kind):
        spec = PINNED_SPECS[model_name].get(kind) or CriterionSpec(kind)
        F = self.random_rows(model_name)
        W, vals = _best_mass(spec, F, self.TOL)
        assert np.all(np.isfinite(vals)) and np.all((0.0 < W) & (W < 1.0))
        if spec.is_convex:  # R2, CPB and EM have no slope for a secant
            assert np.all(vals <= self.secant(spec, F) * (1.0 + 1e-12))
        grid = np.linspace(0.0, 1.0, 100_001)[None]
        for i, v in enumerate(vals):
            assert v <= self.on_line(spec, F[i:i + 1], grid).min() * (1.0 + 1e-12)

    def test_r2_mass_zeroes_m12_across_a_sign_change(self):
        # On SLR f1 f2 = x: a pair on both sides of 0 reaches m12 = 0.
        F = self.random_rows("slr", n=200)
        O = _outer3(F)
        across = F[:, 0, 0] * F[:, 0, 1] * F[:, 1, 0] * F[:, 1, 1] < 0.0
        assert np.count_nonzero(across) >= 20
        for kind in ("R2", "CPB"):
            W, vals = _best_mass(CriterionSpec(kind), F[across], self.TOL)
            m11, m12, m22 = (W[:, :1] * O[across, 0] + W[:, 1:] * O[across, 1]).T
            scale = W[:, 0] * np.abs(O[across, 0, 1]) + W[:, 1] * np.abs(O[across, 1, 1])
            assert np.all(np.abs(m12) <= 4.0 * np.finfo(float).eps * scale)
            r2 = vals if kind == "R2" else vals * vals
            assert np.allclose(r2, m12 * m12 / (m11 * m22), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("kind", ["D", "C", "SA", "EM", "R2", "CPB", "R"])
    def test_zero_information_point_keeps_mass_inside(self, kind):
        # MM's regressor vanishes at x = 0.  An exact split of 1 there would
        # give M = 0, which once stopped every row of the R2 polish.
        model = mm_model(MMParams(V=43.73, K=227.27, b=5.0, eps=0.0))
        spec = PINNED_SPECS["mm"].get(kind) or CriterionSpec(kind)
        F = self.rows(model, np.array([(0.0, 0.3 * 227.27), (0.0, 5.0 * 227.27)]))
        W, vals = _best_mass(spec, F, self.TOL)
        assert np.all((0.0 < W) & (W < 1.0)) and np.all(np.isinf(vals))

    @pytest.mark.parametrize("model_name", [*PINNED_MODELS, "mm-badly-scaled"])
    def test_r_mass_lies_between_the_variance_splits(self, model_name):
        # R^2 multiplies the variances of the two estimates, least at the
        # splits w_i = |f_bi| / (|f_ai| + |f_bi|): R's mass lies between them,
        # and COMPOUND's between D's 1/2 and R's.  Only squares of each column
        # enter, so rescaling a column leaves R's mass unchanged.
        if model_name == "mm-badly-scaled":
            model = mm_model(MMParams(V=1e-3, K=1e6, b=2.0, eps=1e-3))
            spec = CriterionSpec("COMPOUND", lam=0.5, phi_d_star=1.0, phi_r_star=1.0)
        else:
            model, spec = PINNED_MODELS[model_name], PINNED_SPECS[model_name]["COMPOUND"]
        rng = np.random.default_rng(20260813)
        F = self.rows(model, np.sort(rng.uniform(model.space.lo, model.space.hi, (24, 2)), axis=1))
        w1, w2 = (np.abs(F[:, 1, i]) / (np.abs(F[:, 0, i]) + np.abs(F[:, 1, i])) for i in (1, 0))
        w = _best_mass(CriterionSpec("R"), F, self.TOL)[0][:, 0]
        assert np.all((np.minimum(w1, w2) <= w) & (w <= np.maximum(w1, w2)))
        rescaled = F * np.array([1e-9, 1e7])
        assert np.allclose(_best_mass(CriterionSpec("R"), rescaled, self.TOL)[0][:, 0], w,
                           rtol=0.0, atol=4 * np.finfo(float).eps)
        wc = _best_mass(spec, F, self.TOL)[0][:, 0]
        assert np.all((np.minimum(w, 0.5) - self.TOL <= wc) & (wc <= np.maximum(w, 0.5) + self.TOL))


def test_mm_r2_at_zero_floor_is_not_stopped_by_a_zero_matrix():
    # f(0) = 0, so the infima are limits: the mass goes to 1 at x -> 0 (r^2 = 24/49,
    # SLR's on [1/6, 1]; EM = cot^2 of half the angle f sweeps).  The chord's lower end
    # stops at the polish's tolerance, 1e-9 times the width.  A grid search took 17-27 ms
    # to reach r^2 = 0.49036, and a singularity test with an absolute floor stopped the
    # chord there too.  With M = 0 counted as r = 0, 2-point R2 once stopped at 0.5419.
    V, K = 43.73, 227.27
    model = mm_model(MMParams(V=V, K=K, b=5.0, eps=0.0))
    em = 1.0 / math.tan((math.atan(V / K) - math.atan(V / (6.0 * K))) / 2.0) ** 2
    for kind, infimum in (("R2", 24.0 / 49.0), ("CPB", math.sqrt(24.0 / 49.0)), ("EM", em)):
        spec = CriterionSpec(kind)
        optimize_design(model, spec)  # warm
        seconds = []
        for _ in range(3):
            start = time.perf_counter()
            res = optimize_design(model, spec)
            seconds.append(time.perf_counter() - start)
        assert not fim(model, res.design).is_singular, kind
        assert infimum <= res.criterion_value <= infimum * (1.0 + 1e-7), kind
        assert min(seconds) <= 0.010, kind


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (-1.0, 0.0), (0.0, 5.0)])
def test_r2_chord_end_on_an_axis_keeps_a_minor_mass(a, b):
    # f(0) = (1, 0) lies on an axis: r^2 -> 0 as the mass at 0 goes to 1, and all of
    # it there is a one-point design, singular.  The split leaves about EPS^2 at the
    # other end, where an absolute singularity floor stopped r^2 at 4e-12.
    model = slr_model(DesignSpace(a, b))
    for kind in ("R2", "CPB"):
        res = optimize_design(model, CriterionSpec(kind))
        assert res.label == "best-found" and not fim(model, res.design).is_singular, kind
        assert res.criterion_value ** (2 if kind == "CPB" else 1) <= 1e-15, kind


@pytest.mark.parametrize("kind", list(PINNED_VALUES["slr"]))
def test_stage1_heap_peak(kind):
    # Stage 1 weighs the 528 pairs of its coarse grid at once.
    model = PINNED_MODELS["slr"]
    spec = PINNED_SPECS["slr"].get(kind) or CriterionSpec(kind)
    tracemalloc.start()
    try:
        _stage1(model, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1e6


# criterion_values_raw calls of each PINNED_VALUES call, as recorded with the
# slope polish of stage 1's best support, one call per support giving its value and
# both point slopes (COMPOUND's mass secant adds its own), the exact two-point masses
# (R's included), the chord of R2, CPB and EM, whose ends here are the space's, and
# Elfving's dual for C, which calls no kernel; a call may make 20% more.
KERNEL_CALLS = {
    "slr": {"D": 2, "R": 2, "R2": 1, "C": 0, "SA": 2, "EM": 1, "CPB": 1, "COMPOUND": 13},
    "mm": {"D": 8, "R": 8, "R2": 1, "C": 0, "SA": 8, "EM": 1, "CPB": 1, "COMPOUND": 31},
}


@pytest.mark.parametrize("model_name, kind",
                         [(m, k) for m, values in PINNED_VALUES.items() for k in values])
def test_kernel_call_budget(monkeypatch, model_name, kind):
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return criterion_values_raw(*args, **kwargs)

    criterion_values_raw = optimize_module.criterion_values_raw
    monkeypatch.setattr(optimize_module, "criterion_values_raw", counted)
    spec = PINNED_SPECS[model_name].get(kind) or CriterionSpec(kind)
    optimize_design(PINNED_MODELS[model_name], spec)
    assert calls <= 1.2 * KERNEL_CALLS[model_name][kind]


@pytest.mark.parametrize("model_name", list(PINNED_MODELS))
@pytest.mark.parametrize("kind", ["D", "R", "C", "SA", "COMPOUND"])
def test_point_slope_is_derivative_of_profiled_criterion(model_name, kind):
    # The envelope theorem: at optimal weights the kernel's slope in a support
    # point is the derivative of min over weights of the criterion, here
    # against central differences with the weights re-solved on each side.
    model, spec = PINNED_MODELS[model_name], PINNED_SPECS[model_name].get(kind) or CriterionSpec(kind)
    space = model.space
    X = space.lo + space.width * np.array([[0.1, 0.55], [0.3, 0.9], [0.2, 0.7], [0.05, 0.95]])

    def profile(X):
        return _best_mass(spec, np.asarray(model.regressor(X), dtype=float), 1e-13)[1]

    _, V, S = _best_mass(spec, np.asarray(model.regressor(X), dtype=float), 1e-13,
                         dF=np.asarray(model.regressor_dx(X), dtype=float))
    h = 1e-5 * space.width
    for j in range(2):
        step = np.zeros(2)
        step[j] = h
        fd = (profile(X + step) - profile(X - step)) / (2 * h)
        assert np.allclose(S[:, j], fd, rtol=1e-6, atol=1e-8 * np.abs(V).max() / space.width)


@pytest.mark.parametrize("model_name", list(PINNED_MODELS))
@pytest.mark.parametrize("kind", ["D", "R", "C", "SA", "COMPOUND"])
def test_point_slopes_are_the_kernels_on_fim_entries(model_name, kind):
    # The mass solve reads both point slopes from the kernel call that gives its
    # values: they are the kernel's slopes along w_j (f' f^T + f f'^T)(x_j) at the
    # entries and det that fim_entries forms for the design on its own.
    model, spec = PINNED_MODELS[model_name], PINNED_SPECS[model_name].get(kind) or CriterionSpec(kind)
    space = model.space
    X = np.sort(np.random.default_rng(20261019).uniform(space.lo, space.hi, (40, 2)), axis=1)
    F, dF = (np.asarray(g(X), dtype=float) for g in (model.regressor, model.regressor_dx))
    W, V, S = _best_mass(spec, F, 1e-10, dF=dF)
    entries = m11, m12, m22, det = fim_entries(model, X, W)
    for j in range(2):
        f, g = F[:, j].T, dF[:, j].T
        d11, d12, d22 = W[:, j] * np.stack([2.0 * f[0] * g[0], f[0] * g[1] + f[1] * g[0], 2.0 * f[1] * g[1]])
        # The slope of log det from the entries, as the reference for the mass solve's cross products.
        d = (d11, d12, d22, (d11 * m22 + m11 * d22 - 2.0 * m12 * d12) / det)
        values, slopes = criterion_values_raw(spec, *entries, d=d)
        assert np.allclose(values, V, rtol=1e-12, atol=0.0)
        assert np.allclose(S[:, j], slopes, rtol=1e-11, atol=1e-12 * np.abs(V).max() / space.width)


BATCH_MM = MMParams(V=43.73, K=227.27, b=8.35, eps=0.3)
BATCH_MODELS = {"slr": (slr_model(DesignSpace(-1.3, 4.2)), SlrInterval(-1.3, 4.2)), "mm": (mm_model(BATCH_MM), BATCH_MM)}


@pytest.mark.parametrize("model_name", list(BATCH_MODELS))
@pytest.mark.parametrize("kind", ["D", "R", "SA", "COMPOUND", "EM", "R2"])
def test_stage1_rows_are_solved_as_if_alone(model_name, kind):
    # A row's mass and value do not depend on the rows solved beside it: every 7th pair of stage 1's batch
    # (76 pairs) against the same pair solved on its own, bit for bit.  R's Newton steps must stop row by
    # row: stepping every row until the last one converges moves 8 of these MM rows by up to 4.4e-16.
    model, params = BATCH_MODELS[model_name]
    spec = optimize_module._criterion_start(model, params, kind, lam=0.5)[0]
    grid, F = optimize_module._fim_grid(model, optimize_module.STAGE1_GRID)
    rows = F[np.stack(np.triu_indices(len(grid), 1), axis=1)][::7]
    W, V = _best_mass(spec, rows, optimize_module.WEIGHT_TOL)
    for i in range(len(rows)):
        w, v = _best_mass(spec, rows[i:i + 1], optimize_module.WEIGHT_TOL)
        assert np.array_equal(w[0], W[i]) and np.array_equal(v[0], V[i], equal_nan=True), i


def recorded_regressor(model: Model) -> tuple[Model, list]:
    """The model with a regressor that appends the points of each call to the returned list while the list's
    first item, its switch, is True."""
    calls: list = [False]

    def regressor(x):
        if calls[0]:
            calls.append(np.asarray(x, dtype=float).tolist())
        return model.regressor(x)

    return replace(model, regressor=regressor), calls


@pytest.mark.parametrize("kind", ["R", "SA", "COMPOUND"])
def test_each_polished_point_reaches_the_regressor_once(monkeypatch, kind):
    # The warm polish on MM: from _refine's start to _result, no point is handed to the regressor twice; an
    # accepted move takes the regressor values its evaluation carried.
    params = MMParams(V=43.73, K=227.27, b=5.0, eps=0.5)
    model, calls = recorded_regressor(mm_model(params))
    spec, start = optimize_module._criterion_start(model, params, kind, lam=0.5)
    refine, result = optimize_module._refine, optimize_module._result

    def recording_refine(*args):
        calls[0] = True
        return refine(*args)

    def stop(*args):
        calls[0] = False
        return result(*args)

    monkeypatch.setattr(optimize_module, "_refine", recording_refine)
    monkeypatch.setattr(optimize_module, "_result", stop)
    res = optimize_design(model, spec, start)
    points = [x for call in calls[1:] for x in call]
    assert res.converged and len(points) == len(set(points)) > 2


@pytest.mark.parametrize("model_name, c", [("mm", (1.0, 0.0)), ("mm", (0.0, 1.0)), ("mm", (1.0, -30.0)),
                                           ("slr", (1.0, 1.0)), ("slr", (0.3, -1.0))])
def test_each_elfving_point_reaches_the_regressor_once(model_name, c):
    # c_optimal's polish starts from grid points whose regressor values the grid pass gave, and every point it
    # evaluates is evaluated once, the grid's included; the certificate's pass follows.
    model, calls = recorded_regressor(BATCH_MODELS[model_name][0])
    calls[0] = True
    res = c_optimal(model, c)
    grid, *polish, certificate = calls[1:]
    points = grid + [x for call in polish for x in call]
    assert res.converged and len(points) == len(set(points)) and len(certificate) >= 1000


@pytest.mark.parametrize("model", [mm_model(MMParams(b=5.0, eps=0.5)), mm_model(MMParams(b=5.0, eps=0.0)),
                                   mm_model(MMParams(V=1.0, K=3.0, b=2.0, eps=0.1)), slr_model(DesignSpace(-1.3, 4.2)),
                                   slr_model(DesignSpace(1.0, 5.0))], ids=["mm", "mm-eps0", "mm-b2", "slr", "slr-1-5"])
def test_one_pass_for_both_references_is_two_c_optimal_calls(model):
    # SA's references solve e1 and e2 in one batched pass; each c's design, value, iterations, u and gamma are
    # c_optimal's on that c alone, bit for bit.  The pass makes no certificate: only c_optimal certifies.
    e1, e2 = optimize_module._elfving(model, [(1.0, 0.0), (0.0, 1.0)])
    assert (e1, e2) == tuple((r.design, r.criterion_value, r.iterations, r.u, r.gamma)
                             for r in (c_optimal(model, (1.0, 0.0)), c_optimal(model, (0.0, 1.0))))
    assert sa_references(model)[0] == (e1[1], e2[1])


def test_c_orthogonal_to_every_f_is_inestimable():
    # f = x (1, 0) on [1, 5]: c = (0, 1) is orthogonal to every f, and the grid pass raises for it alone or
    # beside e1; c = (1, 0) is estimable, best at the largest |f|.
    model = Model(name="axis", space=DesignSpace(1.0, 5.0), regressor=lambda x: np.multiply.outer(x, (1.0, 0.0)),
                  regressor_dx=lambda x: np.multiply.outer(np.ones_like(x), (1.0, 0.0)))
    for solve in (lambda: c_optimal(model, (0.0, 1.0)), lambda: sa_references(model)):
        with pytest.raises(OptimizationError, match="c is inestimable under every candidate design"):
            solve()
    res = c_optimal(model, (1.0, 0.0))
    assert res.design.points == ((5.0, 1.0),) and res.label == "certified"


@pytest.mark.parametrize("lo, hi", [(1.0, 5.0), (-0.3, 0.9)])
@pytest.mark.parametrize("ray", [(1.0, 2.0), (0.3, 0.7), (1.1, -0.37)])
def test_rank_one_model_raises_for_every_kind(lo, hi, ray):
    # f = x v spans one ray: every design is singular and only multiples of v
    # are estimable, so each kind raises OptimizationError, with no numpy
    # warning on the way (c_optimal's Cramer weights for two parallel f
    # would divide by a zero det).
    model = Model(name="rank-one", space=DesignSpace(lo, hi), regressor=lambda x: np.multiply.outer(x, ray),
                  regressor_dx=lambda x: np.multiply.outer(np.ones_like(x), ray))
    specs = {"SA": CriterionSpec("SA", sa_refs=(1.0, 1.0)),
             "COMPOUND": CriterionSpec("COMPOUND", lam=0.5, phi_d_star=1.0, phi_r_star=1.0)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind in ALL_KINDS:
            for c in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)) if kind == "C" else [None]:
                spec = CriterionSpec("C", c=c) if c else specs.get(kind) or CriterionSpec(kind)
                with pytest.raises(OptimizationError, match="inestimable" if c else "no admissible"):
                    optimize_design(model, spec)
        with pytest.raises(OptimizationError, match="inestimable"):
            sa_references(model)


def test_model_without_regressor_derivative_is_rejected():
    # Every optimizer entry, cold or from a start, raises the one error of designs._regressor: C with c = f(x0)
    # takes the one-point branch, C with c = e1 the two-point one.
    base = mm_model(MMParams(b=5.0, eps=0.5))
    bare = Model(name="bare", space=base.space, regressor=base.regressor)
    f = tuple(base.regressor(np.array([241.474375]))[0].tolist())
    specs = [CriterionSpec("D"), CriterionSpec("R"), CriterionSpec("SA", sa_refs=(1.0, 1.0)),
             CriterionSpec("COMPOUND", lam=0.5, phi_d_star=1.0, phi_r_star=1.0)]
    calls = [lambda spec=spec, start=start: optimize_design(bare, spec, start)
             for spec in specs for start in (None, np.array([100.0, base.space.hi]))]
    calls += [lambda spec=spec: optimize_design(bare, spec)
              for spec in (CriterionSpec("C", c=f), CriterionSpec("C", c=(1.0, 0.0)), CriterionSpec("R2"),
                           CriterionSpec("EM"))]
    for call in (*calls, lambda: c_optimal(bare, (1.0, 0.0)), lambda: sa_references(bare)):
        with pytest.raises(ValidationError, match=r"^model 'bare' has no regressor_dx; the optimizer needs it$"):
            call()
    # The error names the callable that is missing.
    with pytest.raises(ValidationError, match=r"^model 'bare' has no regressor; the optimizer needs it$"):
        fim(replace(bare, regressor=None), make_design([(base.space.hi, 1.0)], base.space))


def test_regressor_of_the_wrong_shape_is_rejected():
    # Every evaluation checks the shape (n, 2): a regressor with a third column is named, not a numpy
    # error from the solver nor a certificate built from the wrong columns.
    base = slr_model(DesignSpace(-1.0, 1.0))
    wide = replace(base, regressor=lambda x: np.stack([np.ones_like(x), x, x * x], axis=-1))
    design = make_design([(-1.0, 0.5), (1.0, 0.5)], base.space)
    for call in (lambda: optimize_design(wide, CriterionSpec("D")), lambda: c_optimal(wide, (1.0, 0.0)),
                 lambda: derivative_report(wide, design, CriterionSpec("D")), lambda: fim(wide, design),
                 lambda: sampled_front(wide, 10, 0, 1.0, 1.0)):
        with pytest.raises(ValidationError, match=r"regressor returned shape \(\d+, 3\), expected \(\d+, 2\)"):
            call()
    flat = replace(base, regressor_dx=lambda x: np.ones_like(x))
    with pytest.raises(ValidationError, match=r"regressor_dx returned shape \(\d+,\), expected \(\d+, 2\)"):
        optimize_design(flat, CriterionSpec("D"))


@given(a=st.floats(-5.0, 5.0), width=st.floats(0.5, 10.0), kind=st.sampled_from(["D", "R", "R2", "EM"]),
       log_scale=st.one_of(st.just(0.0), st.floats(-12.0, 0.0)))
@settings(max_examples=60, deadline=None)
@example(a=-1.0, width=2.0, kind="EM", log_scale=0.0)  # ab = -1: the ends are perpendicular
# The benchmark's tiny interval around the origin, [-1e-7, 1e-7] and its kind.
@example(a=-1.0, width=2.0, kind="D", log_scale=-7.0)
@example(a=-1.0, width=2.0, kind="R", log_scale=-7.0)
@example(a=-1.0, width=2.0, kind="R2", log_scale=-7.0)
@example(a=-1.0, width=1.5, kind="D", log_scale=-8.0)
def test_slr_two_point_matches_closed_forms(a, width, kind, log_scale):
    # [a, a + width] scaled by 10^log_scale: widths from 5e-13 to 10, around the origin.
    # An end at or near 0 takes the r^2 optimum to or toward a singular design.
    assume(kind != "R2" or min(abs(a), abs(a + width)) >= 0.05 * width)
    a, width = a * 10.0 ** log_scale, width * 10.0 ** log_scale
    b, model = a + width, slr_model(DesignSpace(a, a + width))
    res = optimize_design(model, CriterionSpec(kind))
    if kind == "EM":  # the chord's midpoint, or M ~ I once f(a) and f(-1/a) are perpendicular
        expected = 1.0 if a * b <= -1.0 else 1.0 / math.tan((math.atan(b) - math.atan(a)) / 2.0) ** 2
        assert math.isclose(res.criterion_value, expected, rel_tol=1e-12, abs_tol=0.0)
        return
    closed = {"D": d_optimal_slr, "R": r_optimal_slr, "R2": r2_optimal_slr}[kind](SlrInterval(a, b))
    expected = criterion_value(fim(model, closed), CriterionSpec(kind))
    if kind == "R2":  # best-found, and 0 on every interval that holds 0
        assert abs(res.criterion_value - expected) <= 1e-12 * expected + 1e-24
    else:
        assert res.label == "certified"
        assert math.isclose(res.criterion_value, expected, rel_tol=1e-12, abs_tol=0.0)


@given(log_ratio=st.floats(3.0, 9.0), log_width=st.floats(-3.0, 3.0), sign=st.sampled_from([1.0, -1.0]))
@settings(max_examples=30, deadline=None)
@example(log_ratio=6.0, log_width=0.0, sign=1.0)  # [1e6, 1e6 + 1], the benchmark's far SLR space
@example(log_ratio=9.0, log_width=-3.0, sign=-1.0)
def test_far_slr_is_solved_and_certified(log_ratio, log_width, sign):
    # [a, a + w] with |a| / w from 1e3 to 1e9: 1 - r^2 is as small as 1e-19 on every design, yet the
    # Cauchy-Binet det is exact and every slope of det comes from cross products.
    width = 10.0 ** log_width
    a = sign * 10.0 ** log_ratio * width
    iv, model = SlrInterval(a, a + width), slr_model(DesignSpace(a, a + width))
    for kind, closed in (("D", d_optimal_slr), ("R", r_optimal_slr), ("R2", r2_optimal_slr)):
        res = optimize_design(model, CriterionSpec(kind))
        expected = criterion_value(fim(model, closed(iv)), CriterionSpec(kind))
        if kind == "R2":
            assert abs(res.criterion_value - expected) <= 1e-12
        else:
            assert res.label == "certified"
            assert math.isclose(res.criterion_value, expected, rel_tol=1e-12, abs_tol=0.0)
    assert optimize_design(model, CriterionSpec("SA", sa_refs=sa_references(model)[0])).label == "certified"


@given(log_v=st.floats(-6.0, 6.0), log_k=st.floats(-6.0, 6.0), b=st.floats(1.0, 10.0),
       floor=st.floats(0.01, 0.9))
@settings(max_examples=25, deadline=None)
def test_mm_r2_is_slr_r2_in_t(log_v, log_k, b, floor):
    # With t = K / (K + x), f = (1 - t) diag(1, -V/K) (1, t), and r^2 ignores both
    # factors: MM's r^2 on [eps K, b K] is SLR's on [1/(1 + b), 1/(1 + eps)].
    eps = floor * b
    model = mm_model(MMParams(V=10.0 ** log_v, K=10.0 ** log_k, b=b, eps=eps))
    mm = optimize_design(model, CriterionSpec("R2"))
    slr = optimize_design(slr_model(DesignSpace(1.0 / (1.0 + b), 1.0 / (1.0 + eps))), CriterionSpec("R2"))
    assert math.isclose(mm.criterion_value, slr.criterion_value, rel_tol=1e-12, abs_tol=0.0)


@given(log_v=st.floats(-6.0, 6.0), log_k=st.floats(-6.0, 6.0), b=st.floats(1.0, 10.0),
       floor=st.floats(0.0, 0.9))
@settings(max_examples=25, deadline=None)
# The benchmark's MM family, V in [1e-6, 1e-3] and K in [1e4, 1e6]: V/K from 1e-12 to 1e-7.
@example(log_v=-6.0, log_k=6.0, b=5.0, floor=0.1)
@example(log_v=-3.0, log_k=6.0, b=5.0, floor=0.1)
@example(log_v=-3.0, log_k=4.0, b=2.0, floor=0.45)
def test_mm_two_point_d_matches_closed_form(log_v, log_k, b, floor):
    params = MMParams(V=10.0 ** log_v, K=10.0 ** log_k, b=b, eps=floor * b)
    model = mm_model(params)
    res = optimize_design(model, CriterionSpec("D"))
    assert res.label == "certified"
    assert math.isclose(res.criterion_value, phi_d(fim(model, mm_d_optimal(params))),
                        rel_tol=1e-12, abs_tol=0.0)


@pytest.mark.parametrize("lo, hi", [(-5e-10, 5e-10), (-1e-20, 1e-20), (3e-30, 5e-30)])
def test_narrow_space_keeps_its_ends_apart(lo, hi):
    # The merge and containment tolerances are relative to the width.  Floored at
    # 1e-9 and 1e-12, they merged the ends of a space narrower than about 1e-9.
    model = slr_model(DesignSpace(lo, hi))
    res = optimize_design(model, CriterionSpec("D"))
    assert res.label == "certified" and res.design.xs.tolist() == [lo, hi]
    assert math.isclose(res.criterion_value, 2.0 / (hi - lo), rel_tol=1e-12, abs_tol=0.0)
    assert not model.space.contains(hi + 1e-3 * (hi - lo))


def rescaled(model: Model, s: np.ndarray) -> Model:
    """The model in the parameters diag(s)^-1 theta: f -> S f, so M -> S M S with S = diag(s)."""
    return Model(name=model.name, space=model.space, regressor=lambda x: model.regressor(x) * s,
                 regressor_dx=lambda x: model.regressor_dx(x) * s)


@given(mm=st.booleans(), lo=st.floats(-5.0, 5.0), width=st.floats(0.5, 10.0), log_v=st.floats(-2.0, 3.0),
       log_k=st.floats(-2.0, 3.0), floor=st.floats(0.0, 0.9),
       log_s=st.tuples(st.floats(-8.0, 8.0), st.floats(-8.0, 8.0)))
@settings(max_examples=15, deadline=None)
# SLR [0, 6] at s = (1e-7, 1e8): f's angle rounds to a quarter turn that f(0)^T f never reaches, which the
# chord took for one and found no root.  Spaces starting near 1e-300 (SLR) or 1e-78 (MM): the exact split of
# r^2 or EM leaves a det below the float range, at one scale or at both.
@example(mm=False, lo=0.0, width=6.0, log_v=0.0, log_k=0.0, floor=0.0, log_s=(-7.0, 8.0))
@example(mm=False, lo=4.855522930867115e-282, width=1.0, log_v=0.0, log_k=0.0, floor=0.0, log_s=(-6.0, -8.0))
@example(mm=False, lo=2.6343336817125698e-306, width=1.0, log_v=0.0, log_k=0.0, floor=0.0, log_s=(0.0, -2.0))
@example(mm=True, lo=0.0, width=1.0, log_v=1.0, log_k=0.0, floor=3.795108965499986e-78, log_s=(0.0, -1.0))
def test_optimum_is_free_of_the_parameter_scale(mm, lo, width, log_v, log_k, floor, log_s):
    # D, R, r^2, SA and C with c -> S c are functions of S M S that S changes by a
    # constant factor at most, so the optimal design is the same at every scale.  c
    # is never parallel to f here (SLR's f = (1, x); MM's f1 f2 < 0), which makes C's
    # optimum unique.  EM, the condition number of M, depends on the scale: only a
    # common factor s1 = s2 keeps its design, and otherwise each parametrization's
    # optimum beats the other's.
    s = 10.0 ** np.array(log_s)
    if mm:
        model, c = mm_model(MMParams(V=10.0 ** log_v, K=10.0 ** log_k, b=width, eps=floor * width)), (1.0, 1.0)
    else:
        model, c = slr_model(DesignSpace(lo, lo + width)), (0.0, 1.0)
    scaled, width = rescaled(model, s), model.space.width

    def spec(kind, on, scale):
        return {"C": CriterionSpec("C", c=tuple((scale * np.array(c)).tolist())),
                "SA": CriterionSpec("SA", sa_refs=sa_references(on)[0])}.get(kind) or CriterionSpec(kind)

    for kind in ("D", "R", "R2", "SA", "C"):
        res, res_s = optimize_design(model, spec(kind, model, 1.0)), optimize_design(scaled, spec(kind, scaled, s))
        assert res_s.label == res.label, kind
        if kind == "R2" and res.criterion_value <= 1e-12:  # r = 0 on a continuum of designs
            assert res_s.criterion_value <= 1e-12
            continue
        assert np.allclose(res_s.design.xs, res.design.xs, rtol=0.0, atol=1e-9 * width), kind
        assert np.allclose(res_s.design.ws, res.design.ws, rtol=0.0, atol=1e-9), kind
    em, em_s = (optimize_design(m, CriterionSpec("EM")) for m in (model, scaled))
    assert em_s.criterion_value <= criterion_value(fim(scaled, em.design), CriterionSpec("EM")) * (1.0 + 1e-12)
    assert em.criterion_value <= criterion_value(fim(model, em_s.design), CriterionSpec("EM")) * (1.0 + 1e-12)
    em_common = optimize_design(rescaled(model, np.full(2, s[0])), CriterionSpec("EM"))
    assert np.allclose(em_common.design.xs, em.design.xs, rtol=0.0, atol=1e-9 * width)
    assert np.allclose(em_common.design.ws, em.design.ws, rtol=0.0, atol=1e-9)


def test_mm_at_small_v_over_k_solves_every_kind():
    # V/K = 1e-4: the entries of M are below 1e-8, so a singularity test with an
    # absolute floor once rejected every design for every kind but C.  D, R2, CPB
    # and EM have closed forms here: r^2 is SLR's in t = K / (K + x), and f's angle
    # turns by less than a quarter, so EM = cot^2 of half of it.  R, SA, C and
    # COMPOUND carry their certificates.
    params = MMParams(V=0.0368, K=368.8, b=8.218, eps=6.502)
    model, space = mm_model(params), params.space()
    t = SlrInterval(1.0 / (1.0 + params.b), 1.0 / (1.0 + params.eps))
    r2 = phi_r2(fim(t.model(), r2_optimal_slr(t)))
    turn = math.atan(params.V / (params.K + space.lo)) - math.atan(params.V / (params.K + space.hi))
    closed = {"D": phi_d(fim(model, mm_d_optimal(params))), "R2": r2, "CPB": math.sqrt(r2),
              "EM": 1.0 / math.tan(turn / 2.0) ** 2}
    r_star = optimize_design(model, CriterionSpec("R")).criterion_value
    specs = {"C": CriterionSpec("C", c=(1.0, 0.0)), "SA": CriterionSpec("SA", sa_refs=sa_references(model)[0]),
             "COMPOUND": CriterionSpec("COMPOUND", lam=0.5, phi_d_star=closed["D"], phi_r_star=r_star)}
    for kind in ALL_KINDS:
        spec = specs.get(kind) or CriterionSpec(kind)
        res = optimize_design(model, spec)
        assert res.label == ("certified" if spec.is_convex else "best-found"), kind
        if kind in closed:
            assert math.isclose(res.criterion_value, closed[kind], rel_tol=1e-12, abs_tol=0.0), kind


@pytest.mark.parametrize("flags", [("--V", "0.0368", "--K", "368.8", "--b", "8.218", "--eps", "6.502"),
                                   ("--V", "1e-3", "--K", "1e6", "--b", "2", "--eps", "1e-3")],
                         ids=["v-over-k-1e-4", "v-over-k-1e-9"])
def test_pareto_at_small_v_over_k(capsys, flags):
    # Under an absolute floor of the singularity test every draw here was singular.
    assert cli_main(["pareto", "--model", "mm", *flags, "--n", "2000", "--seed", "1"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(err)["front_size"] == len(out.splitlines()) - 1 >= 1


def test_boundary_points_come_back_exact():
    # The D-, R- and SA-optimal supports on [-1, 1] are its ends.  A polish
    # that bisects toward an end of the space without evaluating it stops
    # beside the end.
    model = slr_model(DesignSpace(-1.0, 1.0))
    for spec in (CriterionSpec("D"), CriterionSpec("R"), CriterionSpec("SA", sa_refs=sa_references(model)[0])):
        for start in ([-0.5, 0.5], [-0.9, 0.2]):
            x = _refine(model, spec, np.array(start)).design.xs
            assert np.array_equal(x, [-1.0, 1.0]), (spec.kind, start)


@pytest.mark.parametrize("model_name, kind", [(m, k) for m in PINNED_MODELS for k in ("D", "R", "SA", "COMPOUND")])
def test_convex_search_polishes_one_support(monkeypatch, model_name, kind):
    # Each convex result carries its certificate, so one polished candidate is enough.
    supports = []

    def counted(model, spec, x):
        supports.append(np.shape(x))
        return _refine(model, spec, x)

    monkeypatch.setattr(optimize_module, "_refine", counted)
    spec = PINNED_SPECS[model_name].get(kind) or CriterionSpec(kind)
    res = optimize_design(PINNED_MODELS[model_name], spec)
    assert supports == [(2,)]
    assert res.label == "certified"


def test_a_one_point_reference_design_leaves_no_start(monkeypatch):
    # SA starts from the midpoint of its references' supports: a one-point c-optimal design leaves no
    # start, and the search runs.
    model, spec = PINNED_MODELS["slr"], PINNED_SPECS["slr"]["SA"]
    one, two = make_design([(0.0, 1.0)], model.space), make_design([(-1.3, 0.5), (4.2, 0.5)], model.space)
    assert _mix([one, two], (0.5, 0.5)) is None and _mix([two, two], (0.5, 0.5)).tolist() == [-1.3, 4.2]
    calls = []
    monkeypatch.setattr(optimize_module, "_stage1", lambda model, spec: calls.append(spec.kind) or _stage1(model, spec))
    assert optimize_design(model, spec, None) == optimize_design(model, spec) and calls == ["SA", "SA"]


class TestCOptimal:
    def test_slope_variance_on_symmetric_interval(self):
        model = slr_model(DesignSpace(-1.0, 1.0))
        res = c_optimal(model, (0.0, 1.0))
        assert abs(res.criterion_value - 1.0) < 1e-9
        assert np.allclose(res.design.xs, [-1.0, 1.0], atol=1e-9)
        assert np.allclose(res.design.ws, [0.5, 0.5], atol=1e-6)

    def test_intercept_variance_reaches_one(self):
        model = slr_model(DesignSpace(-1.0, 1.0))
        res = c_optimal(model, (1.0, 0.0))
        assert abs(res.criterion_value - 1.0) < 1e-9
        assert abs(res.design.xs @ res.design.ws) < 1e-6

    def test_brute_force_oracle(self):
        model = slr_model(DesignSpace(-1.0, 1.0))
        rng = np.random.default_rng(9)
        for c in [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, -1.0)]:
            res = c_optimal(model, c)
            best = math.inf
            for _ in range(4000):
                x1, x2 = np.sort(rng.uniform(-1, 1, 2))
                if x2 - x1 < 1e-6:
                    continue
                w = float(rng.uniform(0.01, 0.99))
                m = fim(model, make_design([(x1, w), (x2, 1 - w)], model.space))
                best = min(best, phi_c(m, c))
            assert res.criterion_value <= best * (1 + 1e-6)

    def test_singleton_estimable_path(self):
        # Intercept variance on [-1, 1]: the one-point design at 0 is estimable
        # with value 1; the returned optimum must match it.
        model = slr_model(DesignSpace(-1.0, 1.0))
        singleton = make_design([(0.0, 1.0)], model.space)
        assert math.isclose(phi_c(fim(model, singleton), (1.0, 0.0)), 1.0, rel_tol=1e-12)
        res = c_optimal(model, (1.0, 0.0))
        assert res.criterion_value <= 1.0 + 1e-9

    def test_rejects_zero_vector(self, slr_15):
        with pytest.raises(ValidationError):
            c_optimal(slr_15, (0.0, 0.0))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("c", [(math.nan, 1.0), (math.inf, 1.0)])
    def test_rejects_a_non_finite_c(self, c):
        # CriterionSpec's check, not "c is inestimable" after numpy warnings.
        with pytest.raises(ValidationError, match="c must be finite"):
            c_optimal(slr_model(DesignSpace(-1.0, 2.0)), c)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", ["slr", "mm"])
    @pytest.mark.parametrize("k", [-520, -3, 1, 500])
    def test_power_of_two_in_c_scales_the_result_exactly(self, name, k):
        # c -> 2^k c: the same design, iterations and label, u and gamma times 2^-k and the value times 4^k,
        # each exact, down to 2^-520, where |c|^2 is subnormal.
        model = PINNED_MODELS[name]
        for c in ((1.0, 0.0), (0.3, -1.7)):
            res, res_k = c_optimal(model, c), c_optimal(model, tuple(math.ldexp(v, k) for v in c))
            assert res_k.design == res.design and res_k.iterations == res.iterations
            assert res_k.label == res.label == "certified"
            assert [math.ldexp(v, k) for v in res_k.u] == list(res.u)
            assert math.ldexp(res_k.gamma, k) == res.gamma
            assert res_k.criterion_value == math.ldexp(res.criterion_value, 2 * k)

    def test_sa_references_self_efficiency(self, mm_half):
        (ref1, ref2), _ = sa_references(mm_half)
        assert ref1 > 0 and ref2 > 0
        # first term of the SA criterion equals 1 at the c1-optimal design
        res1 = c_optimal(mm_half, (1.0, 0.0))
        m = fim(mm_half, res1.design)
        assert abs(phi_c(m, (1.0, 0.0)) / ref1 - 1.0) <= 1e-9

    def test_positional_grid_size_is_rejected(self, slr_15):
        # A positional grid size from the old signatures must not pass as a tolerance.
        with pytest.raises(TypeError):
            c_optimal(slr_15, (1.0, 0.0), 401)
        with pytest.raises(TypeError):
            sa_references(slr_15, 201)


def exact_c_value(model: Model, design, c) -> float:
    """c^T M^-1 c as sums of squares, free of the cancellation of det M near a
    singular design: c^T adj(M) c = sum_i w_i (c x f_i)^2 and, by Cauchy-Binet,
    det M = sum_{i<j} w_i w_j (f_i x f_j)^2."""
    F = np.asarray(model.regressor(np.asarray(design.xs)), dtype=float)
    w = np.asarray(design.ws)
    cross = lambda p, q: p[..., 0] * q[..., 1] - p[..., 1] * q[..., 0]  # noqa: E731
    det = sum(w[i] * w[j] * cross(F[i], F[j]) ** 2
              for i in range(len(w)) for j in range(i + 1, len(w)))
    return float(np.sum(w * cross(np.asarray(c, dtype=float), F) ** 2) / det)


def random_c_problems(kind: str, seed: int, n: int):
    """n (model, c, flags) triples: random SLR intervals or MM models, c standard normal,
    and the model's CLI flags."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        if kind == "slr":
            a = float(rng.uniform(-5.0, 4.0))
            b = a + float(rng.uniform(0.5, 6.0))
            model, flags = slr_model(DesignSpace(a, b)), {"a": a, "b": b}
        else:
            b = float(rng.uniform(0.5, 10.0))
            params = MMParams(V=float(rng.uniform(1.0, 100.0)), K=float(rng.uniform(1.0, 500.0)),
                              b=b, eps=float(rng.uniform(0.0, 0.9 * b) * rng.integers(2)))
            model, flags = mm_model(params), {"V": params.V, "K": params.K, "b": b, "eps": params.eps}
        yield (model, tuple(rng.normal(size=2).tolist()),
               ("--model", kind, *(f"--{name}={value!r}" for name, value in flags.items())))


# Random SLR intervals, MM models, some of them from eps = 0, and logistic and exponential decay spaces.
C_MODELS = st.one_of(
    st.builds(lambda a, width: slr_model(DesignSpace(a, a + width)), st.floats(-5.0, 4.0), st.floats(0.5, 6.0)),
    st.builds(lambda v, k, b, floor: mm_model(MMParams(V=v, K=k, b=b, eps=floor * b)), st.floats(1.0, 100.0),
              st.floats(1.0, 500.0), st.floats(0.5, 10.0), st.one_of(st.just(0.0), st.floats(0.0, 0.9))),
    st.builds(lambda lo, width: logistic_model(lo, lo + width), st.floats(-20.0, 5.0), st.floats(0.5, 25.0)),
    st.builds(lambda lo, width: exp_decay_model(lo, lo + width), st.floats(0.0, 5.0), st.floats(0.5, 38.0)))


@given(model=C_MODELS, at=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), scale=st.floats(0.1, 10.0),
       log_mass=st.floats(-13.0, -1.0))
@settings(max_examples=200, deadline=None)
@example(model=mm_model(MMParams(b=5.0, eps=0.5)), scale=1.7, log_mass=-13.0,
         at=((241.474375 - 113.635) / 1022.715, (688.91 - 113.635) / 1022.715))
@example(model=slr_model(DesignSpace(0.0, 1.0)), at=(1e-9, 0.5), scale=1.0, log_mass=-13.0)
@example(model=mm_model(MMParams(V=1.0, K=1.0, b=0.5, eps=0.0)), at=(0.32059877678048615, 1.0), scale=1.0,
         log_mass=-4.0)
@example(model=mm_model(MMParams(V=1.0, K=1.0, b=5.375, eps=0.0)), at=(0.1, 1.0), scale=1.0, log_mass=-4.0)
def test_no_two_point_design_reads_below_the_c_optimum(model, at, scale, log_mass):
    # c = scale f(x0) has the value scale^2 on the one point x0, and no design beats the c-optimum; a design
    # with the minor mass 10^log_mass at x1 is nearly singular, and c1^2 m22 - 2 c1 c2 m12 + c2^2 m11 once
    # cancelled there to values below both, down to a negative variance.  On SLR [0, 1] with x0 in the first
    # grid cell, c lies on a flat edge of Elfving's set, where c_optimal once returned 1.005 for 1.  On the two
    # MM models from 0 the polish collapsed onto a point where f is not parallel to c and read 1.0007 and 1.0006.
    space = model.space
    x0, x1 = (space.lo + t * space.width for t in at)
    c = tuple((scale * model.regressor(np.array([x0]))[0]).tolist())
    assume(abs(x1 - x0) > space.merge_tol() and any(c))
    m = fim(model, make_design([(x0, 1.0 - 10.0 ** log_mass), (x1, 10.0 ** log_mass)], space))
    assume(not m.is_singular)
    assert phi_c(m, c) >= c_optimal(model, c).criterion_value * (1.0 - 1e-12)


class TestElfving:
    @pytest.mark.parametrize("kind", ["slr", "mm"])
    def test_dual_certificate(self, kind):
        for model, c, _ in random_c_problems(kind, 11, 30):
            res = c_optimal(model, c)
            u = np.array(res.u)
            assert abs(u @ np.array(c) - 1.0) <= 1e-12
            g = np.abs(np.asarray(model.regressor(model.space.grid(1000))) @ u)
            assert np.max(g) <= res.gamma * (1.0 + 1e-12)
            assert math.isclose(res.criterion_value, res.gamma ** -2, rel_tol=1e-12)
            assert res.label == "certified"

    def test_slr_closed_forms_off_zero(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            lo, hi = np.sort(rng.uniform(0.01, 6.0, 2)) * rng.choice([-1.0, 1.0])
            a, b = min(lo, hi), max(lo, hi)
            model = slr_model(DesignSpace(a, b))
            assert math.isclose(c_optimal(model, (0.0, 1.0)).criterion_value, 4.0 / (b - a) ** 2,
                                rel_tol=1e-12)
            assert math.isclose(c_optimal(model, (1.0, 0.0)).criterion_value,
                                ((abs(a) + abs(b)) / (b - a)) ** 2, rel_tol=1e-12)

    def test_one_point_optima_give_the_singleton_value(self):
        slr = slr_model(DesignSpace(-1.0, 1.0))
        at_zero = phi_c(fim(slr, make_design([(0.0, 1.0)], slr.space)), (1.0, 0.0))
        res = c_optimal(slr, (1.0, 0.0))
        assert math.isclose(res.criterion_value, at_zero, rel_tol=1e-12)
        assert res.design.support_size == 2  # a non-singular optimum wins the tie
        mm = PINNED_MODELS["mm"]
        for x0 in (241.474375, 624.9925, mm.space.hi):
            c = tuple(1.7 * np.asarray(mm.regressor(np.array([x0])))[0])
            res = c_optimal(mm, c)
            assert res.design.support_size == 1 and res.label == "certified"
            assert math.isclose(res.design.xs[0], x0, rel_tol=1e-12)
            assert math.isclose(res.criterion_value,
                                phi_c(fim(mm, make_design([(x0, 1.0)], mm.space)), c), rel_tol=1e-12)

    @pytest.mark.parametrize("c", [(1.0, 1e-9), (1.0, 1e-6), (1.0, 1e-4), (3.0, 3e-6), (1.0, 1e-20)])
    def test_flat_edge_next_to_an_end_is_certified(self, c):
        # On SLR [0, 1], c = k f(x0) with x0 in the first grid cell lies on the flat edge of Elfving's set
        # from f(0) to f(1): where the two end lines cross, t cancels to about EPS, and slopes of that size
        # once moved the points to the best-found {1/399: 1} at 1.005 k^2.
        res = c_optimal(slr_model(DesignSpace(0.0, 1.0)), c)
        assert res.label == "certified" and math.isclose(res.criterion_value, c[0] ** 2, rel_tol=1e-12)

    @pytest.mark.parametrize("kind", ["slr", "mm"])
    def test_never_worse_than_the_search(self, kind):
        # The search's value is taken at its design without cancellation: near a
        # singular design phi_c's det carries rounding that has read up to 1e-5
        # below the optimum.
        for model, c, _ in random_c_problems(kind, 13, 30):
            found = optimize_design(model, CriterionSpec("C", c=c))
            bound = exact_c_value(model, found.design, c) * (1.0 + 1e-12)
            assert c_optimal(model, c).criterion_value <= bound

    @pytest.mark.parametrize("kind", ["slr", "mm"])
    @pytest.mark.parametrize("n_support", [2, 3, 4])
    def test_optimize_design_is_c_optimal(self, capsys, kind, n_support):
        # Elfving's set is planar, so no support size needs more than c_optimal's two
        # points: optimal gives c_optimal's design at every --n-support.
        for model, c, flags in random_c_problems(kind, 17, 30):
            code = cli_main(["optimal", *flags, "--criterion", "C", f"--c={c[0]!r},{c[1]!r}",
                             f"--n-support={n_support}"])
            res = json.loads(capsys.readouterr().out)
            dual = c_optimal(model, c)
            assert [(p["x"], p["w"]) for p in res["design"]["points"]] == list(dual.design.points)
            assert res["criterion_value"] == dual.criterion_value
            assert code == 0 and res["label"] == dual.label == "certified"
            assert optimize_design(model, CriterionSpec("C", c=c)) == dual

    def test_mm_lower_point_closed_form(self):
        # mm_r_start starts the R polish here: on [0, bK] the c-optimal designs
        # for e_1 and e_2 share the lower point (sqrt 2 - 1) b K / ((2 - sqrt 2) b + 1).
        for b in (0.5, 1.0, 5.0, 50.0):
            model = mm_model(MMParams(V=43.73, K=227.27, b=b, eps=0.0))
            x = (math.sqrt(2.0) - 1.0) * b / ((2.0 - math.sqrt(2.0)) * b + 1.0) * 227.27
            for c in ((1.0, 0.0), (0.0, 1.0)):
                w = optimize_weights(model, [x, model.space.hi], CriterionSpec("C", c=c))
                at_x = phi_c(fim(model, make_design([(x, w[0]), (model.space.hi, w[1])], model.space)), c)
                assert math.isclose(at_x, c_optimal(model, c).criterion_value, rel_tol=1e-12)

    @pytest.mark.parametrize("name", ["slr", "mm"])
    def test_sa_references_match_the_recorded_ones_without_a_search(self, name, monkeypatch):
        def no_search(*args):
            raise AssertionError("sa_references ran optimize_design")
        monkeypatch.setattr(optimize_module, "optimize_design", no_search)
        refs, _ = sa_references(PINNED_MODELS[name])
        for got, recorded in zip(refs, PINNED_SPECS[name]["SA"].sa_refs):
            assert math.isclose(got, recorded, rel_tol=1e-12)


@pytest.fixture(scope="module")
def tables():
    return mm_tables(MMParams(), eps_list=[0.0, 0.5], compat=True)


class TestMMTables:
    def test_shapes(self, tables):
        assert len(tables.designs) == 10          # 5 criteria x 2 eps
        assert len(tables.efficiencies) == 10

    def test_compat_collapse_rows(self, tables):
        rows = {(r.eps, r.criterion): r for r in tables.designs}
        for kind in ("EM", "R2"):
            row = rows[(0.0, kind)]
            assert row.design is None and row.a == 0.0 and row.p == 1.0
        eff = {(r.eps, r.criterion): r for r in tables.efficiencies}
        em_row = eff[(0.0, "EM")]
        assert em_row.eff_em == 1.0
        assert em_row.eff_d is None and em_row.r2 is None

    def test_known_cells(self, tables):
        rows = {(r.eps, r.criterion): r for r in tables.designs}
        assert abs(rows[(0.5, "D")].a - 5 / 7) < 1e-9
        assert abs(rows[(0.5, "D")].p - 0.5) < 1e-9
        assert abs(rows[(0.5, "R")].a - 0.55) < 0.02
        assert abs(rows[(0.5, "R")].p - 0.53) < 0.02
        assert abs(rows[(0.5, "EM")].a - 0.50) < 0.02
        assert abs(rows[(0.5, "EM")].p - 0.86) < 0.02
        eff = {(r.eps, r.criterion): r for r in tables.efficiencies}
        assert abs(eff[(0.5, "D")].r2 - 0.69) < 0.01
        assert abs(eff[(0.5, "D")].eff_d - 1.0) < 1e-9
        assert eff[(0.5, "R")].eff_r == pytest.approx(1.0, abs=1e-6)

    def test_strict_mode_reports_best_found_at_zero_floor(self):
        t = mm_tables(MMParams(), eps_list=[0.0], compat=False)
        row = next(r for r in t.designs if r.criterion == "EM")
        assert row.design is not None

    def test_csv_rendering_deterministic(self, tables):
        a = mm_designs_csv(tables)
        b = mm_designs_csv(tables)
        assert a == b
        assert a.splitlines()[0] == "eps,criterion,a,p"
        e = mm_efficiencies_csv(tables)
        assert e.splitlines()[0] == "eps,criterion,Eff_D,Eff_SA,Eff_R,Eff_EM,Eff_r2,r2"

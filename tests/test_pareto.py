"""Pareto fronts, compound-criterion sweeps, and fixed-support criterion sweeps."""

from __future__ import annotations

import json
import math
import signal
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optdesign import (
    CriterionSpec,
    Design,
    DesignSpace,
    Model,
    OptimizationError,
    SingularDesignError,
    ValidationError,
    fim,
    make_design,
    phi_d,
    phi_r,
    phi_r2,
    slr_model,
)
from optdesign import pareto as pareto_module
from optdesign.cli import _reference_stars, main
from optdesign.designs import fim_entries
from optdesign.mm import MMParams, mm_model
from optdesign.optimize import optimize_design
from optdesign.pareto import (
    MARGIN,
    TIE_TOL,
    FrontPoint,
    SweepRow,
    _dominated,
    _sample,
    _survivors,
    compound_sweep,
    criterion_sweep,
    criterion_sweep_csv,
    evaluate_front_points,
    front_csv,
    has_mutually_nondominated_rows,
    pareto_front,
    sample_two_point_designs,
    sampled_front,
)
from optdesign.slr import SlrInterval

GOLDEN = Path(__file__).parent / "golden"

DUMMY = make_design([(0.0, 0.5), (1.0, 0.5)], DesignSpace(0.0, 1.0))


def fp(eff_d, eff_r):
    return FrontPoint(design=DUMMY, eff_d=eff_d, eff_r=eff_r, r2=0.0)


class TestSampler:
    def test_reproducible_and_valid(self, mm_half):
        a = sample_two_point_designs(mm_half, 200, seed=11)
        b = sample_two_point_designs(mm_half, 200, seed=11)
        assert a == b
        assert len(a) == 200
        for d in a:
            assert d.support_size == 2
            assert not fim(mm_half, d).is_singular
            assert all(0.0 < w < 1.0 for w in d.ws)

    def test_seeds_differ(self, mm_half):
        assert (sample_two_point_designs(mm_half, 50, seed=1)
                != sample_two_point_designs(mm_half, 50, seed=2))

    def test_rejects_nonpositive_n(self, mm_half):
        with pytest.raises(ValidationError):
            sample_two_point_designs(mm_half, 0, seed=1)


class TestFront:
    def test_basic_dominance(self):
        pts = [fp(1.0, 0.9), fp(0.9, 1.0), fp(0.8, 0.8)]
        front = pareto_front(pts)
        assert [(p.eff_d, p.eff_r) for p in front] == [(1.0, 0.9), (0.9, 1.0)]

    def test_single_point(self):
        assert len(pareto_front([fp(0.5, 0.5)])) == 1

    def test_empty_raises(self):
        with pytest.raises(ValidationError):
            pareto_front([])

    def test_exact_ties_kept(self):
        pts = [fp(1.0, 0.9), fp(1.0, 0.9), fp(0.5, 0.5)]
        assert len(pareto_front(pts)) == 2

    @given(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_idempotent_and_nondominated(self, pairs):
        pts = [fp(d, r) for d, r in pairs]
        front = pareto_front(pts)
        again = pareto_front(front)
        assert [(p.eff_d, p.eff_r) for p in again] == [(p.eff_d, p.eff_r) for p in front]
        # no front member dominated by any input point
        for p in front:
            for q in pts:
                assert not (q.eff_d >= p.eff_d and q.eff_r >= p.eff_r
                            and (q.eff_d - p.eff_d > 1e-12 or q.eff_r - p.eff_r > 1e-12))

    def test_sorted_by_eff_d_descending(self):
        front = pareto_front([fp(0.7, 1.0), fp(1.0, 0.7), fp(0.85, 0.85)])
        effs = [p.eff_d for p in front]
        assert effs == sorted(effs, reverse=True)


@pytest.fixture(scope="module")
def mm_stars():
    model = mm_model(MMParams(eps=0.5))
    d_star = optimize_design(model, CriterionSpec("D")).criterion_value
    r_star = optimize_design(model, CriterionSpec("R")).criterion_value
    return model, d_star, r_star


class TestMMFront:
    def test_front_properties(self, mm_stars):
        model, d_star, r_star = mm_stars
        designs = sample_two_point_designs(model, 1000, seed=20260810)
        points = evaluate_front_points(model, designs, d_star, r_star)
        front = pareto_front(points)
        assert 1 <= len(front) <= 30
        assert min(p.eff_d for p in front) >= 0.96
        assert max(p.eff_d for p in front) <= 1.0 + 1e-9
        # no member dominated by any sample (exhaustive)
        for p in front:
            for q in points:
                assert not (q.eff_d >= p.eff_d and q.eff_r >= p.eff_r
                            and (q.eff_d - p.eff_d > 1e-12 or q.eff_r - p.eff_r > 1e-12))
        csv = front_csv(front, x_scale=227.27)
        assert csv.splitlines()[0] == "eff_D,eff_R,p,a,r2"


class TestCompoundSweep:
    def test_endpoints_recover_pure_optima(self, mm_stars):
        model, d_star, r_star = mm_stars
        rows = compound_sweep(model, [0.0, 0.5, 1.0], d_star, r_star)
        m0 = fim(model, rows[0].design)
        m1 = fim(model, rows[-1].design)
        assert abs(phi_d(m0) - d_star) <= 1e-6 * d_star
        assert abs(phi_r(m1) - r_star) <= 1e-6 * r_star

    def test_efficiency_monotone_in_lambda(self, mm_stars):
        model, d_star, r_star = mm_stars
        lams = [0.0, 0.25, 0.5, 0.75, 1.0]
        rows = compound_sweep(model, lams, d_star, r_star)
        for prev, cur in zip(rows, rows[1:]):
            assert cur.eff_d <= prev.eff_d + 1e-6
            assert cur.eff_r >= prev.eff_r - 1e-6

    def test_middle_design_balances(self):
        # Any compound optimum is at least as efficient as the worse of the
        # pure optima under both criteria; the cross-efficiencies bound it.
        model = slr_model(DesignSpace(1.0, 5.0))
        d_star = optimize_design(model, CriterionSpec("D")).criterion_value
        r_star = optimize_design(model, CriterionSpec("R")).criterion_value
        rows = compound_sweep(model, [0.5], d_star, r_star)
        assert rows[0].eff_d >= 0.934 and rows[0].eff_r >= 0.934

    def test_sweep_csv_header(self):
        model = slr_model(DesignSpace(1.0, 5.0))
        csv_text = criterion_sweep_csv(model, 1.0, [0.5])
        assert csv_text.splitlines()[0] == "p,phi_D,phi_R,phi_r2,corr"

    def test_validation(self, mm_stars):
        model, d_star, r_star = mm_stars
        with pytest.raises(ValidationError):
            compound_sweep(model, [1.5], d_star, r_star)
        with pytest.raises(ValidationError):
            compound_sweep(model, [0.5], -1.0, r_star)


class TestCriterionSweep:
    def test_identity_holds_rowwise(self):
        model = mm_model(MMParams(eps=0.0))
        rows = criterion_sweep(model, 0.71, [i / 50 for i in range(1, 50)])
        for r in rows:
            lhs = r.phi_r ** 2
            rhs = r.phi_d ** 2 / (1.0 - r.phi_r2)
            assert abs(lhs - rhs) <= 1e-10 * max(lhs, rhs)

    def test_mm_phi_d_minimized_at_half(self):
        # a = 0.71K is (nearly) the D-optimal lower point, so the sweep's
        # phi_D minimum over p sits at 1/2.
        model = mm_model(MMParams(eps=0.0))
        p_grid = [i / 100 for i in range(1, 100)]
        rows = criterion_sweep(model, 5.0 / 7.0, p_grid)
        best = min(rows, key=lambda r: r.phi_d)
        assert abs(best.p - 0.5) < 0.011

    def test_loop_effect_slr(self):
        model = slr_model(DesignSpace(0.5, 5.0))
        rows = criterion_sweep(model, 0.5, [i / 200 for i in range(1, 200)])
        assert has_mutually_nondominated_rows(rows)

    def test_loop_effect_mm(self):
        model = mm_model(MMParams(eps=0.0))
        rows = criterion_sweep(model, 0.71, [i / 200 for i in range(1, 200)])
        assert has_mutually_nondominated_rows(rows)

    def test_validation(self):
        model = slr_model(DesignSpace(0.5, 5.0))
        with pytest.raises(ValidationError):
            criterion_sweep(model, 9.0, [0.5])     # outside space
        with pytest.raises(ValidationError):
            criterion_sweep(model, 0.5, [0.0])     # boundary weight


# --- array paths against their scalar definitions -------------------------------

def reference_sample(model, n, seed):
    """The scalar sampler the array path replaced: one attempt of three uniforms at a time."""
    rng = np.random.default_rng(seed)
    space = model.space
    out = []
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


def reference_dominated(d, r):
    """The O(n^2) definition: dominated by a point at least as good on both, better by > TIE_TOL on one."""
    d, r = np.asarray(d, dtype=float), np.asarray(r, dtype=float)
    return [bool(np.any((d >= dp) & (r >= rp) & ((d - dp > TIE_TOL) | (r - rp > TIE_TOL))))
            for dp, rp in zip(d, r)]


def scaled_slr(lo, hi, scale):
    # f(x) = (1, scale x): on a space narrower than the merge tolerance's
    # floor of 1e-9, a share of the draws is merged, not singular.
    return Model("scaled", DesignSpace(lo, hi),
                 lambda x: np.stack([np.ones_like(x), scale * np.asarray(x)], axis=-1))


SAMPLER_MODELS = {
    "slr": lambda: slr_model(DesignSpace(-1.3, 4.2)),
    "mm": lambda: mm_model(MMParams(eps=0.5)),
    "mm-v10-k50": lambda: mm_model(MMParams(V=10.0, K=50.0, b=3.0, eps=0.0)),
    "slr-wide": lambda: slr_model(DesignSpace(-3e4, 5e5)),
    "slr-half-singular": lambda: slr_model(DesignSpace(0.0, 1e-5)),
    "merging": lambda: scaled_slr(0.0, 1e-8, 1e6),
}


class TestArraySampler:
    @pytest.mark.parametrize("name", sorted(SAMPLER_MODELS))
    @pytest.mark.parametrize("seed", [0, 11, 20260810])
    def test_matches_scalar_loop(self, name, seed):
        model = SAMPLER_MODELS[name]()
        n = 5000 if name == "slr-half-singular" else 1200   # several blocks there
        got = sample_two_point_designs(model, n, seed)
        assert got == reference_sample(model, n, seed)
        assert all(type(v) is float for d in got for pt in d.points for v in pt)

    @pytest.mark.parametrize("name", ["slr", "mm"])
    def test_block_boundaries(self, name):
        # Blocks hold 4096 attempts: n on either side of one and two blocks.  The scalar
        # loop takes attempts in order, so its first n designs are its result for n.
        model = SAMPLER_MODELS[name]()
        reference, longest = reference_sample(model, 8193, 7), sample_two_point_designs(model, 8193, 7)
        for n in (1, 4095, 4096, 4097, 8193):
            got = sample_two_point_designs(model, n, 7)
            assert got == reference[:n] and got == longest[:n]

    def test_front_of_samples_equals_composition(self):
        # Every sampler model, seed and n on either side of a block: the prefilter's column efficiencies
        # drop only dominated rows, and the accepted rows' det is fim_entries' bit for bit.
        for name in sorted(SAMPLER_MODELS):
            model = SAMPLER_MODELS[name]()
            lo, hi = model.space.lo, model.space.hi
            m = fim(model, make_design([(0.5 * (lo + hi), 0.5), (hi, 0.5)], model.space))
            d_star, r_star = phi_d(m), phi_r(m)
            for seed in (0, 11, 20260810):
                xa, xb, wa, wb, _, _, det = _sample(model, 20_000, seed)
                assert np.array_equal(det, fim_entries(model, np.stack([xa, xb], 1), np.stack([wa, wb], 1))[3])
                for n in (1, 4097, 20_000):
                    points = evaluate_front_points(model, sample_two_point_designs(model, n, seed),
                                                   d_star, r_star)
                    assert sampled_front(model, n, seed, d_star, r_star) == pareto_front(points), (name, seed, n)

    def test_all_singular_space_raises(self):
        # f = x (1, 2) spans one ray, so every draw is singular; the scalar loop never ended.
        model = Model(name="rank-one", space=DesignSpace(-1e-7, 1e-7),
                      regressor=lambda x: np.multiply.outer(x, (1.0, 2.0)))
        previous = signal.signal(signal.SIGALRM, lambda *_: pytest.fail("sampler did not stop"))
        signal.alarm(30)
        try:
            with pytest.raises(OptimizationError, match=r"\[-1e-07, 1e-07\]"):
                sample_two_point_designs(model, 1, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    @pytest.mark.filterwarnings("error")
    def test_sampled_rows_that_overflow_raise(self):
        model = Model("steep", DesignSpace(-2.0, 2.0), lambda x: np.stack([np.ones_like(x), 1e160 * x], axis=-1))
        with pytest.raises(OptimizationError, match="information matrix overflows a float"):
            sampled_front(model, 100, 0, 1.0, 1.0)

    @pytest.mark.filterwarnings("error")
    def test_non_finite_regressor_raises(self):
        model = Model("holed", DesignSpace(-2.0, 2.0),
                      lambda x: np.stack([np.ones_like(x), np.where(x > 1.0, np.nan, x)], axis=-1))
        with pytest.raises(ValidationError, match="regressor is non-finite"):
            sampled_front(model, 100, 0, 1.0, 1.0)

    def test_heap_peak(self, mm_stars):
        # Blocks of 4096 attempts as columns and the 20,000 kept rows: 2.68 MB at its peak,
        # against 3.24 MB with each block's 2x2 matrices, 6.0 MB for one block of 25,000
        # attempts and about 12 MB when 20,000 designs and front points were objects.
        model, d_star, r_star = mm_stars
        tracemalloc.start()
        try:
            sampled_front(model, 20_000, 5, d_star, r_star)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5e6


class TestArrayEvaluation:
    def test_values_match_scalar_criteria(self, mm_half):
        rng = np.random.default_rng(3)
        space = mm_half.space
        designs = [make_design(list(zip(rng.uniform(space.lo, space.hi, k),
                                        rng.uniform(0.1, 1.0, k))), space)
                   for k in (2, 3, 4, 2, 3) for _ in range(20)]
        points = evaluate_front_points(mm_half, designs, 70.0, 120.0)
        for d, p in zip(designs, points):
            m = fim(mm_half, d)
            assert (p.design, p.eff_d, p.eff_r, p.r2) == (d, 70.0 / phi_d(m), 120.0 / phi_r(m),
                                                         phi_r2(m))

    def test_singular_design_raises(self, slr_01):
        with pytest.raises(SingularDesignError):
            evaluate_front_points(slr_01, [make_design([(0.5, 1.0)], slr_01.space)], 1.0, 1.0)

    def test_stacked_entries_equal_fim(self, mm_half):
        rng = np.random.default_rng(4)
        space = mm_half.space
        for k in (2, 3, 4):
            xs = np.sort(rng.uniform(space.lo, space.hi, (50, k)), axis=1)
            ws = rng.uniform(0.05, 1.0, (50, k))
            ws /= ws.sum(axis=1, keepdims=True)
            entries = np.stack(fim_entries(mm_half, xs, ws), axis=1).tolist()
            for x, w, e in zip(xs.tolist(), ws.tolist(), entries):
                m = fim(mm_half, Design(points=tuple(zip(x, w))))
                assert e == [m.m11, m.m12, m.m22, m.det]


def tie_heavy(rng, n):
    grid = rng.integers(0, 8, n) / 10.0
    return grid + rng.choice([0.0, 5e-13, 1e-12, 2e-12], n)


class TestSortAndSweepMask:
    @pytest.mark.parametrize("seed", range(40))
    def test_tie_heavy_inputs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 120))
        d, r = tie_heavy(rng, n), tie_heavy(rng, n)
        assert _dominated(d, r).tolist() == reference_dominated(d, r)

    @given(st.lists(st.tuples(
        st.sampled_from([0.0, -0.0, 0.1, 0.3, 1.0, math.inf, -math.inf, math.nan]),
        st.sampled_from([0.0, 5e-13, 1e-12, 2e-12]),
        st.sampled_from([0.0, 0.1, 0.2, 1.0, math.inf, math.nan]),
        st.sampled_from([0.0, 5e-13, 1e-12, 2e-12])), max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_matches_definition_with_non_finite_values(self, rows):
        d = np.array([a + b for a, b, _, _ in rows], dtype=float)
        r = np.array([c + e for _, _, c, e in rows], dtype=float)
        with np.errstate(invalid="ignore"):
            assert _dominated(d, r).tolist() == reference_dominated(d, r)


def within_ulps(rng, d, k=2):
    """d moved by up to k ulps either way, as the prefilter's Eff_D and Eff_R may be."""
    for _ in range(k):
        away = np.nextafter(d, rng.choice([-math.inf, math.inf], len(d)))
        d = np.where(rng.random(len(d)) < 0.5, d, away)
    return d


def assert_prefilter_exact(d, r, d_near, r_near):
    """_survivors on (d_near, r_near) drops only dominated rows, and _dominated on
    the survivors alone gives the flags of the O(n^2) definition on all rows."""
    flags = reference_dominated(d, r)
    rows = _survivors(d_near, r_near)
    assert all(flags[i] for i in sorted(set(range(len(d))) - set(rows.tolist())))
    assert _dominated(d[rows], r[rows]).tolist() == [flags[i] for i in rows.tolist()]
    return rows


class TestPrefilter:
    @pytest.mark.parametrize("seed", range(40))
    def test_tie_heavy_inputs_within_ulps(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 120))
        d, r = tie_heavy(rng, n), tie_heavy(rng, n)
        assert_prefilter_exact(d, r, within_ulps(rng, d), within_ulps(rng, r))

    @given(st.lists(st.tuples(
        st.sampled_from([0.0, 0.1, 0.3, 1.0, math.inf, math.nan]),
        st.sampled_from([0.0, 5e-13, 1e-12, 2e-12]),
        st.sampled_from([0.0, 0.1, 0.2, 1.0, math.inf, -math.inf, math.nan]),
        st.sampled_from([0.0, 5e-13, 1e-12, 2e-12])), min_size=1, max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_matches_definition_with_non_finite_values(self, rows):
        d = np.array([a + b for a, b, _, _ in rows], dtype=float)
        r = np.array([c + e for _, _, c, e in rows], dtype=float)
        with np.errstate(invalid="ignore"):
            assert_prefilter_exact(d, r, d, r)

    def test_single_row_and_exact_duplicates(self):
        one = np.array([0.5])
        assert _survivors(one, one).tolist() == [0]
        d = np.array([1.0, 1.0, 0.5, 0.5, 0.9])
        r = np.array([0.5, 0.5, 1.0, 1.0, 0.2])
        assert assert_prefilter_exact(d, r, d, r).tolist() == [0, 1, 2, 3]

    def test_approximation_that_ties_rows_an_ulp_apart(self):
        # Exact Eff_D puts row 1 an ulp above row 0 and the approximation ties
        # them: row 1 is on the front, though row 0 has the larger Eff_R.
        d = np.array([np.nextafter(1.0, 0.0), 1.0])
        r = np.array([1.0, 0.5])
        assert assert_prefilter_exact(d, r, np.ones(2), r).tolist() == [0, 1]

    @pytest.mark.parametrize("r_row,gap", [(0.5, 0.0), (1.0, TIE_TOL)])  # test (a), then (b)
    def test_rows_ulps_apart_across_the_margin(self, r_row, gap):
        # 601 rows 1 ulp apart around 1 - 2 MARGIN - gap, every one dominated
        # by the anchor (1, 1); the prefilter keeps those within its margin.
        # Eff_R is widened too, so the rows' r sits past the margin, at
        # r_row - 2 MARGIN - gap / 2: for (b), equal r is no sure dominance,
        # and r within TIE_TOL of the anchor's keeps (a) from deciding.  Then
        # the same with the two coordinates exchanged.
        center = 1.0 - 2.0 * MARGIN - gap
        d = np.r_[1.0, center + np.arange(-300, 301) * np.spacing(center)]
        r = np.r_[1.0, np.full(601, r_row - 2.0 * MARGIN - 0.5 * gap)]
        for a, b in ((d, r), (r, d)):
            rows = assert_prefilter_exact(a, b, a, b)
            assert 1 < len(rows) < len(a)


FRONT_CASES = {
    "slr[-6,-0.5]": lambda: SlrInterval(-6.0, -0.5),
    "slr[0,3]": lambda: SlrInterval(0.0, 3.0),
    "slr[-1,1]": lambda: SlrInterval(-1.0, 1.0),
    "mm-eps0": lambda: MMParams(b=5.0, eps=0.0),
    "mm-eps0.5": lambda: MMParams(b=5.0, eps=0.5),
}


@pytest.fixture(scope="module")
def front_case():
    cache = {}

    def get(name):
        if name not in cache:
            params = FRONT_CASES[name]()
            model = (slr_model(DesignSpace(params.a, params.b)) if isinstance(params, SlrInterval)
                     else mm_model(params))
            cache[name] = (model, *_reference_stars(model, params)[0])
        return cache[name]
    return get


class TestPrefilteredFront:
    @pytest.mark.parametrize("name", sorted(FRONT_CASES))
    @pytest.mark.parametrize("n", [1, 2, 500, 20_000])
    def test_equals_composition(self, front_case, name, n):
        model, d_star, r_star = front_case(name)
        points = evaluate_front_points(model, sample_two_point_designs(model, n, 3), d_star, r_star)
        assert sampled_front(model, n, 3, d_star, r_star) == pareto_front(points)

    @pytest.mark.parametrize("name", ["slr[-6,-0.5]", "mm-eps0"])
    @pytest.mark.parametrize("seed", [5, 20260810])
    def test_exact_pass_sees_few_rows(self, front_case, monkeypatch, name, seed):
        model, d_star, r_star = front_case(name)
        seen = []
        head_criteria = pareto_module._head_criteria

        def counted(m11, m12, m22, det):
            seen.append(len(m11))
            return head_criteria(m11, m12, m22, det)
        monkeypatch.setattr(pareto_module, "_head_criteria", counted)
        sampled_front(model, 20_000, seed, d_star, r_star)
        assert len(seen) == 1 and 1 <= seen[0] <= 64


def reference_tradeoff(rows):
    vals = [(r.phi_d, r.phi_r) for r in rows if math.isfinite(r.phi_d) and math.isfinite(r.phi_r)]
    return any((d_i < d_j and r_i > r_j) for d_i, r_i in vals for d_j, r_j in vals)


class TestMutuallyNondominatedRows:
    @given(st.lists(st.tuples(
        st.sampled_from([0.0, -0.0, 1.0, 1.5, 2.0, math.inf, math.nan]),
        st.sampled_from([0.0, 1.0, 1.5, 2.0, 2.0 + 4e-16, -math.inf, math.nan])), max_size=25))
    @settings(max_examples=300, deadline=None)
    def test_matches_pairwise_oracle(self, pairs):
        rows = [SweepRow(p=0.5, phi_d=d, phi_r=r, phi_r2=0.0, corr=0.0) for d, r in pairs]
        assert has_mutually_nondominated_rows(rows) == reference_tradeoff(rows)

    def test_ties_in_phi_d_do_not_trade_off(self):
        rows = [SweepRow(0.5, 1.0, r, 0.0, 0.0) for r in (1.0, 2.0, 3.0)]
        assert not has_mutually_nondominated_rows(rows)
        assert has_mutually_nondominated_rows(rows + [SweepRow(0.5, 0.5, 2.5, 0.0, 0.0)])


# --- CLI output recorded before the array path: byte for byte ------------------

SLR_FLAGS = ("--model", "slr", "--a", "-1.3", "--b", "4.2")
MM_FLAGS = ("--model", "mm", "--b", "5", "--eps", "0.5")


def run_cli(capsys, *argv):
    assert main(list(argv)) == 0
    captured = capsys.readouterr()
    return captured.out, captured.err


@pytest.mark.parametrize("model", ["slr", "mm"])
@pytest.mark.parametrize("seed", [5, 20260810])
def test_pareto_golden(capsys, model, seed):
    flags = SLR_FLAGS if model == "slr" else MM_FLAGS
    out, err = run_cli(capsys, "pareto", *flags, "--n", "20000", "--seed", str(seed))
    assert out == (GOLDEN / f"pareto-{model}-seed{seed}.csv").read_text()
    assert err == (GOLDEN / f"pareto-{model}-seed{seed}.meta").read_text()


PARETO_GOLDENS = ["slr-seed5", "slr-seed20260810", "mm-seed5", "mm-seed20260810"]


def _golden_model(name: str) -> tuple[dict, Model]:
    """The meta line of a pareto golden and the model it was sampled on."""
    meta = json.loads((GOLDEN / f"pareto-{name}.meta").read_text())
    info = meta["model"]
    if info["model"] == "slr":
        return meta, slr_model(DesignSpace(info["a"], info["b"]))
    return meta, mm_model(MMParams(V=info["V"], K=info["K"], b=info["b"], eps=info["eps"],
                                   eps_in_k_units=info["eps_in_k_units"]))


@pytest.mark.parametrize("name", PARETO_GOLDENS)
def test_pareto_golden_rebuilt_from_its_stars(name):
    # A golden depends on the optimizer only through phi_d_star and
    # phi_r_star in its meta line.  Fed those, the sampler and the front
    # rebuild the CSV byte for byte, so an optimizer change that moves a
    # star's last ulps moves only the stars and the eff_D/eff_R columns.
    meta, model = _golden_model(name)
    x_scale = model.nominal_params[1] if model.name == "michaelis_menten" else 1.0
    front = sampled_front(model, meta["n"], meta["seed"], meta["phi_d_star"], meta["phi_r_star"])
    assert len(front) == meta["front_size"]
    assert front_csv(front, x_scale=x_scale) == (GOLDEN / f"pareto-{name}.csv").read_text()


@pytest.mark.parametrize("model,flags,a_fixed", [("slr", SLR_FLAGS, "0.35"),
                                                 ("mm", MM_FLAGS, "0.71")])
def test_sweep_golden(capsys, model, flags, a_fixed):
    out, _ = run_cli(capsys, "sweep", *flags, "--a-fixed", a_fixed)
    assert out == (GOLDEN / f"sweep-{model}.csv").read_text()


@pytest.mark.parametrize("model,flags", [("slr", ("--model", "slr", "--a", "1", "--b", "5")),
                                         ("mm", MM_FLAGS)])
def test_compound_sweep_golden(capsys, model, flags):
    out, _ = run_cli(capsys, "sweep", "--sweep-kind", "compound", *flags)
    assert out == (GOLDEN / f"compound-sweep-{model}.csv").read_text()


def _exact_front_cases() -> dict[str, tuple[Model, int]]:
    """The pareto goldens' models and seeds, then 5 random SLR and 5 random MM models, 2 of them from eps = 0."""
    cases = {name: (_golden_model(name)[1], _golden_model(name)[0]["seed"]) for name in PARETO_GOLDENS}
    rng = np.random.default_rng(20261018)
    for i in range(5):
        a = float(rng.uniform(-5.0, 4.0))
        cases[f"slr-random{i}"] = (slr_model(DesignSpace(a, a + float(rng.uniform(0.5, 6.0)))), i)
    for i in range(5):
        log_v, log_k, b = rng.uniform(-1.0, 2.0), rng.uniform(-1.0, 2.0), float(rng.uniform(1.0, 10.0))
        eps = 0.0 if i < 2 else float(rng.uniform(0.0, 0.9)) * b
        cases[f"mm-random{i}"] = (mm_model(MMParams(V=10.0 ** log_v, K=10.0 ** log_k, b=b, eps=eps)), i)
    return cases


EXACT_FRONT_CASES = _exact_front_cases()


@pytest.mark.parametrize("name", list(EXACT_FRONT_CASES))
def test_compound_sweep_is_the_exact_d_r_front(name):
    # phi_D = det^(-1/2) and phi_R = sqrt({M^-1}_11 {M^-1}_22) are log-convex
    # in M, so convex, and the matrices form a convex set: the pairs
    # (phi_D, phi_R) of all designs, with everything above them, form a convex
    # set, each Pareto-optimal design minimizes (1 - lam) phi_D / phi_D* +
    # lam phi_R / phi_R* for some lam, and a compound optimum is Pareto
    # optimal.  So no sampled design beats a certified compound optimum in
    # both efficiencies, and the ends of the sweep are the D and R optima.
    model, seed = EXACT_FRONT_CASES[name]
    d_star = optimize_design(model, CriterionSpec("D")).criterion_value
    r_star = optimize_design(model, CriterionSpec("R")).criterion_value
    effs = []
    for lam in np.linspace(0.0, 1.0, 21):
        res = optimize_design(model, CriterionSpec("COMPOUND", lam=float(lam), phi_d_star=d_star,
                                                   phi_r_star=r_star))
        assert res.label == "certified", lam
        m = fim(model, res.design)
        effs.append((phi_d(m), phi_r(m)))
    phis = np.array(effs)
    assert math.isclose(phis[0, 0], d_star, rel_tol=1e-12, abs_tol=0.0)
    assert math.isclose(phis[-1, 1], r_star, rel_tol=1e-12, abs_tol=0.0)
    front = np.array([d_star, r_star]) / phis
    points = evaluate_front_points(model, sample_two_point_designs(model, 20000, seed), d_star, r_star)
    sampled = np.array([[p.eff_d, p.eff_r] for p in points])
    beats = np.all(sampled[:, None, :] > front[None, :, :] + 1e-9, axis=2)
    assert not beats.any(), sampled[np.any(beats, axis=1)][:3]

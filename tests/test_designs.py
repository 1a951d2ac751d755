"""Design construction, information matrices, and covariance quantities."""

from __future__ import annotations

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optdesign import (
    DesignSpace,
    InfoMatrix,
    ValidationError,
    design_from_json,
    design_to_json,
    fim,
    make_design,
    phi_c,
    slr_model,
)
from optdesign.designs import _is_singular
from conftest import random_design, random_slr_model

UNIT = DesignSpace(0.0, 1.0)


class TestDesignSpace:
    def test_rejects_degenerate(self):
        with pytest.raises(ValidationError):
            DesignSpace(1.0, 1.0)
        with pytest.raises(ValidationError):
            DesignSpace(2.0, 1.0)
        with pytest.raises(ValidationError):
            DesignSpace(0.0, math.inf)

    def test_contains_and_clip(self):
        sp = DesignSpace(-1.0, 2.0)
        assert sp.contains(-1.0) and sp.contains(2.0) and sp.contains(0.3)
        assert not sp.contains(2.1)
        assert sp.clip(5.0) == 2.0


class TestMakeDesign:
    def test_already_normalized(self):
        d = make_design([(0.0, 0.5), (1.0, 0.5)], UNIT)
        assert d.points == ((0.0, 0.5), (1.0, 0.5))

    def test_normalizes_total_mass(self):
        d = make_design([(0.0, 1.0), (1.0, 1.0)], UNIT)
        assert d.points == ((0.0, 0.5), (1.0, 0.5))

    def test_merges_near_duplicates(self):
        d = make_design([(0.5, 1.0), (0.5 + 1e-13, 1.0)], UNIT)
        assert d.support_size == 1
        x, w = d.points[0]
        assert w == 1.0
        assert abs(x - 0.5) < 1e-12

    def test_sorts_points(self):
        d = make_design([(0.9, 1.0), (0.1, 1.0), (0.5, 2.0)], UNIT)
        assert list(d.xs) == sorted(d.xs)

    def test_drops_zero_weights(self):
        d = make_design([(0.2, 0.0), (0.8, 1.0)], UNIT)
        assert d.points == ((0.8, 1.0),)

    def test_rejects_bad_input(self):
        with pytest.raises(ValidationError):
            make_design([], UNIT)
        with pytest.raises(ValidationError):
            make_design([(2.0, 1.0)], UNIT)  # outside space
        with pytest.raises(ValidationError):
            make_design([(0.5, 0.0)], UNIT)  # all-zero mass
        with pytest.raises(ValidationError):
            make_design([(0.5, -0.1), (0.6, 1.0)], UNIT)  # negative weight

    def test_weights_of_any_finite_size_read_as_their_ratios(self):
        # A total beyond the float range, and a merge whose products would overflow one.
        assert make_design([(0.2, 1e308), (0.8, 1e308)], UNIT).points == ((0.2, 0.5), (0.8, 0.5))
        space = DesignSpace(0.0, 2e10)
        assert (make_design([(1e10, 1e300), (1e10 + 1e-3, 1e300)], space).points
                == make_design([(1e10, 1.0), (1e10 + 1e-3, 1.0)], space).points == ((1e10 + 5e-4, 1.0),))
        # A power-of-two scale of every weight leaves the design's bits as they are.
        pairs = [(0.1, 0.3), (0.1 + 1e-13, 0.7), (0.4, 2.2), (0.9, 0.01)]
        for e in (-1000, -7, 3, 1000):
            assert (make_design([(x, w * 2.0 ** e) for x, w in pairs], UNIT).points
                    == make_design(pairs, UNIT).points)

    @given(scale=st.floats(min_value=1e-6, max_value=1e6),
           w1=st.floats(min_value=0.01, max_value=1.0),
           w2=st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_weight_scale_invariance(self, scale, w1, w2):
        base = make_design([(0.1, w1), (0.9, w2)], UNIT)
        scaled = make_design([(0.1, w1 * scale), (0.9, w2 * scale)], UNIT)
        assert base.xs.tolist() == scaled.xs.tolist()
        assert np.allclose(base.ws, scaled.ws, rtol=0, atol=1e-12)

    def test_weights_sum_to_one(self):
        d = make_design([(0.1, 0.3), (0.4, 2.2), (0.9, 0.01)], UNIT)
        assert abs(float(d.ws.sum()) - 1.0) <= 1e-12


class TestFim:
    def test_symmetric_endpoints_identity(self):
        model = slr_model(DesignSpace(-1.0, 1.0))
        m = fim(model, make_design([(-1.0, 0.5), (1.0, 0.5)], model.space))
        assert (m.m11, m.m12, m.m22) == (1.0, 0.0, 1.0)

    def test_half_mass_each_end_unit(self):
        model = slr_model(UNIT)
        m = fim(model, make_design([(0.0, 0.5), (1.0, 0.5)], UNIT))
        assert np.allclose([m.m11, m.m12, m.m22], [1.0, 0.5, 0.5], atol=1e-15)

    def test_one_point_design_singular(self):
        model = slr_model(UNIT)
        m = fim(model, make_design([(1.0, 1.0)], UNIT))
        assert np.allclose([m.m11, m.m12, m.m22], [1.0, 1.0, 1.0])
        assert m.is_singular

    def test_matches_brute_force_sum(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            model = random_slr_model(rng)
            d = random_design(model, rng)
            m = fim(model, d)
            ref = np.zeros((2, 2))
            for x, w in d.points:
                f = np.array([1.0, x])
                ref += w * np.outer(f, f)
            got = np.array([[m.m11, m.m12], [m.m12, m.m22]])
            assert np.allclose(got, ref, rtol=1e-14, atol=1e-14 * max(1.0, abs(ref).max()))

    def test_det_nonnegative_and_zero_iff_collinear(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            model = random_slr_model(rng)
            d = random_design(model, rng)
            assert fim(model, d).det >= -1e-12
            x = float(rng.uniform(model.space.lo, model.space.hi))
            one_pt = make_design([(x, 1.0)], model.space)
            assert fim(model, one_pt).is_singular
            dup = make_design([(x, 0.4), (x + 1e-14, 0.6)], model.space)
            assert fim(model, dup).is_singular  # merged into one point

    def test_nonfinite_regressor_rejected(self):
        space = DesignSpace(0.0, 1.0)
        from optdesign.designs import Model

        def bad(x):
            x = np.asarray(x, float)
            with np.errstate(divide="ignore"):
                return np.stack([1.0 / x, x], axis=-1)

        model = Model(name="bad", space=space, regressor=bad)
        with pytest.raises(ValidationError):
            fim(model, make_design([(0.0, 1.0)], space))


class TestInfoMatrix:
    def test_rejects_non_psd(self):
        with pytest.raises(ValidationError):
            InfoMatrix(1.0, 2.0, 1.0)  # det = -3
        with pytest.raises(ValidationError):
            InfoMatrix(-1.0, 0.0, 1.0)

    def test_singularity_is_one_predicate_on_floats_and_arrays(self):
        # M is singular when det M is not a positive normal float, at any scale: a Cauchy-Binet det with
        # 1 - r^2 down to 1e-15 is not, a subnormal det is, and entries of rank one give det exactly 0.
        rng = np.random.default_rng(5)
        m11, m22 = 10.0 ** rng.uniform(-8, 8, (2, 3000))
        rel = np.repeat([0.0, 1e-15, 1e-12, 1e-3, 0.5], 600)
        det = rel * (m11 * m22)
        m12 = np.sqrt(m11 * m22 - det)
        flags = _is_singular(det)
        assert np.array_equal(flags, rel == 0.0)
        for row, flag in zip(zip(m11.tolist(), m12.tolist(), m22.tolist(), det.tolist()), flags.tolist()):
            assert InfoMatrix(*row).is_singular is flag
        tiny = sys.float_info.min
        dets = [-tiny, 0.0, 5e-324, 0.5 * tiny, tiny, 1.0]
        assert _is_singular(np.array(dets)).tolist() == [True, True, True, True, False, False]
        assert [InfoMatrix(1.0, 0.0, 1.0, det).is_singular for det in dets[1:]] == [True, True, True, False, False]
        f1, f2 = rng.normal(size=(2, 3000)) * 10.0 ** rng.uniform(-8, 8, (2, 3000))
        rank_one = [InfoMatrix(*row) for row in zip((f1 * f1).tolist(), (f1 * f2).tolist(), (f2 * f2).tolist())]
        assert all(m.det == 0.0 and m.is_singular for m in rank_one)

    def test_singularity_is_free_of_scale(self):
        # Rescaling theta by diag(s1, s2) maps M to S M S: 1 - r^2 is unchanged, and so is the verdict.
        for s1, s2 in ((1.0, 1.0), (1e-9, 1e-9), (1e-12, 1e6), (1e8, 1e-8)):
            for r2, singular in ((0.5, False), (1.0 - 1e-9, False), (1.0, True)):
                m11, m22 = s1 * s1, s2 * s2
                m = InfoMatrix(m11, s1 * s2 * math.sqrt(r2), m22, (1.0 - r2) * m11 * m22)
                assert m.is_singular is singular, (s1, s2, r2)

    def test_entries_alone_give_the_cancelling_det(self):
        assert InfoMatrix(2.0, 0.5, 1.0).det == 1.75
        assert InfoMatrix(2.0, 0.5, 1.0, det=1.5).det == 1.5
        with pytest.raises(ValidationError, match="semidefinite"):
            InfoMatrix(1.0, 0.0, 1.0, det=-1e-6)


class TestCovQuantities:
    # The entries of M^-1 are the variances and the covariance of the two
    # estimators; phi_c(m, c) = c^T M^-1 c is the variance of c^T theta-hat.
    @staticmethod
    def inverse(m: InfoMatrix) -> tuple[float, float, float]:
        v1, v2 = phi_c(m, (1.0, 0.0)), phi_c(m, (0.0, 1.0))
        return v1, v2, 0.5 * (phi_c(m, (1.0, 1.0)) - v1 - v2)

    def test_identity(self):
        m = InfoMatrix(1.0, 0.0, 1.0)
        assert self.inverse(m) == (1.0, 1.0, 0.0) and m.det == 1.0
        assert not m.is_singular

    def test_hand_inverse(self):
        m = InfoMatrix(1.0, 0.5, 0.5)
        assert abs(m.det - 0.25) < 1e-15
        assert np.allclose(self.inverse(m), [2.0, 4.0, -2.0], atol=1e-12)

    def test_singular_marker(self):
        # M = (1, 1)(1, 1)^T estimates theta1 + theta2 alone, neither coordinate.
        m = InfoMatrix(1.0, 1.0, 1.0)
        assert m.is_singular
        assert phi_c(m, (1.0, 0.0)) == math.inf and phi_c(m, (0.0, 1.0)) == math.inf

    def test_inverse_roundtrip_and_cauchy_schwarz(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            model = random_slr_model(rng)
            m = fim(model, random_design(model, rng))
            if m.is_singular:
                continue
            v1, v2, cov12 = self.inverse(m)
            inv = np.array([[v1, cov12], [cov12, v2]])
            prod = np.array([[m.m11, m.m12], [m.m12, m.m22]]) @ inv
            assert np.allclose(prod, np.eye(2), rtol=1e-10, atol=1e-10)
            assert cov12 ** 2 <= v1 * v2 * (1.0 + 1e-10)


def test_slr_model_regressor():
    model = slr_model(UNIT)
    assert np.allclose(model.regressor(np.array([0.5]))[0], [1.0, 0.5])
    model2 = slr_model(DesignSpace(-5.0, 5.0))
    assert np.allclose(model2.regressor(np.array([-5.0]))[0], [1.0, -5.0])


def test_slr_regressor_dx_matches_central_difference():
    model = slr_model(DesignSpace(-5.0, 5.0))
    x = np.random.default_rng(3).uniform(-5.0, 5.0, 50)
    fd = (model.regressor(x + 1e-3) - model.regressor(x - 1e-3)) / 2e-3
    assert np.allclose(model.regressor_dx(x), fd, rtol=0.0, atol=1e-12)
    assert model.regressor_dx(x.reshape(5, 10)).shape == (5, 10, 2)


def test_slr_two_point_det_is_spread():
    # det M({a: 1-p, b: p}) = p (1-p) (b-a)^2
    rng = np.random.default_rng(6)
    for _ in range(25):
        a = float(rng.uniform(-4, 2))
        b = a + float(rng.uniform(0.5, 5))
        p = float(rng.uniform(0.05, 0.95))
        model = slr_model(DesignSpace(a, b))
        m = fim(model, make_design([(a, 1 - p), (b, p)], model.space))
        assert math.isclose(m.det, p * (1 - p) * (b - a) ** 2, rel_tol=1e-12, abs_tol=1e-14)


def test_design_json_roundtrip():
    space = DesignSpace(1.0, 5.0)
    d = make_design([(1.0, 0.25), (3.0, 0.25), (5.0, 0.5)], space)
    blob = json.dumps(design_to_json(d, space))
    d2, space2 = design_from_json(json.loads(blob))
    assert d2 == d and space2 == space
    with pytest.raises(ValidationError):
        design_from_json({"points": "nope"})

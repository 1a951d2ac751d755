"""Michaelis-Menten model, its sensitivity vector, and the closed-form D-optimum."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optdesign import (
    ValidationError,
    correlation,
    fim,
    make_design,
    phi_d,
)
from optdesign.mm import (
    MMParams,
    mm_d_optimal,
    mm_model,
    mm_regressor,
)


def is_constrained(p: MMParams) -> bool:
    """The space floor cuts off the unconstrained lower D-optimal point b/(2+b) K."""
    return p.b / (2.0 + p.b) * p.K < p.space().lo


class TestParams:
    def test_validation(self):
        with pytest.raises(ValidationError):
            MMParams(V=-1.0)
        with pytest.raises(ValidationError):
            MMParams(eps=-0.1)
        with pytest.raises(ValidationError):
            MMParams(eps=5.0, b=5.0)  # empty space

    def test_space_in_k_units(self):
        p = MMParams(K=100.0, b=5.0, eps=0.5)
        assert p.space().lo == 50.0 and p.space().hi == 500.0

    def test_absolute_eps_mode(self):
        p = MMParams(K=100.0, b=5.0, eps=3.0, eps_in_k_units=False)
        assert p.space().lo == 3.0


class TestRegressor:
    def test_vanishes_at_origin(self):
        assert np.allclose(mm_regressor(MMParams(), 0.0), [0.0, 0.0])

    def test_half_saturation(self):
        p = MMParams(V=10.0, K=4.0)
        f = mm_regressor(p, p.K)
        assert np.allclose(f, [0.5, -p.V / (4 * p.K)], atol=1e-15)

    def test_at_five_k_nominal(self):
        p = MMParams()  # V=43.73, K=227.27
        f = mm_regressor(p, 5 * p.K)
        assert abs(f[0] - 5 / 6) < 1e-12
        assert abs(f[1] - (-43.73 * 5 / (36 * 227.27))) < 1e-10
        assert abs(f[1] - (-0.02672)) < 1e-4

    def test_matches_finite_difference_gradient(self):
        p = MMParams()
        h = 1e-6
        for x in np.linspace(0.05 * p.K, 5 * p.K, 100):
            mean = lambda V, K: V * x / (K + x)
            g_v = (mean(p.V + h, p.K) - mean(p.V - h, p.K)) / (2 * h)
            g_k = (mean(p.V, p.K + h * p.K) - mean(p.V, p.K - h * p.K)) / (2 * h * p.K)
            f = mm_regressor(p, x)
            assert abs(f[0] - g_v) <= 1e-6 * max(1.0, abs(g_v))
            assert abs(f[1] - g_k) <= 1e-6 * max(abs(g_k), 1e-9)


class TestRegressorDerivative:
    @given(u=st.floats(0.0, 20.0), V=st.floats(1e-2, 1e3), K=st.floats(1e-2, 1e3))
    @settings(max_examples=200, deadline=None)
    def test_matches_central_difference(self, u, V, K):
        # x = u K.  f' peaks at x = 0, at (1/K, -V/K^2): the tolerance's scale.
        model = mm_model(MMParams(V=V, K=K, b=25.0))
        x, h = np.array([u * K]), 1e-5 * (K + u * K)
        fd = (model.regressor(x + h) - model.regressor(x - h)) / (2 * h)
        assert np.all(np.abs(model.regressor_dx(x) - fd) <= 1e-6 * np.array([1 / K, V / K ** 2]))

    def test_vectorized_and_kept_by_replace(self):
        # perfbench's tracer rebuilds models with dataclasses.replace.
        model = mm_model(MMParams())
        X = np.linspace(0.0, 5 * 227.27, 12).reshape(3, 4)
        assert model.regressor_dx(X).shape == (3, 4, 2)
        wrapped = dataclasses.replace(model, regressor=lambda x: model.regressor(x))
        assert wrapped.regressor_dx is model.regressor_dx


class TestDOptimal:
    def test_unconstrained_points(self):
        p = MMParams(b=5.0, eps=0.0)
        xi = mm_d_optimal(p)
        assert np.allclose(xi.ws, [0.5, 0.5])
        assert abs(xi.xs[0] - 5 / 7 * p.K) < 1e-9
        assert abs(xi.xs[0] - 162.33) < 0.01
        assert abs(xi.xs[1] - 5 * p.K) < 1e-9
        assert not is_constrained(p)
        assert abs(xi.xs[0] / p.K - 0.71) < 0.005  # in units of K

    def test_b2_unit_k(self):
        xi = mm_d_optimal(MMParams(V=1.0, K=1.0, b=2.0))
        assert np.allclose(xi.xs, [0.5, 2.0])

    def test_constrained_floor(self):
        p = MMParams(b=5.0, eps=1.0)
        assert is_constrained(p)
        xi = mm_d_optimal(p)
        assert abs(xi.xs[0] - p.K) < 1e-9
        assert np.allclose(xi.ws, [0.5, 0.5])

    def test_k_scale_equivariance(self):
        # Support in K units does not depend on K; first regressor component
        # is K-free, second scales by 1/c under K -> cK (at x -> cx).
        base = MMParams(V=2.0, K=1.0, b=5.0)
        for c in (0.1, 10.0):
            scaled = MMParams(V=2.0, K=c, b=5.0)
            xi0, xi1 = mm_d_optimal(base), mm_d_optimal(scaled)
            assert np.allclose(xi1.xs / c, xi0.xs, rtol=1e-12)
            f0 = mm_regressor(base, 0.3)
            f1 = mm_regressor(scaled, 0.3 * c)
            assert abs(f1[0] - f0[0]) < 1e-14
            assert abs(f1[1] - f0[1] / c) < 1e-12 * abs(f0[1] / c)

    def test_beats_random_two_point_designs(self):
        p = MMParams(b=5.0, eps=0.0)
        model = mm_model(p)
        star = phi_d(fim(model, mm_d_optimal(p)))
        rng = np.random.default_rng(123)
        space = model.space
        tried = 0
        while tried < 10_000:
            x1, x2 = np.sort(rng.uniform(space.lo, space.hi, 2))
            w = rng.uniform(0.0, 1.0)
            if x2 - x1 <= space.merge_tol() or not 0.0 < w < 1.0:
                continue
            val = phi_d(fim(model, make_design([(x1, w), (x2, 1 - w)], space)))
            assert star <= val + 1e-9
            tried += 1


class TestModel:
    def test_fim_nonsingular_at_optimum(self):
        p = MMParams(b=5.0, eps=0.0)
        assert not fim(mm_model(p), mm_d_optimal(p)).is_singular

    def test_origin_design_is_zero_matrix(self):
        p = MMParams(b=5.0, eps=0.0)
        m = fim(mm_model(p), make_design([(0.0, 1.0)], p.space()))
        assert (m.m11, m.m12, m.m22) == (0.0, 0.0, 0.0)
        assert m.is_singular

    def test_squared_correlation_of_d_optimum(self):
        p = MMParams(b=5.0)
        r = correlation(fim(mm_model(p), mm_d_optimal(p)))
        assert r > 0  # estimators of V and K positively correlated
        assert abs(r * r - 0.69) < 0.005

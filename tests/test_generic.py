"""Models the package does not name: the optimizer, Elfving's dual, the sweep and the sampler on a logistic and
an exponential decay model (``conftest``), checked against closed-form D-optima; and int ends of a space, which
must give the float result bit for bit."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import exp_decay_model, logistic_model
from optdesign import (
    CriterionSpec,
    DesignSpace,
    ValidationError,
    c_optimal,
    criterion_sweep,
    fim,
    make_design,
    optimize_design,
    phi_d,
    sa_references,
    sampled_front,
)
from optdesign.criteria import ALL_KINDS, derivative_report
from optdesign.mm import MMParams, mm_model
from optdesign.optimize import _criterion_start

MODELS = {"logistic": logistic_model, "exp_decay": exp_decay_model}
CASES = [("logistic", -5.0, 5.0), ("logistic", -20.0, 30.0), ("logistic", -2.0, 1.6), ("logistic", 0.0, 6.0),
         ("exp_decay", 0.0, 3.0), ("exp_decay", 0.0, 0.5), ("exp_decay", 2.0, 40.0)]
LOGISTIC_SPACES = [(lo, hi) for name, lo, hi in CASES if name == "logistic"]
# On the logistic [-20, 30], the root of c_perp^T f lies inside Elfving's set: the optimum has two points.
INSIDE_C = (-0.31081837778290006, 0.7526105507610801)
# The two-point polish collapses, its Cramer weights one negative, while the root x0 of c_perp^T f, where f is
# parallel to c, carries the optimum |c|^2 / |f(x0)|^2 (its dual u, normal to f there, certifies it).  Clipping
# the negative weight instead left the heavier point, which read 0.15% to 0.18% above the optimum on these c.
COLLAPSING = [(exp_decay_model, 2.0, 40.0, (0.5150472436277893, -1.6821476011467826), -1.0),
              *((logistic_model, -5.0, 5.0, c, 1.0) for c in (
                  (-0.9124293751946004, 2.1853321886520645), (-1.1743736240020657, -2.8136034741716167),
                  (-22.38763879988302, -53.63705129138642), (1.0020362673882501, -2.4007118906176825),
                  (-7.045256342399195, 16.879259986998072), (0.08155862862215421, 0.19540088107391118)))]


def tanh_root(k: float) -> float:
    """The root x > 0 of x tanh(x/2) = k >= 1, by bisection to the last bit."""
    lo, hi = 0.0, k + 2.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if mid * math.tanh(0.5 * mid) < k else (lo, mid)
    return mid


def d_optimal_support(name: str, lo: float, hi: float) -> tuple[float, float]:
    """The D-optimal support, each point of mass 1/2: on the logistic +-x*, x* tanh(x*/2) = 1, or from 0 the
    point x2 tanh(x2/2) = 2 (both inside the spaces here); on exp decay {lo, min(lo + 1, hi)}."""
    if name == "logistic":
        return (0.0, tanh_root(2.0)) if lo == 0.0 else (-tanh_root(1.0), tanh_root(1.0))
    return lo, min(lo + 1.0, hi)


@pytest.mark.parametrize("name, lo, hi", CASES)
def test_convex_kinds_are_certified_and_d_is_the_closed_form(name, lo, hi):
    model = MODELS[name](lo, hi)
    d, r = (optimize_design(model, CriterionSpec(kind)) for kind in ("D", "R"))
    refs, start = sa_references(model)
    sa = optimize_design(model, CriterionSpec("SA", sa_refs=refs), start)
    compound = optimize_design(model, CriterionSpec("COMPOUND", lam=0.5, phi_d_star=d.criterion_value,
                                                    phi_r_star=r.criterion_value))
    assert [res.label for res in (d, r, sa, compound)] == ["certified"] * 4
    support = d_optimal_support(name, lo, hi)
    closed = phi_d(fim(model, make_design([(x, 0.5) for x in support], model.space)))
    assert math.isclose(d.criterion_value, closed, rel_tol=1e-12)
    assert np.allclose(d.design.xs, support, rtol=0.0, atol=1e-7)
    assert np.allclose(d.design.ws, 0.5, rtol=0.0, atol=1e-8)


@pytest.mark.parametrize("lo, hi", LOGISTIC_SPACES)
def test_c_optimal_dual_certificate_on_the_logistic(lo, hi):
    # Elfving's dual: u^T c = 1, |u^T f| <= gamma on the space and value 1/gamma^2; the logistic's f returns to
    # the origin at both ends, so for many c the one point where f is parallel to c lies inside Elfving's set.
    model = logistic_model(lo, hi)
    F = np.asarray(model.regressor(model.space.grid(1000)))
    cs = np.random.default_rng(37).normal(size=(25, 2)).tolist() + ([INSIDE_C] if (lo, hi) == (-20.0, 30.0) else [])
    for c in cs:
        res = c_optimal(model, c)
        u = np.array(res.u)
        assert abs(u @ np.array(c) - 1.0) <= 1e-12, c
        assert np.max(np.abs(F @ u)) <= res.gamma * (1.0 + 1e-12), c
        assert math.isclose(res.criterion_value, res.gamma ** -2, rel_tol=1e-12), c
        assert res.label == "certified", c


def test_c_inside_elfvings_set_gets_the_two_point_optimum():
    # The one point {-2.4214: 1} read 1.289740, best-found with min_dd -0.07.
    res = c_optimal(logistic_model(-20.0, 30.0), INSIDE_C)
    assert res.label == "certified" and res.design.support_size == 2
    assert math.isclose(res.criterion_value, 1.289584357115344, rel_tol=1e-9)


@pytest.mark.parametrize("make, at_ends", [(lambda: mm_model(MMParams(b=5.0, eps=0.5)), {True, False}),
                                           (lambda: logistic_model(-5.0, 5.0), {False})], ids=["mm", "logistic"])
def test_check_certifies_every_one_point_c_optimum(make, at_ends):
    # For c parallel to f(x0), c_optimal certifies {x0: 1} by Elfving's dual.  M = f f^T is singular, so
    # derivative_report has no slope; it certifies the design with the dual u, from the tangent at an interior
    # x0 or from the grid at an end.  The grid of 20 points misses x = 0, where the logistic's f lies on an
    # axis: test_one_point_on_an_axis holds that case.
    model = make()
    ends = set()
    for f in np.asarray(model.regressor(model.space.grid(20))).tolist():
        for c in (f, [-1e3 * f[0], -1e3 * f[1]]):
            res = c_optimal(model, c)
            if res.design.support_size == 1 and res.label == "certified":
                report = derivative_report(model, res.design, CriterionSpec("C", c=tuple(c)))
                assert report.passes(res.criterion_value), (c, res.design)
                ends.add(res.design.xs[0] in (model.space.lo, model.space.hi))
    assert ends == at_ends  # whether some, and which, one-point optima sit at an end


@pytest.mark.xfail(strict=True, reason="c_optimal's root lands 1.7e-18 off 0, where f is not parallel to c")
def test_one_point_on_an_axis():
    # f(0) = (1/2, 0): c = (500, 0) is estimable only at x = 0, and phi_c of the design c_optimal certifies,
    # {1.7e-18: 1}, is infinite; derivative_report then raises for want of a non-singular design.
    model, c = logistic_model(-5.0, 5.0), (500.0, 0.0)
    res = c_optimal(model, c)
    assert res.label == "certified"
    assert derivative_report(model, res.design, CriterionSpec("C", c=c)).passes(res.criterion_value)


@pytest.mark.parametrize("make, lo, hi, c, sign", COLLAPSING)
def test_collapsing_polish(make, lo, hi, c, sign):
    # x0 solves f(x0) || c: x0 = c2 / c1 on the logistic (f = g (1, x)), -c2 / c1 on exp decay (f = e^-x (1, -x)).
    model, x0 = make(lo, hi), sign * c[1] / c[0]
    f0 = np.asarray(model.regressor(np.array([x0])))[0]
    res = c_optimal(model, c)
    assert res.label == "certified"
    assert math.isclose(res.criterion_value, (c[0] * c[0] + c[1] * c[1]) / float(f0 @ f0), rel_tol=1e-9)


@pytest.mark.parametrize("lo, hi", [(-20, 30), (-5, 5)])
@pytest.mark.parametrize("kind", ["D", "R"])
def test_int_ends_give_the_float_result(lo, hi, kind):
    space = DesignSpace(lo, hi)
    assert type(space.lo) is float and type(space.hi) is float
    ints, floats = (optimize_design(logistic_model(a, b), CriterionSpec(kind)) for a, b in
                    ((lo, hi), (float(lo), float(hi))))
    assert ints.design.points == floats.design.points and ints.criterion_value == floats.criterion_value
    assert ints.label == floats.label == "certified"


@pytest.mark.parametrize("eps", [0, 1])
def test_int_mm_params_give_the_float_result(eps):
    results = {}
    for params in (MMParams(V=43, K=227, b=5, eps=eps), MMParams(V=43.0, K=227.0, b=5.0, eps=float(eps))):
        model = mm_model(params)
        for kind in ALL_KINDS:
            spec, start = _criterion_start(model, params, kind, c=(1.0, 0.0), lam=0.5)
            res = optimize_design(model, spec, start)
            results.setdefault(kind, []).append((res.design.points, res.criterion_value, res.label))
    for kind, (ints, floats) in results.items():
        assert ints == floats, kind


@pytest.mark.parametrize("ends", [("0", 1.0), (0.0, "1"), (None, 1.0)])
def test_non_number_ends_raise(ends):
    with pytest.raises((TypeError, ValidationError)):
        DesignSpace(*ends)


def test_sweep_and_front_on_a_model_the_package_does_not_name(logistic):
    # The sweep's fixed point is in the model's own units; on any fixed pair D's best mass is 1/2.
    x_lo = -tanh_root(1.0)
    rows = criterion_sweep(logistic, x_lo, [i / 100 for i in range(1, 100)])
    best = min(rows, key=lambda row: row.phi_d)
    assert best.p == 0.5
    assert best.phi_d == phi_d(fim(logistic, make_design([(x_lo, 0.5), (5.0, 0.5)], logistic.space)))
    d, r = (optimize_design(logistic, CriterionSpec(kind)).criterion_value for kind in ("D", "R"))
    front = sampled_front(logistic, 2000, 7, d, r)
    assert front and all(p.eff_d <= 1.0 + 1e-9 and p.eff_r <= 1.0 + 1e-9 for p in front)

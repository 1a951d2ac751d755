"""Shared samplers and fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from optdesign import Design, DesignSpace, InfoMatrix, Model, make_design, slr_model
from optdesign.mm import MMParams, mm_model


@pytest.fixture
def slr_01() -> Model:
    return slr_model(DesignSpace(0.0, 1.0))


@pytest.fixture
def slr_15() -> Model:
    return slr_model(DesignSpace(1.0, 5.0))


@pytest.fixture
def mm_params_half() -> MMParams:
    return MMParams(eps=0.5)


@pytest.fixture
def mm_half(mm_params_half) -> Model:
    return mm_model(mm_params_half)


def random_design(model: Model, rng: np.random.Generator, k: int | None = None,
                  min_sep_rel: float = 0.02, w_floor: float = 0.05) -> Design:
    """A random non-singular k-point design on the model's space."""
    space = model.space
    while True:
        kk = k if k is not None else int(rng.integers(2, 5))
        xs = np.sort(rng.uniform(space.lo, space.hi, kk))
        if kk > 1 and np.min(np.diff(xs)) < min_sep_rel * space.width:
            continue
        ws = rng.uniform(w_floor, 1.0, kk)
        ws /= ws.sum()
        design = make_design(list(zip(xs, ws)), space)
        if design.support_size >= 2:
            return design


def mixed(m1: InfoMatrix, m2: InfoMatrix, alpha: float) -> InfoMatrix:
    """The information matrix (1 - alpha) m1 + alpha m2, entry by entry."""
    return InfoMatrix(*((1.0 - alpha) * a + alpha * b
                        for a, b in zip((m1.m11, m1.m12, m1.m22), (m2.m11, m2.m12, m2.m22))))


def random_slr_model(rng: np.random.Generator, min_width: float = 0.5) -> Model:
    a = float(rng.uniform(-5.0, 4.0))
    b = a + float(rng.uniform(min_width, 6.0))
    return slr_model(DesignSpace(a, b))


# Test-only models, which the package does not name: generic code must serve them as it serves SLR and MM.

def logistic_model(lo: float, hi: float) -> Model:
    """Logistic regression at theta = (0, 1) (Abdelbasit & Plackett 1983, JASA 78:90): f = sqrt(p (1 - p)) (1, x),
    p = 1 / (1 + e^-x), and f' = (g', g' x + g) with g = sqrt(p (1 - p)) and g' = g (1 - 2p) / 2."""

    def parts(x):
        x = np.asarray(x, dtype=float)
        p = 1.0 / (1.0 + np.exp(-x))
        return x, p, np.sqrt(p * (1.0 - p))

    def regressor(x):
        x, _, g = parts(x)
        return np.stack([g, g * x], axis=-1)

    def regressor_dx(x):
        x, p, g = parts(x)
        dg = 0.5 * g * (1.0 - 2.0 * p)
        return np.stack([dg, dg * x + g], axis=-1)

    return Model(name="logistic", space=DesignSpace(lo, hi), regressor=regressor, regressor_dx=regressor_dx)


def exp_decay_model(lo: float, hi: float) -> Model:
    """Exponential decay E[y] = theta1 exp(-theta2 x) at theta = (1, 1) (Atkinson, Donev & Tobias 2007, *Optimum
    Experimental Designs, with SAS*): f = (e^-x, -x e^-x), f' = (-e^-x, (x - 1) e^-x)."""

    def regressor(x):
        x = np.asarray(x, dtype=float)
        return np.stack([np.exp(-x), -x * np.exp(-x)], axis=-1)

    def regressor_dx(x):
        x = np.asarray(x, dtype=float)
        return np.stack([-np.exp(-x), (x - 1.0) * np.exp(-x)], axis=-1)

    return Model(name="exp_decay", space=DesignSpace(lo, hi), regressor=regressor, regressor_dx=regressor_dx)


@pytest.fixture
def logistic() -> Model:
    return logistic_model(-5.0, 5.0)

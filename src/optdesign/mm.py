"""Michaelis-Menten model: mean rate V x / (K + x) on a K-scaled design space.

The sensitivity vector (gradient of the mean in (V, K) at nominal values) is

    f(x) = ( x/(K+x),  -V x/(K+x)^2 ),   f'(x) = ( K/(K+x)^2,  -V (K-x)/(K+x)^3 ),

which vanishes at x = 0, so designs putting all mass near the origin carry no
information.  The design space is [eps*K, b*K]: multiples of K by default,
because that is the scaling under which optimal support points are
K-invariant.  An absolute-units mode is available for the lower bound.

The D-optimal design is the closed form {b/(2+b)*K, b*K} with equal weights
whenever the lower point is admissible; if the space floor cuts it off, the
lower support point moves to the floor (weights stay 1/2), which is exactly
what the numeric optimizer finds and what the equivalence check certifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .designs import Design, DesignSpace, Model, make_design
from .errors import ValidationError

DEFAULT_V = 43.73
DEFAULT_K = 227.27


@dataclass(frozen=True)
class MMParams:
    """Nominal parameters and design-space configuration.

    V: asymptotic maximum rate (> 0).
    K: half-saturation constant (> 0).
    b: upper end of the design space, in units of K (> 0).
    eps: lower end; in units of K by default, absolute when eps_in_k_units is False.
    """

    V: float = DEFAULT_V
    K: float = DEFAULT_K
    b: float = 5.0
    eps: float = 0.0
    eps_in_k_units: bool = True

    def __post_init__(self) -> None:
        for name in ("V", "K", "b", "eps"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        if not (self.V > 0.0 and self.K > 0.0 and self.b > 0.0):
            raise ValidationError(f"V, K, b must be positive, got V={self.V}, K={self.K}, b={self.b}")
        if self.eps < 0.0:
            raise ValidationError(f"eps must be nonnegative, got {self.eps}")
        if self.lower_extreme >= self.b * self.K:
            raise ValidationError("eps leaves an empty design space")

    @property
    def lower_extreme(self) -> float:
        """Lower end of the design space in raw units."""
        return self.eps * self.K if self.eps_in_k_units else self.eps

    def space(self) -> DesignSpace:
        return DesignSpace(self.lower_extreme, self.b * self.K)


def mm_regressor(params: MMParams, x: float | np.ndarray) -> np.ndarray:
    """Sensitivity vector(s) (x/(K+x), -V x/(K+x)^2); vectorized over x."""
    x = np.asarray(x, dtype=float)[..., None]
    denom = params.K + x
    return np.concatenate([x / denom, -params.V * x / denom ** 2], axis=-1)


def mm_model(params: MMParams) -> Model:
    def regressor_dx(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)[..., None]
        denom = params.K + x
        return np.concatenate([params.K / denom ** 2, -params.V * (params.K - x) / denom ** 3], axis=-1)

    return Model(
        name="michaelis_menten",
        space=params.space(),
        regressor=lambda x: mm_regressor(params, x),
        nominal_params=(params.V, params.K),
        regressor_dx=regressor_dx,
    )


def mm_d_optimal(params: MMParams) -> Design:
    """D-optimal design: {lower point, b*K} with weights 1/2.

    The lower point is b/(2+b)*K, or the space floor when the floor excludes
    it (the determinant is decreasing beyond the unconstrained point, and the
    weight 1/2 is optimal for any fixed two-point support, so the constrained
    optimum sits on the boundary).
    """
    space = params.space()
    x_lo = max(params.b / (2.0 + params.b) * params.K, space.lo)
    return make_design([(x_lo, 0.5), (params.b * params.K, 0.5)], space)


def mm_r_start(params: MMParams) -> np.ndarray:
    """The support an R-optimal polish starts from: a two-point design with upper point bK dominates any
    design in the Loewner order (Yang & Stufken 2009, *Ann. Statist.* 37:518) and R is Loewner-antitone, so
    bK and the lower point (sqrt 2 - 1) b K / ((2 - sqrt 2) b + 1) (or the floor) of the c-optimal designs for
    e_1 and e_2, whose variances R multiplies."""
    x0 = (math.sqrt(2.0) - 1.0) * params.b / ((2.0 - math.sqrt(2.0)) * params.b + 1.0) * params.K
    return np.array([max(x0, params.lower_extreme), params.b * params.K])

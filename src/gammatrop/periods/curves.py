"""Periods of the pair of pants and of the mirror cubic curve.

The pants integral follows the residue 1-form along a real section of
1 + z1 + z2 = 0.  The elliptic period integrates the residue form of
t(X + Y + 1/(XY)) - 1 around its compact positive-real oval; the oval is
parametrized as a two-branch graph over X, with the branch square root
evaluated in closed form.  Two substitutions make both charts of the oval
analytic up to their ends: a square root at the branch point X_-, where
the form blows up like 1/sqrt(X - X_-), and an asinh at the branch point
X_b, where it behaves like 1/sqrt(tau (tau + delta)) with the neighbouring
root only delta ~ 4 t^{3/2} away.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from ..errors import StructureError
from ..quadrature import QuadratureConfig, integrate_1d
from .types import PeriodSample, _require_converged

__all__ = [
    "pants_section_integral",
    "elliptic_period",
    "ELLIPTIC_T_MAX",
]

ELLIPTIC_T_MAX = 0.1


def pants_section_integral(
    x0: float,
    x1: float,
    t: float,
    config: QuadratureConfig | None = None,
) -> float:
    """Integral of the residue form along X = t^x, Y = -1 - t^x.

    dX/(XY) pulled back is L dx/(1 + t^x) = L dx/(1 + e^{-L x}), with the
    sign fixed so the leading t -> 0 behavior L (x1 - x0) is positive.
    Raises NonConvergenceError if the quadrature does not converge.
    """
    if x0 > x1:
        raise ValueError("need x0 <= x1")
    if not 0.0 < t < 1.0:
        raise ValueError("t must lie in (0, 1)")
    if x0 == x1:
        return 0.0
    cfg = config or QuadratureConfig()
    big_l = -math.log(t)

    def integrand(x):
        # e^{-L x} is capped at e^709, short of where it overflows; past
        # the cap the integrand is below L e^-709 < 1e-305, and so is what
        # the cap changes
        return big_l / (1.0 + np.exp(np.minimum(-big_l * x, 709.0)))

    res = integrate_1d(integrand, (float(x0), float(x1)), cfg)
    return _require_converged(res, "pants section integral")


def _bisect_root(func, lo: float, hi: float) -> tuple[float, float]:
    """Bracketed bisection to float resolution; returns (lo, hi), f(lo)<0<=f(hi)."""
    f_lo = func(lo)
    f_hi = func(hi)
    if not (f_lo < 0.0 < f_hi):
        raise StructureError(
            f"root bracket failed: f({lo}) = {f_lo}, f({hi}) = {f_hi}"
        )
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if func(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return lo, hi


def _oval_roots(t: float) -> tuple[float, float, float]:
    """Roots framing the oval: (x_low, sigma_plus, sigma_neg).

    The branch discriminant factors as D(X) = t^2 X (X - X_-)(X_b - X)
    (X_c - X); the oval is the double cover of [X_-, X_b].  X_- comes
    from g(X) = X (1-tX)^2 - 4 t^2 on (0, 1/(2t)).  Writing X =
    (1-sigma)/t, the other two roots come from the cubic h(sigma) =
    (1-sigma) sigma^2 - 4 t^3: sigma_plus in (0, 1/2) gives X_b and
    sigma_neg in (-1/2, 0) gives X_c.  Each bisection returns the
    endpoint on the side where D > 0 along the oval.
    """

    def g(x: float) -> float:
        return x * (1.0 - t * x) ** 2 - 4.0 * t * t

    def h(sigma: float) -> float:
        return (1.0 - sigma) * sigma * sigma - 4.0 * t**3

    _, x_low = _bisect_root(g, 0.0, 1.0 / (2.0 * t))
    _, sigma_plus = _bisect_root(h, 0.0, 0.5)
    # h decreases through sigma_neg going right, so flip the sign
    _, sigma_neg = _bisect_root(lambda s: -h(s), -0.5, 0.0)
    return x_low, sigma_plus, sigma_neg


def elliptic_period(
    t: float,
    config: QuadratureConfig | None = None,
) -> PeriodSample:
    """Period of the mirror cubic over its compact positive-real oval.

    On the curve t(X + Y + 1/(XY)) = 1 the residue form restricted to a
    Y-branch is dX/sqrt(D), D(X) = X^2 (1-tX)^2 - 4 t^2 X, and the oval
    is the double cover of [X_-, X_b] where D >= 0, so the period is
    2 * integral of dX/sqrt(D).  D is evaluated through its root
    factorization, with each chart's origin at its branch point, so it is
    computed without cancellation there.  Each chart is substituted so
    that its integrand is analytic on the closed interval:

    - chart 1 covers [X_-, 1/(2t)] by X = X_- e^{L s^2}.  D vanishes
      linearly at X_-, and the factor s of dX cancels the 1/sqrt there.
    - chart 2 covers [1/(2t), X_b] by sigma = 1 - tX = sigma_+ + tau with
      tau = delta sinh^2(w).  Near X_b the form is dtau/sqrt(tau (tau +
      delta)), a 1/sqrt pinched against the root X_c at distance delta =
      sigma_+ - sigma_- ~ 4 t^{3/2}; the substitution makes it 2 dw.

    Orientation is fixed so the value is positive.  The roots of h need
    4 t^3 as a normal float, so t below about 1.8e-103 raises ValueError.
    """
    if not 0.0 < t <= ELLIPTIC_T_MAX:
        raise ValueError(f"t must lie in (0, {ELLIPTIC_T_MAX}]")
    if 4.0 * t**3 < sys.float_info.min:
        raise ValueError(f"t = {t} is below the floor where 4 t^3 is a normal float")
    cfg = config or QuadratureConfig()
    big_l = -math.log(t)
    x_low, sigma_plus, sigma_neg = _oval_roots(t)
    x_b = (1.0 - sigma_plus) / t
    x_c = (1.0 - sigma_neg) / t

    # chart 1: X = x_low e^{L s^2}, s in [0, sqrt(V)]; dX = 2 L X s ds,
    # and X - X_- = x_low expm1(L s^2) vanishes like s^2, so the s of dX
    # cancels the 1/sqrt at the branch point
    v_span = math.log(1.0 / (2.0 * t) / x_low) / big_l

    def integrand_low(s):
        x = x_low * np.exp(big_l * s * s)
        gap = x_low * np.expm1(big_l * s * s)
        # D = t^2 x gap (x_b - x)(x_c - x), with t^2 and one x kept out of
        # the root: the whole product is of order t^6 and underflows
        return 4.0 * big_l * s * np.sqrt(x) / (t * np.sqrt(gap * (x_b - x) * (x_c - x)))

    res_a = integrate_1d(integrand_low, (0.0, math.sqrt(v_span)), cfg)

    # chart 2: sigma = sigma_plus + tau with tau = delta sinh^2(w), delta =
    # sigma_plus - sigma_neg; X_b - X = tau/t and X_c - X = (tau + delta)/t,
    # and dtau / sqrt(tau (tau + delta)) = 2 dw exactly
    delta = sigma_plus - sigma_neg
    w_span = math.asinh(math.sqrt((0.5 - sigma_plus) / delta))

    def integrand_top(w):
        x = (1.0 - sigma_plus - delta * np.sinh(w) ** 2) / t
        return 4.0 / (t * np.sqrt(x * (x - x_low)))

    res_b = integrate_1d(integrand_top, (0.0, w_span), cfg)

    return PeriodSample(
        t=t,
        value=res_a.value + res_b.value,
        error_estimate=res_a.error_estimate + res_b.error_estimate,
        evaluations=res_a.evaluations + res_b.evaluations,
        parametrization="oval_sqrt_asinh",
        converged=res_a.converged and res_b.converged,
    )

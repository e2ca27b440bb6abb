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

from ..quadrature import integrate_1d
from .types import PeriodSample, _big_l, _exp, _require_converged, _sample

__all__ = [
    "pants_section_integral",
    "elliptic_period",
    "ELLIPTIC_T_MAX",
]

ELLIPTIC_T_MAX = 0.1


def pants_section_integral(x0: float, x1: float, t: float) -> float:
    """Integral of the residue form along X = t^x, Y = -1 - t^x.

    dX/(XY) pulled back is L dx/(1 + t^x) = L dx/(1 + e^{-L x}), with the
    sign fixed so the leading t -> 0 behavior L (x1 - x0) is positive.
    The quadrature runs at abs_tol = rel_tol = 1e-10 on this integral, L
    factor included.  Raises NonConvergenceError if it does not converge.
    """
    if x0 > x1:
        raise ValueError("need x0 <= x1")
    big_l = _big_l(t)
    if x0 == x1:
        return 0.0

    def integrand(x):
        # past the cap of e^{-L x} the integrand is below L e^-709 < 1e-305,
        # and so is what the cap changes
        return big_l / (1.0 + _exp(-big_l * x))

    res = integrate_1d(integrand, (float(x0), float(x1)))
    return _require_converged(res, "pants section integral")


def _fixed_point(f) -> float:
    """Iterate x -> f(x) from 0; return x once a step fails to shrink.

    No count or tolerance is needed: while the loop runs, its step sizes
    are strictly decreasing floats, so it ends (a NaN step stops it too).
    """
    x, step = 0.0, math.inf
    while True:
        image = f(x)
        if not abs(image - x) < step:
            return x
        x, step = image, abs(image - x)


def _oval_roots(t: float) -> tuple[float, float, float]:
    """Roots framing the oval: (x_low, sigma_plus, sigma_neg).

    The branch discriminant factors as D(X) = t^2 X (X - X_-)(X_b - X)
    (X_c - X); the oval is the double cover of [X_-, X_b].  X_- is the
    root in (0, 1/(2t)) of X (1-tX)^2 = 4 t^2; with X = (1-sigma)/t, X_b
    and X_c come from the roots sigma_+ in (0, 1/2) and sigma_- in
    (-1/2, 0) of (1-sigma) sigma^2 = 4 t^3.  Each root is the
    `_fixed_point` of X_- = 4 t^2/(1 - t X_-)^2 or sigma_+- = +-2
    t^{3/2}/sqrt(1 - sigma_+-), contractions with |derivative| <= about
    0.035 for t <= ELLIPTIC_T_MAX, so each ends within a few ulps.
    """
    c = 2.0 * t**1.5
    x_low = _fixed_point(lambda x: 4.0 * t * t / (1.0 - t * x) ** 2)
    sigma_plus = _fixed_point(lambda s: c / math.sqrt(1.0 - s))
    sigma_neg = _fixed_point(lambda s: -c / math.sqrt(1.0 - s))
    return x_low, sigma_plus, sigma_neg


def elliptic_period(t: float) -> PeriodSample:
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

    The branch points are fixed points of X_- = 4 t^2/(1 - t X_-)^2 and
    sigma_+- = +-2 t^{3/2}/sqrt(1 - sigma_+-), contractions by at most
    about 0.035, each iterated from 0 until a step is no smaller than the
    one before.  Each chart's quadrature runs at abs_tol = rel_tol = 1e-10,
    in the period's own units, since no scale follows.  Orientation is
    fixed so the value is positive.  Chart 1's span L V = log(1/(2t X_-))
    ~ log(1/(8 t^3)) overflows e^{L V} just below t ~ 9.4e-104, so t below
    the floor where 4 t^3 is a normal float, ~1.8e-103, raises ValueError.
    """
    big_l = _big_l(t, ELLIPTIC_T_MAX)
    if 4.0 * t**3 < sys.float_info.min:
        raise ValueError(f"t = {t} is below the floor where 4 t^3 is a normal float")
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

    res_a = integrate_1d(integrand_low, (0.0, math.sqrt(v_span)))

    # chart 2: sigma = sigma_plus + tau with tau = delta sinh^2(w), delta =
    # sigma_plus - sigma_neg; X_b - X = tau/t and X_c - X = (tau + delta)/t,
    # and dtau / sqrt(tau (tau + delta)) = 2 dw exactly
    delta = sigma_plus - sigma_neg
    w_span = math.asinh(math.sqrt((0.5 - sigma_plus) / delta))

    def integrand_top(w):
        x = (1.0 - sigma_plus - delta * np.sinh(w) ** 2) / t
        return 4.0 / (t * np.sqrt(x * (x - x_low)))

    res_b = integrate_1d(integrand_top, (0.0, w_span))
    return _sample(t, "oval_sqrt_asinh", res_a, res_b)

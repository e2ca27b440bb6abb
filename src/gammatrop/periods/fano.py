"""Exponential periods of projective-space mirrors and their predictions.

The measured side integrates exp(-t W) with W = x1 + ... + xn +
1/(x1...xn) over the positive orthant against the Haar form
dx1...dxn/(x1...xn).  In logarithmic coordinates x_i = e^{u_i} this is an
integral over R^n.  For n = 2 and n = 3 pairs of coordinates are
contracted by K0(z) = 1/2 int_R exp(-z cosh s) ds (DLMF 10.32.9), so
every supported n is one quadrature over the whole line.  The predicted
side is the period polynomial in L = -log t built from the Gamma class
of P^n.

K0 is evaluated here, elementwise and with every coefficient built at
import.  For x <= 2 it is the ascending series (DLMF 10.31.2)
K0(x) = -(log(x/2) + euler_gamma) I0(x) + sum_k H_k (x^2/4)^k / (k!)^2,
15 terms of each sum on shared powers of x^2/4.  For x > 2 the integral
above, with w = sqrt(2x) sinh(s/2), is
K0(x) = e^-x sqrt(2/x) int_0^inf e^(-w^2) (1 + w^2/(2x))^(-1/2) dw, taken
by the trapezoid rule with step 1/4 on 30 nodes.  Its integrand is
analytic for |Im w| < sqrt(2x), which is more than 2, so the rule
converges geometrically.  Against mpmath the relative error is below
1e-14 on [1e-300, 700], largest near x = 2, where the series cancels.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import cache

import numpy as np

from ..cohomology import ManifoldModel, PeriodPolynomial, gamma_period_polynomial
from ..errors import UnsupportedDimensionError
from ..quadrature import integrate_1d
from .types import PeriodSample, _big_l, _exp, _sample

__all__ = [
    "exp_period_orthant",
    "fano_prediction_polynomial",
    "fano_gamma_prediction",
]

_SUPPORTED_DIMS = (1, 2, 3)

# the smallest t per n.  An integrand is below the 1e-30 tail cutoff once
# an exponent passes 70, so the mass ends where t e^u = 70 for n = 1 and
# where t e^(-2a) = 70 for n = 2, whose smallest K0 argument with mass is
# then 2 t^(3/2) / sqrt(70) = 0.24 t^(3/2).  For n = 3 the two K0
# arguments multiply to 4 t^2, and the larger carries mass up to about 70,
# so the smaller down to 4 t^2 / 70.  Below these t the exponent cap
# (n = 1) or the K0 argument floor (n = 2, 3) binds inside the mass, and
# the quadrature would converge to a wrong value or not at all; above
# them the cap of `_exp` binds only on tail probes past the mass.
_T_FLOOR = {
    1: 70.0 * math.exp(-709.0),
    2: (sys.float_info.min * math.sqrt(70.0) / 2.0) ** (2.0 / 3.0),
    3: math.sqrt(sys.float_info.min * 70.0 / 4.0),
}

# the series: row k holds the coefficients 1/(k!)^2 of I0 and H_k/(k!)^2
# of the harmonic sum, for the power (x^2/4)^k
_K0_TERMS = 15
_K0_POWERS = np.arange(float(_K0_TERMS))
_K0_SERIES = np.array([
    [float(Fraction(1, math.factorial(k) ** 2)),
     float(sum(Fraction(1, j) for j in range(1, k + 1)) / math.factorial(k) ** 2)]
    for k in range(_K0_TERMS)
])
# the trapezoid rule at w_j = j/4: K0(x) = e^-x sum_j c_j / sqrt(x + w_j^2/2)
# with c_j = sqrt(2) e^(-w_j^2) / 4, halved at w_0 = 0
_K0_HALF_NODES_SQ = 0.5 * (0.25 * np.arange(30.0)) ** 2
_K0_TRAPEZOID = 0.25 * math.sqrt(2.0) * np.exp(-2.0 * _K0_HALF_NODES_SQ)
_K0_TRAPEZOID[0] *= 0.5


def _k0_series(x: np.ndarray) -> np.ndarray:
    """K0 by its ascending series, for x <= 2."""
    h = 0.5 * x
    # one (1, 15) by (15, 2) product per point, so a point's value does not
    # depend on the other points of its call
    i0, harmonic = np.matmul((h * h)[:, None, None] ** _K0_POWERS, _K0_SERIES)[:, 0].T
    # K0(0) is inf, and a negative x is outside the domain: nan
    with np.errstate(divide="ignore", invalid="ignore"):
        log = np.log(h)
    return harmonic - (log + np.euler_gamma) * i0


def _k0_trapezoid(x: np.ndarray) -> np.ndarray:
    """K0 by the trapezoid rule, for x > 2."""
    return np.exp(-x) * (_K0_TRAPEZOID / np.sqrt(x[:, None] + _K0_HALF_NODES_SQ)).sum(axis=1)


def _bessel_k0(x: np.ndarray) -> np.ndarray:
    """K0 at each point of the 1-d array x: inf at 0, 0 at inf, nan at nan."""
    near = x <= 2.0
    if near.all():
        return _k0_series(x)
    if not near.any():
        return _k0_trapezoid(x)
    out = np.empty(x.shape)
    out[near] = _k0_series(x[near])
    far = ~near
    out[far] = _k0_trapezoid(x[far])
    return out


def _k0_argument(t: float, a: np.ndarray) -> np.ndarray:
    """2 t e^a, floored at the smallest normal float.

    Where 2 t e^a would underflow to 0, K0 would be inf and meet a 0
    factor; at the floor K0 is about 708 and the other factor is 0.  A
    subnormal floor would not do, since `_k0_series` halves it.
    """
    return np.maximum(2.0 * t * _exp(a), sys.float_info.min)


def _check_n(n: int) -> None:
    # a bool is an int to isinstance, but True is no dimension
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")


def exp_period_orthant(n: int, t: float) -> PeriodSample:
    """Orthant exponential period of the n-dimensional mirror potential.

    Logarithmic coordinates x_i = e^{u_i} turn the orthant integral into
    one over R^n, and each branch is one integral over the whole line:

    - n = 1: exp(-2 t cosh u) directly ("log_orthant_1d");
    - n = 2: with a = (u1+u2)/2, the integral over u1 - u2 is 2 K0(2 t e^a)
      by K0(z) = 1/2 int_R exp(-z cosh s) ds (DLMF 10.32.9), leaving
      int_R 4 K0(2 t e^a) exp(-t e^{-2a}) da ("bessel_line_1d");
    - n = 3: the (u1, u2)-plane contracts to 2 K0(2 t e^a) as for n = 2,
      and the integral over u3 of exp(-t (e^{u3} + e^{-2a-u3})) is
      2 K0(2 t e^{-a}) by the same identity, leaving
      int_R 8 K0(2 t e^a) K0(2 t e^{-a}) da ("bessel_pair_1d").

    The quadrature runs at abs_tol = rel_tol = 1e-10, in the period's own
    units, since no scale follows.  The truncated tails are bounded in the
    reported error estimate.
    Non-convergent quadrature is reported on the returned sample, not
    raised.  t below a floor per n raises ValueError: about 8.5e-307,
    2.1e-205 and 6.2e-154 for n = 1, 2, 3, where the exponent cap or the
    K0 argument floor would bind inside the integrand's mass.
    """
    _check_n(n)
    if n not in _SUPPORTED_DIMS:
        raise UnsupportedDimensionError(
            f"exp_period_orthant supports n in {_SUPPORTED_DIMS}, got {n}"
        )
    _big_l(t)
    if t < _T_FLOOR[n]:
        raise ValueError(f"t = {t} is below the floor {_T_FLOOR[n]:.2g} of the n = {n} period")

    if n == 1:

        def integrand(u):
            return np.exp(-t * (_exp(u) + _exp(-u)))

        parametrization = "log_orthant_1d"
    elif n == 2:

        def integrand(a):
            return 4.0 * _bessel_k0(_k0_argument(t, a)) * np.exp(-t * _exp(-2.0 * a))

        parametrization = "bessel_line_1d"
    else:

        def integrand(a):
            # one K0 call on both arguments
            k = _bessel_k0(_k0_argument(t, np.concatenate((a, -a))))
            return 8.0 * k[:a.size] * k[a.size:]

        parametrization = "bessel_pair_1d"

    return _sample(t, parametrization, integrate_1d(integrand, (-math.inf, math.inf)))


@cache
def _prediction(n: int) -> PeriodPolynomial:
    """The Gamma polynomial of P^n, built once per checked n; never
    handed out, since PeriodPolynomial is mutable."""
    return gamma_period_polynomial(ManifoldModel(n), n + 1)


def fano_prediction_polynomial(n: int) -> PeriodPolynomial:
    """Period polynomial in L predicted for the P^n orthant period; a new
    object on every call."""
    _check_n(n)
    return PeriodPolynomial(_prediction(n).coefficients)


def fano_gamma_prediction(n: int, t: float) -> float:
    """Predicted orthant-period value at parameter t."""
    big_l = _big_l(t)
    _check_n(n)
    return _prediction(n).evaluate(big_l).real

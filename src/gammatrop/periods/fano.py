"""Exponential periods of projective-space mirrors and their predictions.

The measured side integrates exp(-t W) with W = x1 + ... + xn +
1/(x1...xn) over the positive orthant against the Haar form
dx1...dxn/(x1...xn).  In logarithmic coordinates x_i = e^{u_i} this is an
integral over R^n.  For n = 2 and n = 3 pairs of coordinates are
contracted by K0(z) = 1/2 int_R exp(-z cosh s) ds (DLMF 10.32.9), so
every supported n is one quadrature over the whole line.  The predicted
side is the period polynomial in L = -log t built from the Gamma class
of P^n.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np
from scipy.special import k0 as _bessel_k0

from ..cohomology import ManifoldModel, PeriodPolynomial, gamma_period_polynomial
from ..errors import UnsupportedDimensionError
from ..quadrature import QuadratureConfig, integrate_1d
from .types import PeriodSample

__all__ = [
    "exp_period_orthant",
    "fano_prediction_polynomial",
    "fano_gamma_prediction",
]

_SUPPORTED_DIMS = (1, 2, 3)


def _check_t(t: float) -> None:
    if not 0.0 < t < 1.0:
        raise ValueError("t must lie in (0, 1)")


def _check_n(n: int) -> None:
    # a bool is an int to isinstance, but True is no dimension
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")


def exp_period_orthant(
    n: int,
    t: float,
    config: QuadratureConfig | None = None,
) -> PeriodSample:
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

    The truncated tails are bounded in the reported error estimate.
    Non-convergent quadrature is reported on the returned sample, not
    raised.
    """
    _check_n(n)
    if n not in _SUPPORTED_DIMS:
        raise UnsupportedDimensionError(
            f"exp_period_orthant supports n in {_SUPPORTED_DIMS}, got {n}"
        )
    _check_t(t)
    cfg = config or QuadratureConfig()

    if n == 1:

        def integrand(u):
            return np.exp(-t * (np.exp(u) + np.exp(-u)))

        parametrization = "log_orthant_1d"
    elif n == 2:

        def integrand(a):
            return 4.0 * _bessel_k0(2.0 * t * np.exp(a)) * np.exp(-t * np.exp(-2.0 * a))

        parametrization = "bessel_line_1d"
    else:

        def integrand(a):
            return 8.0 * _bessel_k0(2.0 * t * np.exp(a)) * _bessel_k0(2.0 * t * np.exp(-a))

        parametrization = "bessel_pair_1d"

    res = integrate_1d(integrand, (-math.inf, math.inf), cfg)
    return PeriodSample(
        t=t,
        value=res.value,
        error_estimate=res.error_estimate,
        evaluations=res.evaluations,
        parametrization=parametrization,
        converged=res.converged,
    )


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
    _check_t(t)
    _check_n(n)
    value = _prediction(n).evaluate_at_t(t)
    return float(value.real)

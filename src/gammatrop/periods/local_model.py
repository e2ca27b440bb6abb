"""The two-dimensional local model: its region period and tropical area.

The model is the surface X1 X2 = 1 + Y.  The region period integrates the
holomorphic volume form over the chart x1 <= -a1, x2 <= -a2, |y| <= b in
log_t coordinates; it reduces exactly to a one-dimensional integral, whose
leading term is L^2 times the affine area of the region's tropical polytope.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from ..quadrature import QuadratureConfig, integrate_1d
from .types import _positive_finite, _require_converged

__all__ = [
    "local_model_polytope_area",
    "local_model_region_period",
]


def _check_region(a1, a2, b) -> None:
    """Reject a region that `MirrorFamily("local_model_2d", ...)` rejects:
    a1, a2 and b must be ints, Fractions or floats, not bools, finite and
    positive."""
    if not all(map(_positive_finite, (a1, a2, b))):
        raise ValueError("a1, a2, b must be finite numbers > 0")


def local_model_polytope_area(a1, a2, b):
    """Affine area 2(a1+a2)b - b^2/2 of the region's tropical polytope."""
    _check_region(a1, a2, b)
    if all(isinstance(v, (int, Fraction)) for v in (a1, a2, b)):
        a1, a2, b = Fraction(a1), Fraction(a2), Fraction(b)
        return 2 * (a1 + a2) * b - Fraction(b * b, 2)
    return 2.0 * (float(a1) + float(a2)) * float(b) - float(b) ** 2 / 2.0


def local_model_region_period(
    a1: float,
    a2: float,
    b: float,
    t: float,
    config: QuadratureConfig | None = None,
) -> float:
    """L^2 times the integral over [-b, b] of a1 + a2 + log_t(1 + t^y).

    log_t(1 + t^y) = min(0, y) - log(1 + e^(-L|y|))/L keeps the integrand
    stable for both signs of y.  The value approaches
    L^2 (2(a1+a2)b - b^2/2) - zeta(2) with an O(t^b) residual.
    """
    _check_region(a1, a2, b)
    if not 0.0 < t < 1.0:
        raise ValueError("t must lie in (0, 1)")
    cfg = config or QuadratureConfig()
    big_l = -math.log(t)
    base = float(a1) + float(a2)

    def integrand(y):
        return base + np.minimum(0.0, y) - np.log1p(np.exp(-big_l * np.abs(y))) / big_l

    res = integrate_1d(integrand, (-float(b), float(b)), cfg)
    return big_l * big_l * _require_converged(res, "region-period quadrature")

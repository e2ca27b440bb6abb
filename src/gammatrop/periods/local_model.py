"""The two-dimensional local model: region period and torus-fiber samples.

The model is the surface X1 X2 = 1 + Y fibered by
T(lam, r) = {|X1|^2 - |X2|^2 = lam, |Y| = r}, with one pinched fiber at
(lam, r) = (0, 1) through (0, 0, -1).  The region period integrates the
holomorphic volume form over the chart x1 <= -a1, x2 <= -a2, |y| <= b in
log_t coordinates; it reduces exactly to a one-dimensional integral.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ..errors import SingularFiberError
from ..quadrature import QuadratureConfig, integrate_1d
from .types import _require_converged

__all__ = [
    "local_model_polytope_area",
    "local_model_region_period",
    "FiberSample",
    "local_fiber_sample",
]


def local_model_polytope_area(a1, a2, b):
    """Affine area 2(a1+a2)b - b^2/2 of the region's tropical polytope."""
    if not (a1 > 0 and a2 > 0 and b > 0):
        raise ValueError("a1, a2, b must be positive")
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
    if not (a1 > 0 and a2 > 0 and b > 0):
        raise ValueError("a1, a2, b must be positive")
    if not 0.0 < t < 1.0:
        raise ValueError("t must lie in (0, 1)")
    cfg = config or QuadratureConfig()
    big_l = -math.log(t)
    base = float(a1) + float(a2)

    def integrand(y):
        return base + np.minimum(0.0, y) - np.log1p(np.exp(-big_l * np.abs(y))) / big_l

    res = integrate_1d(integrand, (-float(b), float(b)), cfg)
    return big_l * big_l * _require_converged(res, "region-period quadrature")


@dataclass(frozen=True)
class FiberSample:
    """A point of the surface X1 X2 = 1 + Y with its tropical data.

    log_image is (log_t|X1|, log_t|X2|, log_t|Y|).  balanced_approx is
    the fiber-wide estimate (log_t of (+-lam + sqrt(lam^2 + 4 r^2))/2,
    halved) valid where |y| stays away from 0; dominant_approx is
    (log_t|lam|)/2, valid for the larger of |X1|, |X2| (the smaller
    log coordinate).  Deviations are actual minus approximation; the
    dominant entries are None when lam = 0.
    """

    point: tuple[complex, complex, complex]
    log_image: tuple[float, float, float]
    balanced_approx: tuple[float, float]
    balanced_deviation: tuple[float, float]
    dominant_approx: float | None
    dominant_deviation_x1: float | None
    dominant_deviation_x2: float | None


def local_fiber_sample(
    lam: float,
    r: float,
    angles: tuple[float, float],
    t: float,
) -> FiberSample:
    """Construct the fiber point with Y = r e^(i theta), X1 phase phi.

    |X1|^2 - |X2|^2 = lam and X1 X2 = 1 + Y pin the moduli; angles =
    (theta, phi) pin the phases.  The pinch point of the singular fiber
    (lam, r) = (0, 1) at angle pi raises SingularFiberError; any other
    point with a vanishing coordinate has no log image and raises
    ValueError.
    """
    if not r > 0:
        raise ValueError("r must be positive")
    if not 0.0 < t < 1.0:
        raise ValueError("t must lie in (0, 1)")
    theta, phi = float(angles[0]), float(angles[1])
    # Y = -1 exactly: 1 + Y = 0, so X1 X2 = 0 and the log image breaks down
    if r == 1.0 and math.cos(theta) == -1.0:
        if lam == 0.0:
            raise SingularFiberError(
                "the pinch point (0, 0, -1) of the fiber (lam, r) = (0, 1)"
            )
        raise ValueError("a coordinate vanishes; log image undefined")
    y_val = r * cmath.exp(1j * theta)
    w = 1.0 + y_val
    rho = abs(w)
    if rho == 0.0:
        raise ValueError("a coordinate vanishes; log image undefined")
    # |X1|^2 solves q^2 - lam q - rho^2 = 0; rationalized per sign of lam
    spread_rho = math.hypot(lam, 2.0 * rho)
    if lam >= 0.0:
        x1_sq = (lam + spread_rho) / 2.0
    else:
        x1_sq = rho * rho / ((-lam + spread_rho) / 2.0)
    x1_val = math.sqrt(x1_sq) * cmath.exp(1j * phi)
    x2_val = w / x1_val

    big_l = -math.log(t)

    def log_t(value: float) -> float:
        return -math.log(value) / big_l

    log_image = (log_t(abs(x1_val)), log_t(abs(x2_val)), log_t(r))

    spread = math.hypot(lam, 2.0 * r)
    if lam >= 0.0:
        b_plus = (lam + spread) / 2.0
        b_minus = r * r / b_plus
    else:
        b_minus = (-lam + spread) / 2.0
        b_plus = r * r / b_minus
    balanced = (0.5 * log_t(b_plus), 0.5 * log_t(b_minus))
    balanced_dev = (log_image[0] - balanced[0], log_image[1] - balanced[1])

    if lam == 0.0:
        dominant = None
        dev1 = None
        dev2 = None
    else:
        dominant = 0.5 * log_t(abs(lam))
        dev1 = log_image[0] - dominant
        dev2 = log_image[1] - dominant

    return FiberSample(
        point=(x1_val, x2_val, y_val),
        log_image=log_image,
        balanced_approx=balanced,
        balanced_deviation=balanced_dev,
        dominant_approx=dominant,
        dominant_deviation_x1=dev1,
        dominant_deviation_x2=dev2,
    )

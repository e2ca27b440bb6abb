"""Periods of the pair of pants and of the mirror cubic curve.

The pants integral follows the residue 1-form along a real section of
1 + z1 + z2 = 0.  The elliptic period integrates the residue form of
t(X + Y + 1/(XY)) - 1 around its compact positive-real oval; the oval is
parametrized as a two-branch graph over X, with the branch square root
evaluated in closed form.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import StructureError
from ..quadrature import QuadratureConfig, integrate_1d
from .types import PeriodSample, _require_converged

__all__ = [
    "pants_section_integral",
    "elliptic_period",
    "elliptic_oval_points",
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
        return big_l / (1.0 + np.exp(-big_l * x))

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
    factorization and each chart places its integration origin at the
    branch point, so the 1/sqrt endpoint singularities are computed
    without cancellation.  Chart 1 sweeps X = X_- e^{Lv} up to 1/(2t);
    chart 2 covers the rest via sigma = 1 - tX.  Orientation is fixed
    so the value is positive.
    """
    if not 0.0 < t <= ELLIPTIC_T_MAX:
        raise ValueError(f"t must lie in (0, {ELLIPTIC_T_MAX}]")
    cfg = config or QuadratureConfig()
    big_l = -math.log(t)
    x_low, sigma_plus, sigma_neg = _oval_roots(t)
    x_b = (1.0 - sigma_plus) / t
    x_c = (1.0 - sigma_neg) / t

    # chart 1: X = x_low e^{Lv}, v in [0, V]; dX = L X dv
    v_span = math.log(1.0 / (2.0 * t) / x_low) / big_l

    def integrand_low(v):
        x = x_low * np.exp(big_l * v)
        gap = x_low * np.expm1(big_l * v)  # X - X_-, exact at the origin
        d = t * t * x * gap * (x_b - x) * (x_c - x)
        return 2.0 * big_l * x / np.sqrt(np.maximum(d, 1e-300))

    res_a = integrate_1d(integrand_low, (0.0, v_span), cfg)

    # chart 2: sigma = sigma_plus + tau, tau in [0, 1/2 - sigma_plus];
    # X_b - X = tau/t and X_c - X = (tau + delta)/t with delta =
    # sigma_plus - sigma_neg, both cancellation-free
    delta = sigma_plus - sigma_neg
    tau_span = 0.5 - sigma_plus

    def integrand_top(tau):
        x = (1.0 - sigma_plus - tau) / t
        d = x * (x - x_low) * tau * (tau + delta)
        return 2.0 / (t * np.sqrt(np.maximum(d, 1e-300)))

    res_b = integrate_1d(integrand_top, (0.0, tau_span), cfg)

    return PeriodSample(
        t=t,
        value=res_a.value + res_b.value,
        error_estimate=res_a.error_estimate + res_b.error_estimate,
        evaluations=res_a.evaluations + res_b.evaluations,
        parametrization="oval_two_chart",
        converged=res_a.converged and res_b.converged,
    )


def elliptic_oval_points(t: float, count: int = 64) -> list[tuple[float, float]]:
    """Sample the log_t image of the positive-real oval.

    Returns (log_t X, log_t Y) for both Y-branches over a geometric
    X-grid spanning the branch interval.  The image approaches the
    triangle with vertices (-1, -1), (-1, 2), (2, -1).
    """
    if not 0.0 < t <= ELLIPTIC_T_MAX:
        raise ValueError(f"t must lie in (0, {ELLIPTIC_T_MAX}]")
    if count < 2:
        raise ValueError("need at least two sample points")
    big_l = -math.log(t)
    x_low, sigma_plus, _ = _oval_roots(t)
    x_high = (1.0 - sigma_plus) / t
    points: list[tuple[float, float]] = []
    for k in range(count):
        frac = k / (count - 1)
        x = x_low * (x_high / x_low) ** frac
        # branch discriminant of the Y-quadratic: (1-tX)^2 - 4t^2/X
        d = max((1.0 - t * x) ** 2 - 4.0 * t * t / x, 0.0)
        y_plus = ((1.0 - t * x) + math.sqrt(d)) / (2.0 * t)
        y_minus = 1.0 / (x * y_plus)
        log_x = -math.log(x) / big_l
        points.append((log_x, -math.log(y_plus) / big_l))
        points.append((log_x, -math.log(y_minus) / big_l))
    return points

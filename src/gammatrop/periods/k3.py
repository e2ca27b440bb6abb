"""Period of the quartic mirror over its positive-real K3 cycle.

In log coordinates the cycle is the boundary of the convex body
Phi_t(w) = t^{w1+1} + t^{w2+1} + t^{w3+1} + t^{1-w1-w2-w3} <= 1, a graph
rho(u) over the unit sphere around the origin (the body's symmetry
center).  The residue 2-form pulled back to that radial chart gives
value = L^3 * integral over S^2 of rho(u)^2 / (d Phi/d rho) d sigma(u).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import StructureError
from ..quadrature import QuadratureConfig, Sphere, integrate_2d
from .types import PeriodSample

__all__ = ["k3_period", "K3_T_MAX"]

K3_T_MAX = 0.1

_SLOPES = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1))
_RHO_MAX = 8.0


def _default_config() -> QuadratureConfig:
    # surface quadrature with radial solves is costly; 1e-7 keeps every
    # downstream tolerance with two digits to spare
    return QuadratureConfig(abs_tol=1e-7, rel_tol=1e-7)


def k3_period(
    t: float,
    config: QuadratureConfig | None = None,
) -> PeriodSample:
    """Quartic-mirror period over the positive-real cycle at parameter t.

    The radial coordinate of the cycle along each direction is found by
    bisection on Phi = 1 over rho in (0, 8], run until the bracket is
    two adjacent floats; Phi is convex along rays and Phi(0) = 4t < 1,
    so the crossing is unique.  A direction whose ray never leaves the
    body within rho = 8 raises StructureError naming the direction.
    Orientation is fixed so the value is positive; the asymptotic is
    32 L^2 - 24 zeta(2) + o(1).
    """
    if not 0.0 < t <= K3_T_MAX:
        raise ValueError(f"t must lie in (0, {K3_T_MAX}]")
    cfg = config or _default_config()
    big_l = -math.log(t)

    def terms(rho, slopes):
        # one pass over the (4, n) slopes; rho broadcasts along the rows
        return np.exp(np.minimum(-big_l * (1.0 + rho * slopes), 700.0))

    def phi(rho, slopes):
        t0, t1, t2, t3 = terms(rho, slopes)
        return t0 + t1 + t2 + t3

    def integrand(nx, ny, nz):
        slopes = np.array([nx * sx + ny * sy + nz * sz for sx, sy, sz in _SLOPES])
        with np.errstate(over="ignore"):
            bad = ~(phi(np.full_like(nx, _RHO_MAX), slopes) > 1.0)
            if bad.any():
                idx = int(np.argmax(bad))
                direction = (float(nx[idx]), float(ny[idx]), float(nz[idx]))
                raise StructureError(
                    f"radial solve found no crossing along direction {direction}"
                )
            lo = np.zeros_like(nx)
            hi = np.full_like(nx, _RHO_MAX)
            mid = 0.5 * (lo + hi)
            # once lo and hi are adjacent floats the midpoint rounds onto
            # one of them and further steps change nothing
            while ((lo < mid) & (mid < hi)).any():
                inside = phi(mid, slopes) < 1.0
                lo = np.where(inside, mid, lo)
                hi = np.where(inside, hi, mid)
                mid = 0.5 * (lo + hi)
        rho = mid
        t0, t1, t2, t3 = terms(rho, slopes)
        s0, s1, s2, s3 = slopes
        # d Phi/d rho = -L * sum(s_i T_i) > 0 at the outward crossing
        return rho * rho / (-big_l * (s0 * t0 + s1 * t1 + s2 * t2 + s3 * t3))

    res = integrate_2d(integrand, Sphere(1.0), cfg)
    scale = big_l**3
    return PeriodSample(
        t=t,
        value=scale * res.value,
        error_estimate=scale * res.error_estimate,
        evaluations=res.evaluations,
        parametrization="radial_sphere_graph",
        converged=res.converged,
    )

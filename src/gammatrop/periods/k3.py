"""Period of the quartic mirror over its positive-real K3 cycle.

In log coordinates the cycle is the boundary of the convex body
Phi_t(w) = t^{w1+1} + t^{w2+1} + t^{w3+1} + t^{1-w1-w2-w3} <= 1, which
meets the ray through p at rho(p) p.  The residue 2-form pulled back to
that radial chart gives value = L^3 * integral over S^2 of
rho(u)^2 / (d Phi/d rho) d sigma(u).

The rays are those through the boundary of compact_chamber(tropicalize
(quartic)), the tetrahedron the body tends to as t -> 0, whose facet
forms are the terms of Phi.  `Sphere` hands the integrand the facet point
p and integrates in the cone measure, which gives the integral over S^2
because rho^2 / (d Phi/d rho) is homogeneous of degree -3 in p.  On every
facet the tropical integrand (Phi replaced by its largest term) is 1 / L,
so the facets sum to the leading term L^2 sum |det(a, b, c)| / 2 = 32 L^2,
the lattice area of the chamber's boundary.  The -24 zeta(2) sits in
bands of width about 1/L along the 6 edges, where two terms of Phi
compete, and the facet charts run every edge along panel edges instead of
across the panels.
"""

from __future__ import annotations

import numpy as np

from ..quadrature import QuadratureConfig, Sphere, integrate_2d
from ..tropical import compact_chamber, tropicalize
from .types import MirrorFamily, PeriodSample, _big_l, _sample

__all__ = ["k3_period", "K3_T_MAX"]

K3_T_MAX = 0.1

_FAMILY = MirrorFamily("quartic_k3").laurent_family()
# Phi's terms are the family's unit-coefficient terms, each at t-power 1
_SLOPES = tuple(term.exponent for term in _FAMILY.terms if term.coefficient == 1)
_CHAMBER = compact_chamber(tropicalize(_FAMILY))
_FACETS = tuple(_CHAMBER.facet_vertices(facet) for facet in _CHAMBER.facets)
# checked once here; every call integrates over the same charts
_SPHERE = Sphere(_FACETS)


# surface quadrature with radial solves is costly; 1e-7 keeps every
# downstream tolerance with two digits to spare
_DEFAULT_CONFIG = QuadratureConfig(abs_tol=1e-7, rel_tol=1e-7)


def _log_phi(rho, slopes, big_l):
    """log Phi and its rho-derivative along each ray, overflow-free.

    `slopes` is the (4, n) array of s_i per ray; the log-sum-exp is
    shifted by its largest exponent, so every exponential is at most 1.
    """
    exponents = -big_l * (1.0 + rho * slopes)
    top = exponents.max(axis=0)
    weights = np.exp(exponents - top)
    total = weights.sum(axis=0)
    return top + np.log(total), -big_l * (slopes * weights).sum(axis=0) / total


def _radial_root(slopes, big_l):
    """The radius rho of the crossing Phi = 1 along each ray, by Newton on
    log Phi, and d log Phi/d rho there.

    Along the ray through p, with s_i = <slope_i, p>,
    g(rho) = log Phi = log sum_i exp(-L (1 + rho s_i)) is a log-sum-exp of
    affine functions, so convex, with g(0) = log 4t < 0.  The seed is the
    chamber's gauge rho_0 = 1 / max_i(-s_i), where the ray leaves the
    chamber: the slopes sum to 0 and span R^3, so max_i(-s_i) > 0, and at
    a point of the chamber's boundary, where the exit facet's form 1 + s_i
    is 0, rho_0 is 1 up to rounding.  At rho_0 no exponent of Phi is
    positive and the exit facet's term is 1, so g(rho_0) >= 0: the crossing
    is unique and in (0, rho_0], and the Newton iterates fall monotonically
    onto it.  In floats m fl(1/m) rounds to 1 or just below it, so a seed
    can sit a rounding inside the body; it is then the crossing already,
    and its first step does not decrease it.  Each element steps until its
    next step would not decrease it, which happens once rounding has
    reached the crossing, so no step count or tolerance enters.  The last
    pass evaluated the derivative at the returned rho.
    """
    rho = 1.0 / (-slopes).max(axis=0)
    while True:
        g, dg = _log_phi(rho, slopes, big_l)
        step = rho - g / dg
        lower = step < rho
        if not lower.any():
            return rho, dg
        rho = np.where(lower, step, rho)


def k3_period(
    t: float,
    config: QuadratureConfig | None = None,
) -> PeriodSample:
    """Quartic-mirror period over the positive-real cycle at parameter t.

    The cycle's radius along the ray through each facet point is the
    crossing of log Phi = 0 that `_radial_root` finds by Newton.
    Orientation is fixed so the value is positive; the asymptotic is
    32 L^2 - 24 zeta(2) + o(1).
    """
    big_l = _big_l(t, K3_T_MAX)

    def integrand(x, y, z):
        slopes = np.array([x * sx + y * sy + z * sz for sx, sy, sz in _SLOPES])
        rho, dg = _radial_root(slopes, big_l)
        # d Phi/d rho = Phi d log Phi/d rho, and Phi = 1 at the crossing
        return rho * rho / dg

    res = integrate_2d(integrand, _SPHERE, config or _DEFAULT_CONFIG)
    return _sample(t, "radial_chamber_facets", res, scale=big_l**3)

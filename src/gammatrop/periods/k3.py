"""Period of the quartic mirror over its positive-real K3 cycle.

In log coordinates the cycle is the boundary of the convex body
Phi_t(w) = t^{w1+1} + t^{w2+1} + t^{w3+1} + t^{1-w1-w2-w3} <= 1, a graph
rho(u) over the unit sphere around the origin (the body's symmetry
center).  The residue 2-form pulled back to that radial chart gives
value = L^3 * integral over S^2 of rho(u)^2 / (d Phi/d rho) d sigma(u).

The sphere is charted by the radial projection of the 4 facets of
compact_chamber(tropicalize(quartic)), the tetrahedron the body tends to
as t -> 0; the terms of Phi are that chamber's facet forms.  Per unit
area of a facet F the integrand tends to h_F / L, with h_F the distance
of F's plane from the origin, so the facets sum to the leading term
32 L^2, the lattice area of the chamber's boundary.  The -24 zeta(2)
sits in bands of width about 1/L along the 6 edges, where two terms of
Phi compete, and the facet charts run every edge along panel edges
instead of across the panels.

Along a ray u the exponents of Phi are affine in rho, so
g(rho) = log Phi = log sum_i exp(-L (1 + rho s_i)), s_i = <slope_i, u>,
is a log-sum-exp of affine functions and hence convex, with
g(0) = log 4t < 0.  So g crosses zero once, with positive slope, and
Newton's method started at a point where g >= 0 decreases monotonically
to the crossing.  The chamber's gauge rho_0 = 1 / max_i(-s_i), where the
ray leaves the chamber, is such a point: there every exponent is <= 0
and the exit facet's term is 1, so the crossing lies in (0, rho_0].
"""

from __future__ import annotations

import math

import numpy as np

from ..quadrature import QuadratureConfig, Sphere, integrate_2d
from ..tropical import compact_chamber, tropicalize
from .types import MirrorFamily, PeriodSample

__all__ = ["k3_period", "K3_T_MAX"]

K3_T_MAX = 0.1

_FAMILY = MirrorFamily("quartic_k3").laurent_family()
# Phi's terms are the family's unit-coefficient terms, each at t-power 1
_SLOPES = tuple(term.exponent for term in _FAMILY.terms if term.coefficient == 1)
_CHAMBER = compact_chamber(tropicalize(_FAMILY))
_FACETS = tuple(_CHAMBER.facet_vertices(facet) for facet in _CHAMBER.facets)
# checked once here; every call integrates over the same charts
_SPHERE = Sphere(_FACETS)


def _default_config() -> QuadratureConfig:
    # surface quadrature with radial solves is costly; 1e-7 keeps every
    # downstream tolerance with two digits to spare
    return QuadratureConfig(abs_tol=1e-7, rel_tol=1e-7)


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

    The seed is the chamber's gauge rho_0 = 1 / max_i(-s_i).  The slopes
    sum to 0 and span R^3, so max_i(-s_i) > 0, and rho_0 is at most the
    chamber's circumradius sqrt(11).  At rho_0 no exponent of Phi is
    positive and the exit facet's term is 1, so log Phi(rho_0) >= 0 and,
    log Phi being convex, the Newton iterates fall monotonically onto the
    crossing in (0, rho_0].  In floats m fl(1/m) rounds to 1 or just
    below it, so a seed can sit a rounding inside the body; it is then the
    crossing already, and its first step does not decrease it.  Each
    element steps until its next step would not decrease it, which happens
    once rounding has reached the crossing, so no step count or tolerance
    enters.  The last pass evaluated the derivative at the returned rho.
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

    The radial coordinate of the cycle along each direction is the zero of
    log Phi on rho in (0, rho_0], with rho_0 the radius at which the ray
    leaves the compact chamber.  log Phi is convex along rays, equals
    log 4t < 0 at rho = 0 and is >= 0 at rho_0, so the crossing is unique,
    and Newton's method from rho_0 descends monotonically onto it; each
    direction iterates until a step no longer decreases its rho.
    Orientation is fixed so the value is positive; the asymptotic is
    32 L^2 - 24 zeta(2) + o(1).
    """
    if not 0.0 < t <= K3_T_MAX:
        raise ValueError(f"t must lie in (0, {K3_T_MAX}]")
    cfg = config or _default_config()
    big_l = -math.log(t)

    def integrand(nx, ny, nz):
        slopes = np.array([nx * sx + ny * sy + nz * sz for sx, sy, sz in _SLOPES])
        rho, dg = _radial_root(slopes, big_l)
        # d Phi/d rho = Phi d log Phi/d rho, and Phi = 1 at the crossing
        return rho * rho / dg

    res = integrate_2d(integrand, _SPHERE, cfg)
    scale = big_l**3
    return PeriodSample(
        t=t,
        value=scale * res.value,
        error_estimate=scale * res.error_estimate,
        evaluations=res.evaluations,
        parametrization="radial_chamber_facets",
        converged=res.converged,
    )

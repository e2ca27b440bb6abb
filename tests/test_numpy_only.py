"""Checks that need numpy alone: the exact layer, with the hull facets of
the quartic's chamber and of the point chamber in Q^0
(`test_chamber_facets_from_the_hull`) and the `halfplane_polygon` of a
triangle, an unbounded wedge and an empty region
(`test_halfplane_polygon_of_three_regions`), two error integrals and three
periods: the K3 and Fano periods, the two ways a driver reports
quadrature results, and the elliptic period, whose branch points are
fixed points of contractions.

numpy is the package's only runtime dependency.  This file imports only
the standard library, pytest and gammatrop, so it runs where the package
is installed beside pytest alone, before the test extra brings in scipy,
sympy and mpmath; the full suite runs it too.
"""

import math
from fractions import Fraction
from functools import cache

import pytest

from gammatrop import zeta_value
from gammatrop.periods import (
    MirrorFamily,
    elliptic_period,
    error_integral_dim2_b,
    exp_period_orthant,
    fano_gamma_prediction,
    k3_period,
    local_model_region_period,
)
from gammatrop.periods.types import _simplex_family as simplex_family
from gammatrop.quadrature import QuadratureConfig
from gammatrop.tropical import (
    AffineForm,
    TropicalPolynomial,
    boundary_affine_area,
    compact_chamber,
    corner_locus,
    edge_singularities,
    halfplane_polygon,
    tropicalize,
)


FAMILIES = {
    "quartic": MirrorFamily("quartic_k3").laurent_family(),
    "cubic": MirrorFamily("elliptic_cubic").laurent_family(),
    "P^1": simplex_family(1),
    "quintic": simplex_family(4),
}


@cache
def chamber(name):
    return compact_chamber(tropicalize(FAMILIES[name]))


@cache
def quintic_locus():
    return corner_locus(tropicalize(FAMILIES["quintic"]), (-400, 400))


def bounded_sum(dim):
    cells = quintic_locus().cells_of_dim(dim)
    return sum((c.affine_measure() for c in cells if c.bounded), Fraction(0))


EXACT = {
    "quartic boundary": (lambda: boundary_affine_area(chamber("quartic")), 32),
    "quartic volume": (lambda: chamber("quartic").volume(), Fraction(32, 3)),
    "quartic edge singularities": (lambda: len(edge_singularities(chamber("quartic"))), 24),
    "cubic boundary": (lambda: boundary_affine_area(chamber("cubic")), 9),
    "cubic volume": (lambda: chamber("cubic").volume(), Fraction(9, 2)),
    "P^1 boundary": (lambda: boundary_affine_area(chamber("P^1")), 2),
    "P^1 volume": (lambda: chamber("P^1").volume(), 2),
    "quintic boundary": (lambda: boundary_affine_area(chamber("quintic")), Fraction(625, 6)),
    "quintic volume": (lambda: chamber("quintic").volume(), Fraction(625, 24)),
    "quintic locus bounded 1-cells": (lambda: bounded_sum(1), 50),
    "quintic locus bounded 2-cells": (lambda: bounded_sum(2), 125),
    "quintic locus bounded 3-cells": (lambda: bounded_sum(3), Fraction(625, 6)),
}


@pytest.mark.parametrize("name", EXACT)
def test_chamber_invariant(name):
    compute, want = EXACT[name]
    assert compute() == want


def test_chamber_facets_from_the_hull():
    # the quartic's chamber, a simplex: each of its four facets holds
    # three of its four vertices and has a primitive normal
    quartic = chamber("quartic")
    assert len(quartic.facets) == 4 and len(quartic.vertices) == 4
    for (normal, _), on in zip(quartic.facets, quartic.incidence):
        assert math.gcd(*normal) == 1
        assert len(on) == 3
    # Q^0 is one point, whose hull search finds no facet
    point = compact_chamber(TropicalPolynomial((AffineForm((), 0), AffineForm((), 1))))
    assert (point.vertices, point.facets, point.incidence) == (((),), (), ())


def test_halfplane_polygon_of_three_regions():
    # one cone-ray search gives a region's vertices and its boundedness
    triangle = [((1, 0), 0), ((-1, -1), 4), ((0, 1), 1)]
    assert halfplane_polygon(triangle) == [(0, -1), (0, 4), (5, -1)]
    with pytest.raises(ValueError, match="bounded region"):
        halfplane_polygon([((1, 0), 0), ((1, 1), 0)])
    assert halfplane_polygon([((1, 0), -1), ((-1, 0), 0), ((0, 1), 0)]) == []


def test_dim2_b_length_chi_and_value():
    # the pieces go from halfplane_polygon to ConvexPolygon
    big_l = -math.log(1e-3)
    value, length, chi = error_integral_dim2_b(((-4, 2), (-2, 2)), 1e-3)
    assert (length, chi) == (6, 1)
    assert abs(value - (6 * zeta_value(2) * big_l + zeta_value(3))) <= 1e-3


def test_region_period_value():
    predicted = 3.5 * math.log(1e-3) ** 2 - zeta_value(2)
    assert abs(local_model_region_period(1, 1, 1, 1e-3) - predicted) <= 5e-3


def test_k3_period_converged_value():
    k3 = k3_period(1e-2, QuadratureConfig(1e-5, 1e-5))
    assert k3.converged
    assert abs(k3.value - (32 * math.log(1e-2) ** 2 - 24 * zeta_value(2))) <= 0.05


def test_fano_period_n2_against_its_prediction():
    fano = exp_period_orthant(2, 1e-3)
    predicted = fano_gamma_prediction(2, 1e-3)
    assert fano.converged
    assert abs(fano.value - predicted) <= 1e-3 * abs(predicted)


def test_elliptic_period_is_nine_l():
    sample = elliptic_period(1e-2)
    assert sample.converged
    assert abs(sample.value - 9 * sample.big_l) <= 1e-3

"""Integral-affine measurements in exact rational arithmetic.

Lengths, areas and volumes here are normalized by the lattice, not the
Euclidean metric: a primitive segment has length 1, a fundamental
parallelogram of the lattice induced on a rational plane has area 1.
These are the invariants preserved by GL(n, Z) and translations.

Every measure, in any ambient dimension, is one rule: a simplex has the
gcd of the maximal minors of its cleared edge vectors over D^k k!
(`_simplex_measure`), and any other face is the sum over its pulling
triangulation from its least point (`_pulling`), whose sub-faces are read
from the facet incidence sets of its polytope (`_subfaces`).  A compact
chamber brings its incidence; a bare point set finds its hull's facets
once, in coordinates on its affine span, and measures in its own, so no
measure needs its points in any order.  Every normal of a hull facet,
and every homogeneous vertex of `polyhedra`, is the signed `_minors` of
its rows, for any number of rows.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

Rational = int | Fraction


def primitive_vector(v: Sequence[Rational]) -> tuple[int, ...]:
    """The primitive integer vector on the ray through v.

    Integer input is divided by its gcd; other rational input is cleared
    to integers first.  The zero vector has no direction and raises
    ValueError.
    """
    integers = list(v)
    if not all(isinstance(x, int) for x in integers):
        fractions = [Fraction(x) for x in integers]
        scale = math.lcm(*(x.denominator for x in fractions))
        integers = [int(x * scale) for x in fractions]
    g = math.gcd(*integers)
    if g == 0:
        raise ValueError("the zero vector has no primitive direction")
    return tuple(x // g for x in integers)


def affine_length(p: Sequence[Rational], q: Sequence[Rational]) -> Fraction:
    """Lattice length of the segment from p to q, their `_simplex_measure`.

    Float coordinates are read as the exact binary fractions they are.
    """
    if len(p) != len(q):
        raise ValueError("endpoints must share one ambient dimension")
    return _simplex_measure((tuple(map(Fraction, p)), tuple(map(Fraction, q))))


def _wedge(minors: dict[tuple[int, ...], Rational], row: Sequence[Rational]) -> dict:
    """The (k + 1)-minors of k rows and one more row, from their k-minors.

    minors maps each increasing k-tuple of columns to the determinant of
    the rows there; {(): 1} stands for no rows.  Each new minor is the
    Laplace expansion along the new row, up to one sign shared by all.
    """
    size = len(next(iter(minors))) + 1
    return {
        cols: sum((-1) ** i * row[c] * minors[cols[:i] + cols[i + 1:]] for i, c in enumerate(cols))
        for cols in itertools.combinations(range(len(row)), size)
    }


def _minors(rows: Sequence[Sequence[Rational]]) -> tuple[Rational, ...]:
    """The signed maximal minors h of k rows of length k + 1, any k.

    h_j is (-1)^j times the determinant of the rows without column j, so
    row . h is the determinant of the rows with that row stacked on top:
    0 for each of them.  k = 0, 1 and 2 are closed forms, the last the
    cross product; above, each determinant is the Laplace expansion along
    the first row, whose cofactors are the `_minors` of the other rows
    without column j.
    """
    k = len(rows)
    if k == 0:
        return (1,)
    if k == 1:
        ((c, d),) = rows
        return (d, -c)
    if k == 2:
        (a0, a1, a2), (b0, b1, b2) = rows
        return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)
    first, *rest = rows
    h = []
    for j in range(k + 1):
        cofactors = _minors([r[:j] + r[j + 1:] for r in rest])
        h.append((-1) ** j * sum(map(mul, first[:j] + first[j + 1:], cofactors)))
    return tuple(h)


def _simplex_measure(points: Sequence[Sequence[Rational]]) -> Fraction:
    """Lattice measure of the simplex on k + 1 rational points, any n.

    The edge vectors p_i - p_0, cleared by one common denominator D, are
    integer rows C.  A basis B of the lattice Z^n in their span has
    coprime k x k minors and C = M B, so by Cauchy-Binet the gcd of the
    k x k minors of C is |det M|, the index of the edge lattice, and the
    measure is that gcd over D^k k!.  A flat simplex has measure 0 and a
    point measure 1.
    """
    origin, *rest = points
    edges = [[x - o for x, o in zip(p, origin)] for p in rest]
    scale = math.lcm(*(x.denominator for row in edges for x in row))
    minors: dict[tuple[int, ...], Rational] = {(): 1}
    for row in edges:
        minors = _wedge(minors, [x.numerator * (scale // x.denominator) for x in row])
    k = len(edges)
    return Fraction(math.gcd(*minors.values()), scale**k * math.factorial(k))


def _subfaces(face: frozenset[int], incidence: Iterable[Iterable[int]]) -> set[frozenset[int]]:
    """The facets of a face, as sets of point indices.

    Every face of a polytope is the set of its points on some facets, so
    the facets of a face are the maximal proper nonempty intersections of
    its points with the polytope's facet incidence sets.
    """
    cuts = {face.intersection(on) for on in incidence} - {face, frozenset()}
    return {c for c in cuts if not any(c < d for d in cuts)}


def _pulling(face: frozenset[int], incidence: Sequence[Iterable[int]]) -> list[tuple[int, ...]]:
    """The pulling triangulation of a face from its least point.

    A point is its own simplex; any other face is the cone from its least
    point over the pulled simplices of its facets that miss that point.
    """
    first = min(face)
    if len(face) == 1:
        return [(first,)]
    return [
        (first, *simplex)
        for sub in _subfaces(face, incidence)
        if first not in sub
        for simplex in _pulling(sub, incidence)
    ]


def _face_measure(
    points: Sequence[Sequence[Rational]], face: Iterable[int], incidence: Sequence[Iterable[int]]
) -> Fraction:
    """Lattice measure of a face of the polytope on points, no point twice:
    `_simplex_measure` summed over its `_pulling` triangulation.  face and
    the facet incidence sets hold indices into points."""
    simplices = _pulling(frozenset(face), incidence)
    return sum((_simplex_measure([points[i] for i in s]) for s in simplices), Fraction(0))


def _hull_measure(vertices: Sequence[Sequence[Rational]]) -> tuple[int, Fraction]:
    """The dimension d and lattice measure of the hull of rational points.

    The columns of a nonzero maximal minor of the points' differences,
    found by `_wedge`, are coordinates on their affine span.  Dropping
    the other coordinates only finds the hull's facets, each through d
    points, in homogeneous integer coordinates over one denominator,
    whose signed `_minors` are a normal with every point on one side; the
    measure is `_face_measure` of the points themselves.  An empty set
    gives d = -1 and measure 0.
    """
    points = sorted({tuple(map(Fraction, v)) for v in vertices})
    if len({len(p) for p in points}) > 1:
        raise ValueError("vertices must share one ambient dimension")
    if not points:
        return -1, Fraction(0)
    span: dict[tuple[int, ...], Rational] = {(): 1}
    for p in points[1:]:
        wider = _wedge(span, [x - o for x, o in zip(p, points[0])])
        if any(wider.values()):
            span = wider
    frame = next(cols for cols, m in span.items() if m)
    scale = math.lcm(*(x.denominator for p in points for x in p))
    shadow = [(*(int(p[j] * scale) for j in frame), scale) for p in points]
    facets = set()
    for combo in itertools.combinations(shadow, len(frame)):
        normal = _minors(combo)
        values = [sum(map(mul, normal, row)) for row in shadow]
        if min(values) >= 0 or max(values) <= 0:
            facets.add(frozenset(i for i, v in enumerate(values) if v == 0))
    return len(frame), _face_measure(points, range(len(points)), list(facets))


def polygon_affine_area(vertices: Sequence[Sequence[Rational]]) -> Fraction:
    """Lattice-normalized area of the convex hull of coplanar rational points.

    Vertices may sit in any ambient dimension, in any order; points that
    span less than a plane give 0.  Vertices off one plane, or of
    different ambient dimensions, raise ValueError.
    """
    dim, area = _hull_measure(vertices)
    if dim > 2:
        raise ValueError("vertices must lie in one plane")
    return area if dim == 2 else Fraction(0)


def _convex_hull(
    points: Iterable[tuple[Fraction, Fraction]]
) -> list[tuple[Fraction, Fraction]]:
    """The vertices of the convex hull of plane points, counterclockwise.

    Andrew's monotone chain, lower then upper, so the cycle starts at the
    lexicographically smallest point; points inside the hull or on its
    edges, and duplicates, drop out.  Collinear points give their two
    extreme points, and a single point gives [].
    """
    ordered = sorted(set(points))
    hull: list[tuple[Fraction, Fraction]] = []
    for chain in (ordered, ordered[::-1]):
        start = len(hull)
        for p in chain:
            while len(hull) >= start + 2:
                (ax, ay), (bx, by) = hull[-2], hull[-1]
                if (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) > 0:
                    break
                hull.pop()
            hull.append(p)
        hull.pop()  # the chain's last point starts the next one
    return hull


def affine_volume(vertices: Sequence[Sequence[Rational]]) -> Fraction:
    """Lattice-normalized volume of the convex hull of points in Q^n, any n.

    Points that span less than Q^n give 0.  The standard simplex has
    volume 1/n!.
    """
    dim, volume = _hull_measure(vertices)
    return volume if vertices and dim == len(vertices[0]) else Fraction(0)

"""Integral-affine measurements in exact rational arithmetic.

Lengths, areas and volumes here are normalized by the lattice, not the
Euclidean metric: a primitive segment has length 1, a fundamental
parallelogram of the lattice induced on a rational plane has area 1.
These are the invariants preserved by GL(n, Z) and translations.

Every measure, in any ambient dimension, is one rule: a simplex has the
gcd of the maximal minors of its cleared edge vectors over D^k k!
(`_simplex_measure`), and any other face is the sum over its pulling
triangulation from its least point (`_pulling`), whose sub-faces are read
from the facet incidence sets of its polytope (`_subfaces`).  Those sets
come from one facet search, `_hull_facets`, for a compact chamber in its
ambient space and for a bare point set in coordinates on its affine span,
where it measures in its own, so no measure needs its points in any
order.

Three more jobs of the whole exact layer are written once, here.
`_integer_row` clears each rational row that is cleared on its own, one
lcm per row.  `_pivots` is the one fraction-free elimination: its pivot
columns give every rank, and a frame on an affine span.  `_cone_rays`
gives the extreme rays of a cone of integer rows, from the signed
`_minors` of every m - 1 of them: the facets of a hull here, and the
vertices and recession directions of a `polyhedra.halfplane_polygon`
region.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Iterator, Sequence

from .forms import _not_bool

Rational = int | Fraction


def _integer_row(values: Sequence[Rational]) -> tuple[int, ...]:
    """The rationals scaled by the lcm of their denominators, as ints.

    The scale is positive, so signs, and the solution sets of the rows as
    equations or inequalities, do not change.
    """
    scale = math.lcm(*(x.denominator for x in values))
    return tuple(x.numerator * (scale // x.denominator) for x in values)


def primitive_vector(v: Sequence[Rational]) -> tuple[int, ...]:
    """The primitive integer vector on the ray through v.

    Integer input is divided by its gcd; other rational input is cleared
    to integers first, by `_integer_row`.  The zero vector has no
    direction and raises ValueError, and a bool entry TypeError.
    """
    integers = [_not_bool(x) for x in v]
    if not all(isinstance(x, int) for x in integers):
        integers = _integer_row([Fraction(x) for x in integers])
    g = math.gcd(*integers)
    if g == 0:
        raise ValueError("the zero vector has no primitive direction")
    return tuple(x // g for x in integers)


def affine_length(p: Sequence[Rational], q: Sequence[Rational]) -> Fraction:
    """Lattice length of the segment from p to q, their `_simplex_measure`.

    Float coordinates are read as the exact binary fractions they are; a
    bool raises TypeError.
    """
    if len(p) != len(q):
        raise ValueError("endpoints must share one ambient dimension")
    return _simplex_measure([tuple(Fraction(_not_bool(x)) for x in e) for e in (p, q)])


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


def _pivots(rows: Sequence[Sequence[int]]) -> list[int]:
    """The pivot columns of integer rows, all of one length, by
    fraction-free elimination: each row is reduced in turn by the pivot
    rows before it, each time divided by its gcd, and one that is not
    reduced to 0 becomes a pivot row at its first nonzero entry.  Their
    number is the rank, and the rows' minor on them is not 0, since each
    pivot row is 0 at the pivot columns found before it."""
    reduced: dict[int, list[int]] = {}
    for row in rows:
        for col, pivot in reduced.items():
            if row[col]:
                p, f = pivot[col], row[col]
                row = [p * x - f * y for x, y in zip(row, pivot)]
                g = math.gcd(*row)
                row = [x // g for x in row] if g > 1 else row
        col = next((c for c, x in enumerate(row) if x), None)
        if col is not None:
            reduced[col] = row
    return list(reduced)


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


def _cone_rays(rows: Sequence[Sequence[int]], m: int) -> Iterator[tuple[int, ...]]:
    """The candidate extreme rays of {d : row . d >= 0 for all rows}.

    Rows are integer vectors of length m.  For every m - 1 of them whose
    signed `_minors` h are not all 0, yields h, then -h, each if it
    satisfies every row.  If the rows have rank m, these are the cone's
    extreme rays, each once per m - 1 of its rows that span its kernel.
    """
    for combo in itertools.combinations(rows, m - 1):
        h = _minors(combo)
        if not any(h):
            continue
        values = [sum(map(mul, row, h)) for row in rows]
        if min(values) >= 0:
            yield h
        if max(values) <= 0:
            yield tuple(-x for x in h)


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


def _hull_facets(points: Sequence[Sequence[Rational]]) -> dict[tuple, tuple[int, ...]]:
    """{facet row: increasing indices of the points on it} for the hull of
    rational points that span their space, in any dimension.

    Each point, homogeneous and cleared by `_integer_row`, is one row, and
    each facet is the zero set of one of the rows' `_cone_rays`.  That ray
    over the gcd of its normal part, all but its last entry, is the facet
    row (primitive normal, offset), normal . x + offset >= 0 on the hull.
    A ray with normal part 0 bounds nothing: a point in Q^0 has no facet.
    """
    rows = [_integer_row((*p, 1)) for p in points]
    facets: dict[tuple, tuple[int, ...]] = {}
    for ray in _cone_rays(rows, len(rows[0])):
        g = math.gcd(*ray[:-1])
        if g:
            facet = tuple(x // g for x in ray[:-1]), Fraction(ray[-1], g)
            if facet not in facets:
                facets[facet] = tuple(i for i, row in enumerate(rows) if not sum(map(mul, ray, row)))
    return facets


def _hull_measure(vertices: Sequence[Sequence[Rational]]) -> tuple[int, Fraction]:
    """The dimension d and lattice measure of the hull of rational points.

    The `_pivots` of the points' cleared differences are coordinates on
    their affine span.  Dropping the other coordinates only finds the
    hull's incidence, the `_hull_facets` of the points there.  The measure
    is `_face_measure` of the points themselves.  An empty set gives d = -1
    and measure 0, and a bool coordinate raises TypeError.
    """
    points = sorted({tuple(Fraction(_not_bool(x)) for x in v) for v in vertices})
    if len({len(p) for p in points}) > 1:
        raise ValueError("vertices must share one ambient dimension")
    if not points:
        return -1, Fraction(0)
    frame = _pivots([_integer_row([x - o for x, o in zip(p, points[0])]) for p in points[1:]])
    incidence = _hull_facets([tuple(p[j] for j in frame) for p in points]).values()
    return len(frame), _face_measure(points, range(len(points)), list(incidence))


def polygon_affine_area(vertices: Sequence[Sequence[Rational]]) -> Fraction:
    """Lattice-normalized area of the convex hull of coplanar rational points.

    Vertices may sit in any ambient dimension, in any order; points that
    span less than a plane give 0.  Vertices off one plane, or of
    different ambient dimensions, raise ValueError, and a bool coordinate
    TypeError.
    """
    dim, area = _hull_measure(vertices)
    if dim > 2:
        raise ValueError("vertices must lie in one plane")
    return area if dim == 2 else Fraction(0)


def affine_volume(vertices: Sequence[Sequence[Rational]]) -> Fraction:
    """Lattice-normalized volume of the convex hull of points in Q^n, any n.

    Points that span less than Q^n give 0, and a bool coordinate raises
    TypeError.  The standard simplex has volume 1/n!.
    """
    dim, volume = _hull_measure(vertices)
    return volume if vertices and dim == len(vertices[0]) else Fraction(0)

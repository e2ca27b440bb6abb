"""Integral-affine measurements in exact rational arithmetic.

Lengths, areas and volumes here are normalized by the lattice, not the
Euclidean metric: a primitive segment has length 1, a fundamental
parallelogram of the lattice induced on a rational plane has area 1.
These are the invariants preserved by GL(n, Z) and translations.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
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
    """Lattice length of the segment from p to q.

    The segment must have rational direction; its length is the rational
    multiple of the primitive direction vector it spans.
    """
    diff = [Fraction(b) - Fraction(a) for a, b in zip(q, p)]
    if len(diff) != len(p) or len(p) != len(q):
        raise ValueError("endpoints must share one ambient dimension")
    if all(d == 0 for d in diff):
        return Fraction(0)
    prim = primitive_vector(diff)
    for d, e in zip(diff, prim):
        if e != 0:
            return abs(d / e)
    raise AssertionError("primitive direction of a nonzero vector is nonzero")


def _cross(a: Sequence[Rational], b: Sequence[Rational]) -> tuple[Rational, ...]:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def plane_lattice_basis(
    d1: Sequence[Rational], d2: Sequence[Rational]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A basis of the rank-2 lattice Z^n intersect span_Q(d1, d2), n <= 3.

    The directions must be linearly independent.  In the plane the answer
    is the standard basis; in 3-space the plane is the kernel of its
    primitive normal u, and a kernel basis comes from Bezout data for u.
    """
    v1 = primitive_vector(d1)
    v2 = primitive_vector(d2)
    n = len(v1)
    if len(v2) != n:
        raise ValueError("directions must share one ambient dimension")
    if n == 2:
        if v1[0] * v2[1] - v1[1] * v2[0] == 0:
            raise ValueError("directions must be linearly independent")
        return (1, 0), (0, 1)
    if n != 3:
        raise ValueError("only ambient dimensions 2 and 3 are supported")
    normal = _cross(v1, v2)
    if not any(normal):
        raise ValueError("directions must be linearly independent")
    u = primitive_vector(normal)
    if u[0] == 0 and u[1] == 0:
        # plane is the coordinate plane w3 = const
        return (1, 0, 0), (0, 1, 0)
    g, p, q = _extended_gcd(u[0], u[1])
    b1 = (u[1] // g, -u[0] // g, 0)
    b2 = (p * u[2], q * u[2], -g)
    return b1, b2


def _rational_points(
    vertices: Sequence[Sequence[Rational]],
) -> list[tuple[Fraction, ...]]:
    """The vertices as Fraction tuples, all of one ambient dimension."""
    points = [tuple(Fraction(x) for x in v) for v in vertices]
    if any(len(p) != len(points[0]) for p in points):
        raise ValueError("vertices must share one ambient dimension")
    return points


def polygon_affine_area(vertices: Sequence[Sequence[Rational]]) -> Fraction:
    """Lattice-normalized area of the convex hull of coplanar rational points.

    Vertices may sit in the plane or in 3-space, in any order; in 3-space
    the area is `_projected_measure` through the primitive normal of their
    plane.  Vertices off one plane, or in another ambient dimension, raise
    ValueError.
    """
    points = _rational_points(vertices)
    if not points:
        return Fraction(0)
    n = len(points[0])
    if n == 2:
        return _hull_area(points)
    if n != 3:
        raise ValueError("only ambient dimensions 2 and 3 are supported")
    origin = points[0]
    offsets = [tuple(x - o for x, o in zip(p, origin)) for p in points[1:]]
    normals = (_cross(a, b) for a, b in itertools.combinations(offsets, 2))
    normal = next((c for c in normals if any(c)), None)
    if normal is None:
        return Fraction(0)  # the vertices span less than a plane
    u = primitive_vector(normal)
    if any(sum(c * x for c, x in zip(u, v)) for v in offsets):
        raise ValueError("vertices must lie in one plane")
    return _projected_measure(points, u)


def _projected_measure(
    points: Sequence[tuple[Fraction, ...]], u: tuple[int, ...]
) -> Fraction:
    """Lattice measure of the hull of points on a hyperplane, n = 2 or 3.

    u is the hyperplane's primitive normal and k the first coordinate
    with u_k != 0.  Dropping coordinate k maps the hyperplane's lattice
    onto a sublattice of Z^(n-1) of index |u_k|, so the measure is the
    projected length (n = 2) or shoelace area (n = 3) over |u_k|.
    """
    k = next(i for i, c in enumerate(u) if c != 0)
    shadow = [p[:k] + p[k + 1:] for p in points]
    if len(u) == 2:
        xs = [x for (x,) in shadow]
        return (max(xs) - min(xs)) / abs(u[k])
    return _hull_area(shadow) / abs(u[k])


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


def _hull_area(points: Iterable[tuple[Fraction, Fraction]]) -> Fraction:
    """Shoelace area of the `_convex_hull` of plane points, any order."""
    hull = _convex_hull(points)
    area2 = sum(
        (x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in zip(hull, hull[1:] + hull[:1])),
        Fraction(0),
    )
    return abs(area2) / 2


def _pyramid_volume(
    apex: Sequence[Fraction],
    facets: Iterable[tuple[tuple[int, ...], Fraction, Sequence[tuple[Fraction, ...]]]],
) -> Fraction:
    """Lattice volume of a 3-polytope as the facet pyramids over an apex.

    Each facet is (u, c, vertices) with u primitive, u . w + c >= 0 on the
    polytope and = 0 on the vertices; the apex is any point of the
    polytope.  The pyramid over facet F has lattice height u . apex + c,
    so the volume is sum_F (u_F . apex + c_F) area(F) / 3.
    """
    total = Fraction(0)
    for u, c, vertices in facets:
        height = sum((x * a for x, a in zip(u, apex)), c)
        if height:
            total += height * _projected_measure(vertices, u)
    return total / 3


def affine_volume(vertices: Sequence[Sequence[Rational]]) -> Fraction:
    """Lattice-normalized volume of the convex hull of points, n <= 3.

    In the line it is the length and in the plane the shoelace area.  In
    3-space the supporting planes come from the triples of points whose
    plane has all points on one side, and the volume is the sum of facet
    pyramids sum_F (u_F . apex + c_F) area(F) / 3 over the first point.
    Points that span less than 3-space give 0.  The standard simplex has
    volume 1/n!.
    """
    points = _rational_points(vertices)
    if not points:
        return Fraction(0)
    n = len(points[0])
    if n == 1:
        xs = [p[0] for p in points]
        return max(xs) - min(xs)
    if n == 2:
        return _hull_area(points)
    if n != 3:
        raise ValueError("only dimensions 1, 2 and 3 are supported")
    facets = {}
    for a, b, c in itertools.combinations(points, 3):
        normal = _cross(
            tuple(x - y for x, y in zip(b, a)),
            tuple(x - y for x, y in zip(c, a)),
        )
        if not any(normal):
            continue
        values = [
            sum(nv * (x - y) for nv, x, y in zip(normal, p, a)) for p in points
        ]
        if all(v >= 0 for v in values):
            u = primitive_vector(normal)
        elif all(v <= 0 for v in values):
            u = primitive_vector(tuple(-x for x in normal))
        else:
            continue
        key = (u, -sum(e * x for e, x in zip(u, a)))
        if key not in facets:
            facets[key] = [p for p, v in zip(points, values) if v == 0]
    return _pyramid_volume(
        points[0], [(u, c, on) for (u, c), on in facets.items()]
    )

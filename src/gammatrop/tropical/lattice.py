"""Integral-affine measurements in exact rational arithmetic.

Lengths, areas and volumes here are normalized by the lattice, not the
Euclidean metric: a primitive segment has length 1, a fundamental
parallelogram of the lattice induced on a rational plane has area 1.
These are the invariants preserved by GL(n, Z) and translations.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Sequence

Rational = int | Fraction


def _gcd_all(values: Sequence[int]) -> int:
    g = 0
    for v in values:
        g = math.gcd(g, abs(v))
    return g


def primitive_vector(v: Sequence[Rational]) -> tuple[int, ...]:
    """The primitive integer vector on the ray through v.

    Rational input is cleared to integers first; the zero vector has no
    direction and raises ValueError.
    """
    fractions = [Fraction(x) for x in v]
    if all(x == 0 for x in fractions):
        raise ValueError("the zero vector has no primitive direction")
    scale = math.lcm(*(x.denominator for x in fractions))
    integers = [int(x * scale) for x in fractions]
    g = _gcd_all(integers)
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
    normal = (
        v1[1] * v2[2] - v1[2] * v2[1],
        v1[2] * v2[0] - v1[0] * v2[2],
        v1[0] * v2[1] - v1[1] * v2[0],
    )
    if all(c == 0 for c in normal):
        raise ValueError("directions must be linearly independent")
    u = primitive_vector(normal)
    if u[0] == 0 and u[1] == 0:
        # plane is the coordinate plane w3 = const
        return (1, 0, 0), (0, 1, 0)
    g, p, q = _extended_gcd(u[0], u[1])
    b1 = (u[1] // g, -u[0] // g, 0)
    b2 = (p * u[2], q * u[2], -g)
    return b1, b2


def _plane_coordinates(
    offsets: Sequence[tuple[Fraction, ...]],
    basis: tuple[tuple[int, ...], tuple[int, ...]],
) -> list[tuple[Fraction, Fraction]]:
    """Coordinates of in-plane offset vectors with respect to a plane basis."""
    b1, b2 = basis
    n = len(b1)
    rows = None
    for i in range(n):
        for j in range(i + 1, n):
            det = b1[i] * b2[j] - b1[j] * b2[i]
            if det != 0:
                rows = (i, j, det)
                break
        if rows is not None:
            break
    if rows is None:
        raise ValueError("basis vectors must be linearly independent")
    i, j, det = rows
    coords = []
    for v in offsets:
        s = Fraction(v[i] * b2[j] - v[j] * b2[i], 1) / det
        r = Fraction(b1[i] * v[j] - b1[j] * v[i], 1) / det
        # consistency: the point must actually lie in the plane
        for k in range(n):
            if s * b1[k] + r * b2[k] != v[k]:
                raise ValueError("point does not lie in the spanned plane")
        coords.append((s, r))
    return coords


def polygon_affine_area(vertices: Sequence[Sequence[Rational]]) -> Fraction:
    """Lattice-normalized area of a planar polygon with rational vertices.

    Vertices may sit in the plane or in 3-space (coplanar); they are
    re-ordered cyclically around their centroid, so any input order that
    describes a convex polygon is accepted.
    """
    points = [tuple(Fraction(x) for x in v) for v in vertices]
    if len(points) < 3:
        return Fraction(0)
    n = len(points[0])
    if any(len(p) != n for p in points):
        raise ValueError("vertices must share one ambient dimension")
    origin = points[0]
    offsets = [tuple(x - o for x, o in zip(p, origin)) for p in points]
    basis = _offsets_plane_basis(offsets)
    if basis is None:
        return Fraction(0)
    return _cyclic_area(_plane_coordinates(offsets, basis))


def _offsets_plane_basis(
    offsets: Sequence[tuple[Fraction, ...]],
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """`plane_lattice_basis` of the first nonzero offset and the first one
    independent of it, or None when the offsets span less than a plane."""
    d1 = next((v for v in offsets if any(x != 0 for x in v)), None)
    if d1 is None:
        return None
    for v in offsets:
        try:
            return plane_lattice_basis(d1, v)
        except ValueError:
            continue
    return None


def _cyclic_area(points: Sequence[tuple[Fraction, Fraction]]) -> Fraction:
    """Shoelace area of the convex polygon on plane points, any order."""
    ordered = sort_cyclic(points)
    area2 = Fraction(0)
    for k in range(len(ordered)):
        x1, y1 = ordered[k]
        x2, y2 = ordered[(k + 1) % len(ordered)]
        area2 += x1 * y2 - x2 * y1
    return abs(area2) / 2


def sort_cyclic(
    points: Sequence[tuple[Fraction, Fraction]]
) -> list[tuple[Fraction, Fraction]]:
    """Order plane points counterclockwise around their centroid, exactly.

    Points are split into upper and lower half-planes about the centroid
    and compared by exact cross products, so no floating-point angles are
    involved.  Duplicate points are collapsed.
    """
    unique = sorted(set(points))
    if len(unique) <= 2:
        return unique
    cx = sum(p[0] for p in unique) / len(unique)
    cy = sum(p[1] for p in unique) / len(unique)

    def half(p: tuple[Fraction, Fraction]) -> int:
        dx, dy = p[0] - cx, p[1] - cy
        if dy > 0 or (dy == 0 and dx > 0):
            return 0
        return 1

    def compare(p: tuple[Fraction, Fraction], q: tuple[Fraction, Fraction]) -> int:
        hp, hq = half(p), half(q)
        if hp != hq:
            return -1 if hp < hq else 1
        cross = (p[0] - cx) * (q[1] - cy) - (q[0] - cx) * (p[1] - cy)
        if cross > 0:
            return -1
        if cross < 0:
            return 1
        # collinear with the centroid: nearer point first for determinism
        dp = (p[0] - cx) ** 2 + (p[1] - cy) ** 2
        dq = (q[0] - cx) ** 2 + (q[1] - cy) ** 2
        return -1 if dp < dq else (1 if dp > dq else 0)

    return sorted(unique, key=functools.cmp_to_key(compare))


def _cross(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _convex_hull_3d_facets(
    points: Sequence[Sequence[Rational]],
) -> list[list[tuple[Fraction, ...]]]:
    """Facet vertex cycles of the hull of rational points in 3-space.

    Brute force over support planes; adequate for the handful of
    vertices arising from chamber polytopes.
    """
    pts = [tuple(Fraction(x) for x in p) for p in points]
    count = len(pts)
    centroid = tuple(
        sum((p[i] for p in pts), Fraction(0)) / count for i in range(3)
    )
    facets = {}
    for i, j, k in itertools.combinations(range(count), 3):
        a, b, c = pts[i], pts[j], pts[k]
        normal = _cross(
            tuple(x - y for x, y in zip(b, a)),
            tuple(x - y for x, y in zip(c, a)),
        )
        if all(x == 0 for x in normal):
            continue
        values = [
            sum(nv * (p[d] - a[d]) for d, nv in zip(range(3), normal))
            for p in pts
        ]
        if not (all(v >= 0 for v in values) or all(v <= 0 for v in values)):
            continue
        side = sum(nv * (centroid[d] - a[d]) for d, nv in zip(range(3), normal))
        oriented = normal if side <= 0 else tuple(-x for x in normal)
        prim = primitive_vector(oriented)
        offset = -sum(nv * x for nv, x in zip(prim, a))
        key = (prim, offset)
        if key in facets:
            continue
        on_plane = [p for p, v in zip(pts, values) if v == 0]
        origin = on_plane[0]
        offsets = [
            tuple(x - o for x, o in zip(p, origin)) for p in on_plane
        ]
        basis = _offsets_plane_basis(offsets)
        if basis is None:
            continue
        coords = _plane_coordinates(offsets, basis)
        back = dict(zip(coords, on_plane))
        facets[key] = [back[s] for s in sort_cyclic(coords)]
    return list(facets.values())


def affine_volume(vertices: Sequence[Sequence[Rational]]) -> Fraction:
    """Lattice-normalized volume of a full-dimensional polytope, n <= 3.

    Computed as 1/n! times the sum of simplex determinants of a fan
    triangulation from the first vertex, after cyclic ordering in the
    plane case.  The standard simplex has volume 1/n!.
    """
    points = [tuple(Fraction(x) for x in v) for v in vertices]
    if not points:
        return Fraction(0)
    n = len(points[0])
    if n == 1:
        xs = [p[0] for p in points]
        return max(xs) - min(xs)
    if n == 2:
        return _cyclic_area([(p[0], p[1]) for p in points])
    if n != 3:
        raise ValueError("only dimensions 1, 2 and 3 are supported")
    facets = _convex_hull_3d_facets(points)
    apex = points[0]
    total = Fraction(0)
    for facet in facets:
        # cones over the facets from a hull vertex tile the polytope, but
        # the facet cycles carry no consistent orientation: take absolute
        # values per facet
        signed = Fraction(0)
        for k in range(1, len(facet) - 1):
            a = [x - o for x, o in zip(facet[0], apex)]
            b = [x - o for x, o in zip(facet[k], apex)]
            c = [x - o for x, o in zip(facet[k + 1], apex)]
            signed += (
                a[0] * (b[1] * c[2] - b[2] * c[1])
                - a[1] * (b[0] * c[2] - b[2] * c[0])
                + a[2] * (b[0] * c[1] - b[1] * c[0])
            )
        total += abs(signed)
    return total / 6

"""Exact polyhedral structure of tropical hypersurfaces.

The corner locus of a min-of-affine-forms function is stratified by the
set of forms attaining the minimum, clipped to a bounding box for
presentation; no floating point enters any predicate.  Predicates run on
Python ints in homogeneous coordinates: a point x is (x, 1) up to a
positive scale, each form is one integer row (slope, offset) over a
common denominator, and every other rational row is cleared by
`lattice._integer_row`, which changes no sign and no solution set.  One
vertex search, `_vertex_search`, finds every vertex of the clipped locus
with the forms least there, and a cell is read off the vertices where
its forms are least.  Boundedness is the locus's duality with the Newton
polytope, the hull of the slopes: a cell is bounded when its slopes lie
on no facet (`_newton_facets`), and the compact chamber is the region of
the form whose slope lies on none, whose vertices the same search finds
with no box.  The chamber's facets and incidence are the
`lattice._hull_facets` of its vertices, read through `lattice._subfaces`
by its faces and measures; every measure, a cell's too, sums
`lattice._simplex_measure`.  A `halfplane_polygon` is one
`lattice._cone_rays` search, which gives its vertices and whether it is
bounded.  Every rank is the number of `lattice._pivots`.  Only returned
coordinates are built as Fractions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from ..errors import StructureError, UnsupportedDimensionError
from .forms import TropicalPolynomial, _as_fraction, _not_bool
from .lattice import (
    _cone_rays,
    _face_measure,
    _hull_facets,
    _hull_measure,
    _integer_row,
    _minors,
    _pivots,
    _subfaces,
    primitive_vector,
)

Rational = int | Fraction
Point = tuple[Fraction, ...]


def _form_rows(p: TropicalPolynomial) -> list[tuple[int, ...]]:
    """Each form as the integer row (D m, D a) over one common denominator D."""
    scale = math.lcm(*(f.offset.denominator for f in p.forms))
    return [
        (*(scale * s for s in f.slope), f.offset.numerator * (scale // f.offset.denominator))
        for f in p.forms
    ]


def _point(h: Sequence[int]) -> Point:
    """The affine point x / w of a homogeneous h = (x, w), w != 0."""
    w = h[-1]
    return tuple(Fraction(x, w) for x in h[:-1])


def _normalize_box(
    box: Sequence, n: int
) -> tuple[tuple[Fraction, Fraction], ...]:
    try:
        entries = list(box)
        if len(entries) == 2 and not isinstance(entries[0], (tuple, list)):
            entries = [entries] * n
        bounds = tuple((_as_fraction(lo), _as_fraction(hi)) for lo, hi in entries)
    except TypeError as exc:
        raise ValueError(f"box must be a sequence of (lo, hi) bounds, got {box!r}: {exc}") from None
    if len(bounds) != n:
        raise ValueError(f"box must give bounds for all {n} coordinates")
    if not all(lo < hi for lo, hi in bounds):
        raise ValueError("box bounds must satisfy lo < hi")
    return bounds


@dataclass(frozen=True)
class Cell:
    """One closed stratum of a corner locus, clipped to the query box.

    active lists the forms attaining the minimum on the relative
    interior; vertices are the sorted vertices of the clipped piece in
    ambient coordinates; bounded refers to the cell before clipping, and
    holds exactly when the active forms' slopes lie on no facet of the
    Newton polytope, the hull of all the slopes.
    """

    dim: int
    active: tuple[int, ...]
    vertices: tuple[Point, ...]
    bounded: bool

    def representative(self) -> Point:
        """The vertex centroid, a relative-interior point of the clip."""
        n = len(self.vertices[0])
        count = len(self.vertices)
        return tuple(
            sum((v[i] for v in self.vertices), Fraction(0)) / count
            for i in range(n)
        )

    def affine_measure(self) -> Fraction:
        """Lattice measure of the clipped piece, the `_hull_measure` of its
        vertices in every dimension from 1 up; 0 for points."""
        return _hull_measure(self.vertices)[1] if self.dim else Fraction(0)


@dataclass(frozen=True)
class CellComplex:
    box: tuple[tuple[Fraction, Fraction], ...]
    cells: tuple[Cell, ...]

    def cells_of_dim(self, d: int) -> tuple[Cell, ...]:
        return tuple(c for c in self.cells if c.dim == d)


def _differences(rows: Sequence[tuple[int, ...]], forms: Sequence[int]) -> list[tuple[int, ...]]:
    """The rows of forms[1:] minus that of forms[0], 0 where all are equal."""
    base = rows[forms[0]]
    return [tuple(x - y for x, y in zip(rows[i], base)) for i in forms[1:]]


def _vertex_search(
    rows: Sequence[tuple[int, ...]],
    candidates: Iterable[tuple[int, list[tuple[int, ...]]]],
    box_lines: Sequence[tuple[int, ...]],
) -> dict[tuple[int, ...], frozenset[int]]:
    """{primitive homogeneous vertex h = (x, w): the forms least at x}.

    A candidate is a form i and n equations, the `_differences` of s >= 2
    forms from i and n + 1 - s box lines (with no box, s = n + 1), which
    meet in the homogeneous point h of their signed `_minors`.  One with
    w = 0 is skipped; otherwise h is made primitive with w > 0, and kept
    once it satisfies every box line and i, so every one of the s forms,
    is least there.
    """
    found: dict[tuple[int, ...], frozenset[int]] = {}
    for i, equations in candidates:
        h = _minors(equations)
        if h[-1] == 0:
            continue
        g = math.gcd(*h) if h[-1] > 0 else -math.gcd(*h)
        h = tuple(x // g for x in h)
        value = sum(map(mul, rows[i], h))
        if h not in found and all(sum(map(mul, line, h)) >= 0 for line in box_lines) and all(
            sum(map(mul, row, h)) >= value for row in rows
        ):
            found[h] = frozenset(j for j, row in enumerate(rows) if sum(map(mul, row, h)) == value)
    return found


def _newton_facets(p: TropicalPolynomial) -> list[frozenset[tuple[int, ...]]]:
    """The slopes on each facet of the Newton polytope, the hull of the
    slopes, by `lattice._hull_facets`; one facet holding every slope when
    they span less than their space.

    A direction d recedes in the cell where the forms S are least exactly
    when d . m is least, over all slopes m, at all of S's slopes: so the
    cell is bounded exactly when S's slopes lie on no facet.
    """
    slopes = sorted({f.slope for f in p.forms})
    if len(_pivots([(*m, 1) for m in slopes])) <= p.dim:
        return [frozenset(slopes)]
    # a slope midway between two others is no vertex: the rest span the same hull
    known = set(slopes)
    corners = [
        m for m in slopes
        if not any(tuple(2 * x - y for x, y in zip(m, a)) in known for a in slopes if a != m)
    ]
    return [
        frozenset(m for m in slopes if sum(map(mul, normal, m)) + offset == 0)
        for normal, offset in _hull_facets(corners)
    ]


def corner_locus(p: TropicalPolynomial, box: Sequence) -> CellComplex:
    """The nonsmooth locus of min over forms, stratified by active set.

    One `_vertex_search` finds every vertex of the locus clipped to the
    box with its active set.  A set S of forms is a cell exactly when
    the active sets of the vertices where S is least intersect in S, so
    cells are sought among the intersections of active sets, and those
    vertices, the cell's, have rank n + 1 - rank(S's differences): the
    cell meets the box in its full dimension.  It is bounded when S's
    slopes lie on no facet of the Newton polytope (`_newton_facets`).
    The box is n (lo, hi) pairs of ints or Fractions, or one pair for
    every coordinate; any other box, or a float, bool or string bound,
    raises ValueError.  Any ambient dimension works.
    """
    n = p.dim
    bounds = _normalize_box(box, n)
    rows = _form_rows(p)
    sides = [
        [
            _integer_row((*(sign * int(i == j) for i in range(n)), -sign * bound))
            for sign, bound in ((1, lo), (-1, hi))
        ]
        for j, (lo, hi) in enumerate(bounds)
    ]
    candidates = (
        (forms[0], [*equations, *lines])
        for s in range(2, n + 2)
        for forms in itertools.combinations(range(len(rows)), s)
        for equations in [_differences(rows, forms)]
        for coords in itertools.combinations(range(n), n + 1 - s)
        for lines in itertools.product(*(sides[j] for j in coords))
    )
    found = _vertex_search(rows, candidates, [line for side in sides for line in side])
    points = {h: _point(h) for h in found}
    closed = set(found.values())
    grown = closed
    while grown:
        grown = {a & b for a in grown for b in closed if len(a & b) > 1} - closed
        closed |= grown
    newton = _newton_facets(p)
    cells = []
    for active in map(sorted, closed):
        on = [h for h, least in found.items() if least.issuperset(active)]
        k = n - len(_pivots(_differences(rows, active)))
        if len(_pivots(on)) == k + 1:
            slopes = {p.forms[i].slope for i in active}
            bounded = not any(slopes <= facet for facet in newton)
            cells.append(Cell(k, tuple(active), tuple(sorted(points[h] for h in on)), bounded))
    cells.sort(key=lambda c: (c.dim, c.active))
    return CellComplex(box=bounds, cells=tuple(cells))


def halfplane_polygon(
    rows: Sequence[tuple[tuple[Rational, ...], Rational]]
) -> list[tuple[Fraction, Fraction]]:
    """Vertices of the bounded {s in R^2 : c . s + d >= 0 for all rows}, sorted.

    Rows are (c, d) pairs of ints or Fractions with c of length 2, each
    cleared to one integer line (c, d) by `_integer_row`; any other c
    raises ValueError, and a float or bool entry TypeError.  The
    `_cone_rays` of the lines and w >= 0 are the region's homogeneous
    vertices (x, w), w > 0, and its recession directions (d, 0); the
    vertices come in lexicographic order, and a `quadrature.ConvexPolygon`
    orders them itself and fans from whichever comes first.  An empty
    region, or one squeezed to a point or a segment, gives []; a region
    with a vertex that is unbounded raises ValueError.
    """
    lines = []
    for c, d in rows:
        if len(c) != 2:
            raise ValueError(f"halfplane_polygon rows need a normal of length 2, got {(c, d)!r}")
        lines.append(_integer_row([_as_fraction(x) for x in (*c, d)]))
    rays = set(map(primitive_vector, _cone_rays([*lines, (0, 0, 1)], 3)))
    vertices = [h for h in rays if h[-1]]
    if vertices and len(vertices) < len(rays):
        raise ValueError("halfplane_polygon needs a bounded region")
    # the vertices of a bounded convex region span a plane once there are three
    return sorted(map(_point, vertices)) if len(vertices) > 2 else []


@dataclass(frozen=True)
class LatticePolytope:
    """A full-dimensional rational polytope with its irredundant facets.

    Facet rows are (normal, offset) with primitive integer normal,
    meaning normal . w + offset >= 0 on the polytope.  incidence, parallel
    to facets, holds each facet's vertices as increasing indices into
    vertices; it is decided once, on the cleared integer rows of the
    vertices, and every face of the polytope is read from it.
    """

    dim: int
    vertices: tuple[Point, ...]
    facets: tuple[tuple[tuple[int, ...], Fraction], ...]
    incidence: tuple[tuple[int, ...], ...] = field(repr=False)

    def contains(self, w: Sequence[Rational]) -> bool:
        """Whether the polytope holds w; a bool coordinate raises TypeError."""
        point = tuple(Fraction(_not_bool(x)) for x in w)
        if len(point) != self.dim:
            raise ValueError(f"point has length {len(point)}, expected {self.dim}")
        return all(
            sum((c * x for c, x in zip(normal, point)), offset) >= 0
            for normal, offset in self.facets
        )

    def facet_vertices(
        self, facet: tuple[tuple[int, ...], Fraction]
    ) -> tuple[Point, ...]:
        """The vertices on one of facets, in the order of vertices."""
        return tuple(self.vertices[j] for j in self.incidence[self.facets.index(facet)])

    def edges(self) -> tuple[tuple[Point, Point], ...]:
        """The vertex pairs of the 1-faces, the `_subfaces` of dim - 1
        generations below the polytope."""
        faces = {frozenset(range(len(self.vertices)))}
        for _ in range(self.dim - 1):
            faces = {sub for face in faces for sub in _subfaces(face, self.incidence)}
        pairs = (sorted(face) for face in faces if len(face) == 2)
        return tuple(sorted((self.vertices[i], self.vertices[j]) for i, j in pairs))

    def volume(self) -> Fraction:
        """Lattice-normalized volume, the `_face_measure` of all vertices."""
        return _face_measure(self.vertices, range(len(self.vertices)), self.incidence)


def compact_chamber(p: TropicalPolynomial) -> LatticePolytope:
    """The unique bounded full-dimensional chamber where one form is least.

    A form's chamber is bounded when its slope lies on no facet of the
    Newton polytope (`_newton_facets`).  Its vertices are where n of the
    other forms equal it and none is less, the `_vertex_search` of their
    `_differences` from it with no box.
    Exactly one such chamber must have vertices of rank n + 1,
    otherwise the family is not of the expected shape and a
    StructureError is raised.  Its facets and their incidence are the
    `lattice._hull_facets` of its vertices.  Any n works: the mirror
    quintic's n = 4 chamber is its 4-simplex.
    """
    rows = _form_rows(p)
    newton = _newton_facets(p)
    found = []
    for i, form in enumerate(p.forms):
        if any(form.slope in facet for facet in newton):
            continue
        others = _differences(rows, [i, *range(i), *range(i + 1, len(rows))])
        candidates = ((i, combo) for combo in itertools.combinations(others, p.dim))
        on = list(_vertex_search(rows, candidates, []))
        if len(_pivots(on)) == p.dim + 1:
            found.append(tuple(sorted(map(_point, on))))
    if len(found) != 1:
        raise StructureError(f"expected exactly one compact chamber, found {len(found)}")
    vertices = found[0]
    facets = _hull_facets(vertices)
    ordered = sorted(facets)
    return LatticePolytope(p.dim, vertices, tuple(ordered), tuple(facets[f] for f in ordered))


def boundary_affine_area(polytope: LatticePolytope) -> Fraction:
    """Total lattice-normalized measure of the boundary.

    The sum of the `_face_measure` of the facets: for a segment its two
    endpoints, for a polygon its lattice perimeter, for a 3-polytope the
    lattice areas of its facets.
    """
    return sum(
        (_face_measure(polytope.vertices, on, polytope.incidence) for on in polytope.incidence),
        Fraction(0),
    )


def edge_singularities(polytope: LatticePolytope) -> tuple[Point, ...]:
    """Half-lattice midpoints of the primitive segments of the edges.

    The boundary of a reflexive 3-polytope carries an integral-affine
    structure whose focus-focus singularities sit at the midpoints
    between consecutive lattice points along each edge.  Vertices must
    be lattice points, so an edge is an integer difference d of lattice
    length g = gcd(d), and its midpoints are a + (2j + 1) d / (2g).
    """
    if polytope.dim != 3:
        raise UnsupportedDimensionError("edge singularities require dim 3")
    for v in polytope.vertices:
        if any(x.denominator != 1 for x in v):
            raise ValueError("polytope vertices must be lattice points")
    doubled = set()
    for v, u in polytope.edges():
        a = [x.numerator for x in v]
        d = [y.numerator - x for x, y in zip(a, u)]
        g = math.gcd(*d)
        for j in range(g):
            doubled.add(tuple(2 * x + (2 * j + 1) * (e // g) for x, e in zip(a, d)))
    return tuple(tuple(Fraction(x, 2) for x in p) for p in sorted(doubled))

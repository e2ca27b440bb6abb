"""Exact polyhedral structure of tropical hypersurfaces.

The corner locus of a min-of-affine-forms function is stratified by the
set of forms attaining the minimum.  Cells are enumerated by active
subset, cut out in ambient coordinates, and clipped to a bounding box for
presentation; no floating point enters any predicate.  Predicates and
eliminations run on Python ints in homogeneous coordinates: a point x is
(x, 1) up to a positive scale, each form is one integer row (slope,
offset) over a common denominator, and every other rational row is
cleared by `lattice._integer_row`, which changes no sign and no solution
set.  Every rank and kernel comes from one fraction-free elimination,
`_echelon`; every vertex from one kernel, `_homogeneous_vertices`; and
boundedness from one recession test, `_recession_nontrivial`.  There is
one region cutter and one facet search: a compact chamber is the cell of
one form, `_cell_for_subset` with no box, and its facets and incidence
are the `lattice._hull_facets` of its vertices, in any ambient dimension.
Its edges, volume, boundary measure and edge singularities read that
incidence through `lattice._subfaces`; its measures, and a cell's, are
the one lattice measure of `lattice._simplex_measure`.  Only returned
coordinates are built as Fractions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Sequence

from ..errors import StructureError, UnsupportedDimensionError
from .forms import TropicalPolynomial, _as_fraction
from .lattice import (
    _cone_rays,
    _face_measure,
    _hull_facets,
    _hull_measure,
    _integer_row,
    _minors,
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


def _eliminate(row: list[int], pivot_row: list[int], col: int) -> list[int]:
    """p * row - f * pivot_row, which is 0 at col, divided by its gcd."""
    p, f = pivot_row[col], row[col]
    out = [p * x - f * y for x, y in zip(row, pivot_row)]
    g = math.gcd(*out)
    return [x // g for x in out] if g > 1 else out


def _echelon(
    rows: Sequence[Sequence[int]], m: int
) -> tuple[dict[int, int], list[tuple[int, ...]]]:
    """Rank, a maximal independent subset and a kernel basis of int rows.

    Fraction-free Gauss-Jordan elimination on rows of length m, taken in
    order; pivot rows are never normalized.  A row that the rows before
    it do not reduce to zero is independent of them and gets a pivot
    column, its first nonzero entry.  Returns ({pivot column: index of
    its row}, kernel): the map's length is the rank and its values are a
    maximal independent subset E.  The kernel has one primitive integer
    vector per free column c, in order of c, positive at c and 0 at every
    other free column, as read off the reduced row echelon form.
    """
    reduced: dict[int, list[int]] = {}
    independent: dict[int, int] = {}
    for index, row in enumerate(rows):
        row = list(row)
        for col, pivot_row in reduced.items():
            if row[col]:
                row = _eliminate(row, pivot_row, col)
        col = next((c for c, x in enumerate(row) if x), None)
        if col is None:
            continue
        for c, pivot_row in reduced.items():
            if pivot_row[col]:
                reduced[c] = _eliminate(pivot_row, row, col)
        reduced[col] = row
        independent[col] = index
    kernel = []
    for free in (c for c in range(m) if c not in reduced):
        scale = math.lcm(*(r[c] for c, r in reduced.items() if r[free]))
        v = [0] * m
        v[free] = scale
        for c, r in reduced.items():
            v[c] = -r[free] * (scale // r[c])
        kernel.append(primitive_vector(v))
    return independent, kernel


def _rank(rows: Sequence[Sequence[int]]) -> int:
    """The rank of integer rows, all of one length."""
    return len(_echelon(rows, len(rows[0]))[0]) if rows else 0


def _homogeneous_vertices(
    lines: Sequence[tuple[int, ...]], k: int
) -> list[tuple[int, ...]]:
    """The vertices h = (x, w) of {line . h >= 0 for all lines}, any k.

    Lines are integer rows of length k + 1 whose last entry pairs with w.
    Every k lines meet in the homogeneous point h of their signed
    `_minors`.  One with w = 0 is skipped; otherwise h is made w > 0, and
    x / w is a vertex once line . h >= 0 for every line.  Each vertex
    comes once, as a primitive h; for k = 0 the one candidate is (1,).
    An empty region gives [], and an unbounded one the vertices it has.
    """
    vertices = set()
    for combo in itertools.combinations(lines, k):
        h = _minors(combo)
        w = h[-1]
        if w == 0:
            continue
        if w < 0:
            h = tuple(-x for x in h)
        if all(sum(map(mul, line, h)) >= 0 for line in lines):
            g = math.gcd(*h)
            vertices.add(tuple(x // g for x in h))
    return list(vertices)


def _point(h: Sequence[int]) -> Point:
    """The affine point x / w of a homogeneous h = (x, w), w != 0."""
    w = h[-1]
    return tuple(Fraction(x, w) for x in h[:-1])


def _recession_nontrivial(rows: Sequence[tuple[int, ...]], k: int) -> bool:
    """Whether {d != 0 : c . d >= 0 for all c in rows} is nonempty, any k.

    Rows are integer vectors of length k.  Rows of rank below k, none at
    all included, leave a line in the cone.  Otherwise the cone is
    pointed, and it is not {0} exactly when `lattice._cone_rays` yields
    an extreme ray; the search stops at the first.  Q^0 has no nonzero
    direction.
    """
    if k == 0:
        return False
    return _rank(rows) < k or any(_cone_rays(rows, k))


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
    ambient coordinates; bounded refers to the cell before clipping.
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


def corner_locus(p: TropicalPolynomial, box: Sequence) -> CellComplex:
    """The nonsmooth locus of min over forms, stratified by active set.

    Every subset of two or more forms is tried as a candidate active
    set; a subset survives if its equality locus is consistent, no
    further form is forced equal on that locus, and the resulting cell
    meets the box in its full dimension.  The box is n (lo, hi) pairs of
    ints or Fractions, or one pair for every coordinate; any other box,
    or a float, bool or string bound, raises ValueError.  Any ambient
    dimension works.
    """
    n = p.dim
    bounds = _normalize_box(box, n)
    rows = _form_rows(p)
    box_lines = [
        _integer_row((*(sign * int(i == j) for i in range(n)), -sign * bound))
        for j, (lo, hi) in enumerate(bounds)
        for sign, bound in ((1, lo), (-1, hi))
    ]
    known: dict[tuple[int, ...], Point] = {}
    cells: list[Cell] = []
    for size in range(2, len(rows) + 1):
        for subset in itertools.combinations(range(len(rows)), size):
            cell = _cell_for_subset(rows, subset, box_lines, known)
            if cell is not None:
                cells.append(cell)
    cells.sort(key=lambda c: (c.dim, c.active))
    return CellComplex(box=bounds, cells=tuple(cells))


def _cell_for_subset(
    rows: Sequence[tuple[int, ...]],
    subset: tuple[int, ...],
    box_lines: Sequence[tuple[int, ...]],
    known: dict[tuple[int, ...], Point],
) -> Cell | None:
    """The cell where exactly the subset's forms are least, or None.

    The equalities f_i = f_base are the integer rows row_i - row_base.
    Their kernel K in homogeneous coordinates has dimension k + 1 for a
    k-cell: k directions (w = 0) and one point of the affine hull, last.
    Every other form's row and every box row is reduced to coordinates g
    on K, h = sum g_i K_i, once; the cell is the region of the reduced
    rows, so its vertices and its recession test both work on g, the
    same way for every k: the cell is bounded when the inactive rows'
    direction parts leave it no recession direction.  Each vertex is
    built once per corner locus, as `known`[primitive h].
    """
    n = len(rows[0]) - 1
    base = rows[subset[0]]

    def against_base(i: int) -> tuple[int, ...]:
        return tuple(x - y for x, y in zip(rows[i], base))

    independent, kernel = _echelon([against_base(i) for i in subset[1:]], n + 1)
    if n in independent:
        return None  # a pivot at w: the linear parts of E have lower rank than E
    k = len(kernel) - 1

    def reduced(line: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(sum(map(mul, line, v)) for v in kernel)

    inactive = [reduced(against_base(l)) for l in range(len(rows)) if l not in subset]
    # a form equal to the minimum on the whole affine hull belongs to a
    # larger active set; that subset produces the cell instead
    if not all(map(any, inactive)):
        return None
    found = _homogeneous_vertices(inactive + [reduced(b) for b in box_lines], k)
    if _rank(found) != k + 1:
        return None
    columns = list(zip(*kernel))
    points = [primitive_vector([sum(map(mul, g, c)) for c in columns]) for g in found]
    vertices = [known[h] if h in known else known.setdefault(h, _point(h)) for h in points]
    return Cell(
        dim=k,
        active=subset,
        vertices=tuple(sorted(vertices)),
        bounded=not _recession_nontrivial([g[:-1] for g in inactive], k),
    )


def halfplane_polygon(
    rows: Sequence[tuple[tuple[Rational, ...], Rational]]
) -> list[tuple[Fraction, Fraction]]:
    """Vertices of the bounded {s in R^2 : c . s + d >= 0 for all rows}, sorted.

    Rows are (c, d) pairs, each cleared to one integer line (c, d) by
    `_integer_row`; the vertices are the `_homogeneous_vertices` of the
    lines, in lexicographic order, and a `quadrature.ConvexPolygon`
    orders them itself and fans from whichever comes first.  An empty
    region, or one squeezed to a point or a segment, gives []; a region
    with a vertex that is unbounded raises ValueError.
    """
    lines = [_integer_row((*c, d)) for c, d in rows]
    found = _homogeneous_vertices(lines, 2)
    if found and _recession_nontrivial([line[:-1] for line in lines], 2):
        raise ValueError("halfplane_polygon needs a bounded region")
    return sorted(map(_point, found)) if _rank(found) == 3 else []


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
        point = tuple(Fraction(x) for x in w)
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

    Each form's region is its corner-locus cell, `_cell_for_subset` with
    no box, sought only if it has no recession direction.  Exactly one
    must be a bounded n-polytope, otherwise the family is not of the
    expected shape and a StructureError is raised.  Its facets and their
    incidence are the `lattice._hull_facets` of its vertices.  Any n
    works: the mirror quintic's n = 4 chamber is its 4-simplex.
    """
    rows = _form_rows(p)
    found = []
    for i, base in enumerate(rows):
        others = [tuple(x - y for x, y in zip(row[:-1], base)) for row in rows[:i] + rows[i + 1:]]
        if _recession_nontrivial(others, p.dim):
            continue
        cell = _cell_for_subset(rows, (i,), (), {})
        if cell is not None:
            found.append(cell)
    if len(found) != 1:
        raise StructureError(
            f"expected exactly one compact chamber, found {len(found)}"
        )
    vertices = found[0].vertices
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

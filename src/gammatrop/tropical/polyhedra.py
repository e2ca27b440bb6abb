"""Exact polyhedral structure of tropical hypersurfaces, ambient dim <= 3.

The corner locus of a min-of-affine-forms function is stratified by the
set of forms attaining the minimum.  Cells are enumerated by active
subset, cut out by exact rational linear algebra, and clipped to a
bounding box for presentation; no floating point enters any predicate.
Every vertex, of a clipped cell, a compact chamber or a
`halfplane_polygon`, comes from one kernel, `_region_vertices`, and
every polygon is ordered by one hull, `lattice._convex_hull`.
Predicates and eliminations run on Python ints: each rational row is
scaled once by the lcm of its denominators, which changes no sign and no
solution set, and only returned coordinates are built as Fractions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from ..errors import StructureError, UnsupportedDimensionError
from .forms import TropicalPolynomial
from .lattice import (
    _convex_hull,
    _cross,
    _pyramid_volume,
    affine_length,
    affine_volume,
    plane_lattice_basis,
    polygon_affine_area,
    primitive_vector,
)

Rational = int | Fraction
Point = tuple[Fraction, ...]


def _integer_row(values: Sequence[Rational]) -> tuple[int, ...]:
    """The rationals scaled by the lcm of their denominators, as ints.

    The scale is positive, so signs, and the solution sets of the rows as
    equations or inequalities, do not change.
    """
    scale = math.lcm(*(x.denominator for x in values))
    return tuple(x.numerator * (scale // x.denominator) for x in values)


def _solve_affine(
    rows: Sequence[tuple[tuple[Rational, ...], Rational]], n: int
) -> tuple[Point, list[Point]] | None:
    """Solve coef . w = rhs exactly; (particular, kernel basis) or None.

    Fraction-free Gauss-Jordan on integer rows: each elimination is
    p * row - f * pivot_row, reduced by its gcd, and pivot rows are never
    normalized.  The reduced row echelon form is read out as Fractions at
    the end.
    """
    aug = [_integer_row((*coef, rhs)) for coef, rhs in rows]
    pivot_cols: list[int] = []
    r = 0
    for col in range(n):
        pivot = next((k for k in range(r, len(aug)) if aug[k][col]), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pivot_row = aug[r]
        p = pivot_row[col]
        for k in range(len(aug)):
            f = aug[k][col]
            if k != r and f:
                row = [p * x - f * y for x, y in zip(aug[k], pivot_row)]
                g = math.gcd(*row)
                aug[k] = [x // g for x in row] if g > 1 else row
        pivot_cols.append(col)
        r += 1
    for k in range(r, len(aug)):
        if aug[k][n]:
            return None
    particular = [Fraction(0)] * n
    for row, col in enumerate(pivot_cols):
        particular[col] = Fraction(aug[row][n], aug[row][col])
    free_cols = [c for c in range(n) if c not in pivot_cols]
    basis = []
    for f in free_cols:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for row, col in enumerate(pivot_cols):
            v[col] = Fraction(-aug[row][f], aug[row][col])
        basis.append(tuple(v))
    return tuple(particular), basis


def _minors(rows: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
    """The signed maximal minors h of k <= 3 integer rows of length k + 1.

    h_j is (-1)^j times the determinant of the rows without column j, so
    row . h is the determinant of the rows with that row stacked on top:
    0 for each of them.  For k = 2 this is the cross product.
    """
    k = len(rows)
    if k == 0:
        return (1,)
    if k == 1:
        ((c, d),) = rows
        return (d, -c)
    if k == 2:
        return _cross(*rows)
    h = []
    for j in range(4):
        a, b, c = (r[:j] + r[j + 1:] for r in rows)
        h.append((-1) ** j * sum(map(mul, a, _cross(b, c))))
    return tuple(h)


def _region_vertices(
    rows: Sequence[tuple[tuple[Rational, ...], Rational]], k: int
) -> list[Point]:
    """The sorted vertices of {s in Q^k : c . s + d >= 0 for all rows}.

    Rows are (c, d) pairs, k <= 3, each cleared to an integer row.  Every
    k rows meet in the homogeneous point h = (x, w) of their signed
    minors.  One with w = 0 is skipped; otherwise h is made w > 0, and
    x / w is a vertex once (c, d) . h >= 0 for every row.  Only vertices
    become Fractions.  For k = 0 the one candidate is the empty point.
    An empty region gives [], and an unbounded one the vertices it has.
    """
    lines = [_integer_row((*c, d)) for c, d in rows]
    vertices = set()
    for combo in itertools.combinations(lines, k):
        h = _minors(combo)
        w = h[-1]
        if w == 0:
            continue
        if w < 0:
            h, w = tuple(-x for x in h), -w
        if all(sum(map(mul, line, h)) >= 0 for line in lines):
            vertices.add(tuple(Fraction(x, w) for x in h[:-1]))
    return sorted(vertices)


def _affine_dim(points: Sequence[Point]) -> int:
    """The dimension of the affine span of the points; -1 for none."""
    if not points:
        return -1
    n = len(points[0])
    offsets = [tuple(x - o for x, o in zip(p, points[0])) for p in points[1:]]
    return n - len(_solve_affine([(row, Fraction(0)) for row in offsets], n)[1])


def _recession_nontrivial(
    rows: Sequence[tuple[Rational, ...]], k: int
) -> bool:
    """Whether {d != 0 : c . d >= 0 for all c in rows} is nonempty, k <= 3.

    Rows are cleared to integers first; candidate directions are the
    normals of rows (k = 2) or cross products of pairs of rows (k = 3),
    together with the unit vectors, so every test is on ints.
    """
    if k == 0:
        return False
    if not rows:
        return True
    rows = [_integer_row(row) for row in rows]

    def feasible(d: Sequence[int]) -> bool:
        if not any(d):
            return False
        return all(
            sum(c * x for c, x in zip(row, d)) >= 0 for row in rows
        )

    if k == 1:
        return feasible((1,)) or feasible((-1,))
    unit = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    if k == 2:
        candidates = [(-c[1], c[0]) for c in rows + unit]
    elif k == 3:
        candidates = [
            _cross(a, b) for a, b in itertools.combinations(rows + unit, 2)
        ]
    else:
        raise UnsupportedDimensionError("recession test supports dim <= 3")
    for d in candidates:
        if feasible(d) or feasible(tuple(-x for x in d)):
            return True
    return False


def _normalize_box(
    box: Sequence, n: int
) -> tuple[tuple[Fraction, Fraction], ...]:
    entries = list(box)
    if len(entries) == 2 and not isinstance(entries[0], (tuple, list)):
        entries = [entries] * n
    if len(entries) != n:
        raise ValueError(f"box must give bounds for all {n} coordinates")
    out = []
    for lo, hi in entries:
        lo, hi = Fraction(lo), Fraction(hi)
        if not lo < hi:
            raise ValueError("box bounds must satisfy lo < hi")
        out.append((lo, hi))
    return tuple(out)


@dataclass(frozen=True)
class Cell:
    """One closed stratum of a corner locus, clipped to the query box.

    active lists the forms attaining the minimum on the relative
    interior; vertices describe the clipped piece: sorted for points and
    segments, and for a 2-cell the counterclockwise `_convex_hull` cycle
    in the cell's own coordinates, from the vertex least in them;
    directions are primitive integer vectors spanning the cell, with a
    ray's direction pointing toward its unbounded end; bounded refers to
    the cell before clipping.
    """

    dim: int
    active: tuple[int, ...]
    vertices: tuple[Point, ...]
    directions: tuple[tuple[int, ...], ...]
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
        """Lattice length or area of the clipped piece; 0 for points."""
        if self.dim == 0:
            return Fraction(0)
        if self.dim == 1:
            return affine_length(self.vertices[0], self.vertices[-1])
        return polygon_affine_area(self.vertices)


@dataclass(frozen=True)
class CellComplex:
    polynomial: TropicalPolynomial
    box: tuple[tuple[Fraction, Fraction], ...]
    cells: tuple[Cell, ...]

    def cells_of_dim(self, d: int) -> tuple[Cell, ...]:
        return tuple(c for c in self.cells if c.dim == d)


def corner_locus(p: TropicalPolynomial, box: Sequence) -> CellComplex:
    """The nonsmooth locus of min over forms, stratified by active set.

    Every subset of two or more forms is tried as a candidate active
    set; a subset survives if its equality locus is consistent, no
    further form is forced equal on that locus, and the resulting cell
    meets the box in its full dimension.
    """
    n = p.dim
    if n > 3:
        raise UnsupportedDimensionError("corner locus supports dim <= 3")
    bounds = _normalize_box(box, n)
    forms = p.forms
    cells: list[Cell] = []
    for size in range(2, len(forms) + 1):
        for subset in itertools.combinations(range(len(forms)), size):
            cell = _cell_for_subset(p, subset, bounds)
            if cell is not None:
                cells.append(cell)
    cells.sort(key=lambda c: (c.dim, c.active))
    return CellComplex(polynomial=p, box=bounds, cells=tuple(cells))


def _cell_for_subset(
    p: TropicalPolynomial,
    subset: tuple[int, ...],
    bounds: tuple[tuple[Fraction, Fraction], ...],
) -> Cell | None:
    n = p.dim
    forms = p.forms
    base = subset[0]
    m0 = forms[base].slope
    a0 = forms[base].offset
    eq_rows = []
    for i in subset[1:]:
        coef = tuple(Fraction(forms[i].slope[j] - m0[j]) for j in range(n))
        eq_rows.append((coef, a0 - forms[i].offset))
    solved = _solve_affine(eq_rows, n)
    if solved is None:
        return None
    origin, basis = solved
    k = len(basis)

    def diff_on_hull(l: int) -> tuple[tuple[Fraction, ...], Fraction] | None:
        """(coeffs in cell coords, value at origin) of f_l - f_base."""
        slope = tuple(Fraction(forms[l].slope[j] - m0[j]) for j in range(n))
        const = forms[l].offset - a0
        at_origin = sum(
            (c * x for c, x in zip(slope, origin)), const
        )
        coeffs = tuple(
            sum(c * b for c, b in zip(slope, vec)) for vec in basis
        )
        return coeffs, at_origin

    # a form equal to the minimum on the whole affine hull belongs to a
    # larger active set; that subset produces the cell instead
    inactive = [l for l in range(len(forms)) if l not in subset]
    ineqs = []
    for l in inactive:
        coeffs, at_origin = diff_on_hull(l)
        if at_origin == 0 and all(c == 0 for c in coeffs):
            return None
        ineqs.append((coeffs, at_origin))

    bounded = not _recession_nontrivial([c for c, _ in ineqs], k)

    # box constraints, expressed in cell coordinates
    box_rows = []
    for j in range(n):
        lo, hi = bounds[j]
        coeffs = tuple(vec[j] for vec in basis)
        box_rows.append((coeffs, origin[j] - lo))
        box_rows.append((tuple(-c for c in coeffs), hi - origin[j]))

    # k <= 2: two distinct forms give at least one independent equation
    vertices_s = _region_vertices(ineqs + box_rows, k)
    if _affine_dim(vertices_s) != k:
        return None
    if k == 2:
        vertices_s = _convex_hull(vertices_s)

    vertices = tuple(
        tuple(
            origin[j] + sum(s * vec[j] for s, vec in zip(sv, basis))
            for j in range(n)
        )
        for sv in vertices_s
    )

    directions: tuple[tuple[int, ...], ...]
    if k == 0:
        directions = ()
    elif k == 1:
        prim = primitive_vector(basis[0])
        has_upper = any(
            c < 0 for (c,), _ in ineqs
        )
        has_lower = any(
            c > 0 for (c,), _ in ineqs
        )
        if not has_upper and has_lower:
            pass  # unbounded as s -> +inf, keep +prim
        elif not has_lower and has_upper:
            prim = tuple(-x for x in prim)
        else:
            prim = _canonical_sign(prim)
        directions = (prim,)
    else:
        directions = plane_lattice_basis(basis[0], basis[1])

    return Cell(
        dim=k,
        active=tuple(sorted(subset)),
        vertices=vertices,
        directions=directions,
        bounded=bounded,
    )


def _canonical_sign(v: tuple[int, ...]) -> tuple[int, ...]:
    for x in v:
        if x != 0:
            return v if x > 0 else tuple(-y for y in v)
    return v


def halfplane_polygon(
    rows: Sequence[tuple[tuple[Rational, ...], Rational]]
) -> list[tuple[Fraction, Fraction]]:
    """Vertices of the bounded {s in R^2 : c . s + d >= 0 for all rows}, ccw.

    Rows are (c, d) pairs.  The vertices are `_region_vertices(rows, 2)`,
    ordered by `_convex_hull`: counterclockwise from the lexicographically
    least one.  An empty region, or one squeezed to a point or a segment,
    gives []; a region with a vertex that is unbounded raises ValueError.
    """
    vertices = _region_vertices(rows, 2)
    if vertices and _recession_nontrivial([c for c, _ in rows], 2):
        raise ValueError("halfplane_polygon needs a bounded region")
    return _convex_hull(vertices) if _affine_dim(vertices) == 2 else []


@dataclass(frozen=True)
class LatticePolytope:
    """A full-dimensional rational polytope with its irredundant facets.

    Facet rows are (normal, offset) with primitive integer normal,
    meaning normal . w + offset >= 0 on the polytope.
    """

    dim: int
    vertices: tuple[Point, ...]
    facets: tuple[tuple[tuple[int, ...], Fraction], ...]

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
        normal, offset = facet
        return tuple(
            v
            for v in self.vertices
            if sum((c * x for c, x in zip(normal, v)), offset) == 0
        )

    def edges(self) -> tuple[tuple[Point, Point], ...]:
        """Vertex pairs whose common active facets cut out a line."""
        out = []
        for v, u in itertools.combinations(self.vertices, 2):
            common = [
                normal
                for normal, offset in self.facets
                if sum((c * x for c, x in zip(normal, v)), offset) == 0
                and sum((c * x for c, x in zip(normal, u)), offset) == 0
            ]
            rows = [tuple(Fraction(c) for c in normal) for normal in common]
            solved = _solve_affine([(r, Fraction(0)) for r in rows], self.dim)
            if solved is not None and len(solved[1]) == 1:
                out.append((v, u))
        return tuple(sorted(out))

    def volume(self) -> Fraction:
        """Lattice-normalized volume.

        In dim 3 it is the sum of pyramids over the irredundant facets
        from the first vertex v, sum_F (u_F . v + c_F) area(F) / 3, with
        no hull computed; in lower dimension it is `affine_volume`.
        """
        if self.dim != 3:
            return affine_volume(self.vertices)
        return _pyramid_volume(
            self.vertices[0],
            [(u, c, self.facet_vertices((u, c))) for u, c in self.facets],
        )


def compact_chamber(p: TropicalPolynomial) -> LatticePolytope:
    """The unique bounded full-dimensional chamber where one form is least.

    For each form the region where it attains the minimum is cut out;
    exactly one such region must be a bounded n-dimensional polytope,
    otherwise the family is not of the expected shape and a
    StructureError is raised.
    """
    n = p.dim
    if n > 3:
        raise UnsupportedDimensionError("compact chamber supports dim <= 3")
    found = []
    for i in range(len(p.forms)):
        result = _form_region(p, i)
        if result is not None:
            found.append(result)
    if len(found) != 1:
        raise StructureError(
            f"expected exactly one compact chamber, found {len(found)}"
        )
    return found[0]


def _form_region(p: TropicalPolynomial, i: int) -> LatticePolytope | None:
    n = p.dim
    fi = p.forms[i]
    rows = []
    for j, fj in enumerate(p.forms):
        if j == i:
            continue
        coef = tuple(
            Fraction(fj.slope[k] - fi.slope[k]) for k in range(n)
        )
        const = fj.offset - fi.offset
        if all(c == 0 for c in coef):
            if const < 0:
                return None  # another form is everywhere smaller
            continue
        rows.append((coef, const))
    if _recession_nontrivial([c for c, _ in rows], n):
        return None
    vertices = _region_vertices(rows, n)
    if _affine_dim(vertices) != n:
        return None
    facets = _irredundant_facets(rows, vertices, n)
    return LatticePolytope(dim=n, vertices=tuple(vertices), facets=facets)


def _irredundant_facets(
    rows: Sequence[tuple[tuple[Fraction, ...], Fraction]],
    vertices: Sequence[Point],
    n: int,
) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
    facets = {}
    for coef, const in rows:
        active = [
            v
            for v in vertices
            if sum((c * x for c, x in zip(coef, v)), const) == 0
        ]
        if _affine_dim(active) != n - 1:
            continue
        normal = primitive_vector(coef)
        scale = None
        for c, e in zip(coef, normal):
            if e != 0:
                scale = c / e
                break
        facets[(normal, const / scale)] = None
    return tuple(sorted(facets))


def boundary_affine_area(polytope: LatticePolytope) -> Fraction:
    """Total lattice-normalized measure of the boundary.

    For a polygon this is the lattice perimeter; for a 3-polytope the
    sum of lattice areas of the facets.
    """
    if polytope.dim == 2:
        total = Fraction(0)
        for v, u in polytope.edges():
            total += affine_length(v, u)
        return total
    if polytope.dim == 3:
        total = Fraction(0)
        for facet in polytope.facets:
            total += polygon_affine_area(polytope.facet_vertices(facet))
        return total
    raise UnsupportedDimensionError("boundary area supports dim 2 and 3")


def edge_singularities(polytope: LatticePolytope) -> tuple[Point, ...]:
    """Half-lattice midpoints of the primitive segments of the edges.

    The boundary of a reflexive 3-polytope carries an integral-affine
    structure whose focus-focus singularities sit at the midpoints
    between consecutive lattice points along each edge.  Vertices must
    be lattice points.
    """
    if polytope.dim != 3:
        raise UnsupportedDimensionError("edge singularities require dim 3")
    for v in polytope.vertices:
        if any(x.denominator != 1 for x in v):
            raise ValueError("polytope vertices must be lattice points")
    points = set()
    for v, u in polytope.edges():
        length = affine_length(v, u)
        if length.denominator != 1:
            raise ValueError("edges must have integer lattice length")
        prim = primitive_vector(tuple(b - a for a, b in zip(v, u)))
        for j in range(int(length)):
            points.add(
                tuple(
                    a + (Fraction(2 * j + 1, 2)) * d
                    for a, d in zip(v, prim)
                )
            )
    return tuple(sorted(points))

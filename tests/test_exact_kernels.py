"""Property tests: the integer kernels of the exact tropical layer.

_minors, the signed maximal minors of k rows, is checked against Fraction
determinants for k = 0..4, and _pivots, the one elimination, against
sympy's rank and for a nonzero minor on its columns.  The cone-ray
search of a region's rows and w >= 0 gives its vertices, the rays with
w > 0, and its recession directions, those with w = 0: its vertices are
checked for k = 0, 1 and 3, and, through halfplane_polygon, for k = 2 on
bounded, unbounded, empty, point and segment regions, and its recession
test for k = 1..4.  These and corner_locus (in ambient dimensions 1 to 4)
clear each row's denominators and work on ints.  Each is checked here
against a reference that runs on Fractions throughout, and against the
defining property of its answer.  The corner-locus
reference tries every subset of forms and cuts each cell out in its own
coordinates, an origin and basis of its affine hull, as the exact layer
once did; it checks the loci of random forms and of two of Finding 1's
four non-simplex families, in all four of which the chamber's facets
are the bounded 2-cells of the constant form.  A compact chamber decides
its face incidence once, on ints; its facets, found as the hull facets
of its vertices, are checked against the defining forms' differences,
and its facet vertices, edges, boundary measure and edge singularities
against face tests and measures on Fractions, in the plane, in 3-space
and, for images of the mirror quintic's 4-simplex, in 4-space, and the
cell measures of the benchmark's seed-1 images against the
projection-and-index rule that measured them before the one simplex
measure.
"""

import itertools
import math
import random
import re
from fractions import Fraction
from operator import mul

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from gammatrop.errors import StructureError
from gammatrop.tropical import (
    AffineForm,
    TropicalPolynomial,
    affine_length,
    monomial_substitution,
    tropicalize,
    affine_volume,
    boundary_affine_area,
    compact_chamber,
    corner_locus,
    edge_singularities,
    halfplane_polygon,
    polygon_affine_area,
    primitive_vector,
)
from gammatrop.periods import MirrorFamily
from gammatrop.tropical.lattice import _cone_rays, _integer_row, _minors, _pivots
from gammatrop.tropical.polyhedra import _point

EXACT = settings(derandomize=True, max_examples=200, deadline=None, database=None)
# the 4-space cases cost more per example, so they get a smaller budget
EXACT_4D = settings(derandomize=True, max_examples=50, deadline=None, database=None)

# small rationals; small numerators make zeros, parallel rows and ties common
rationals = st.builds(Fraction, st.integers(-8, 8), st.sampled_from((1, 2, 3, 4, 6)))


def vectors(n):
    return st.tuples(*[rationals] * n)


# --- Fraction references ---


def cross(a, b):
    """The cross product of two 3-vectors, independent of the exact layer."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def ref_det(rows):
    """The determinant of a square matrix by Gaussian elimination on Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(len(m)):
        pivot = next((r for r in range(col, len(m)) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, len(m)):
            factor = m[r][col] / m[col][col]
            m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return det


def ref_ccw_cycle(points):
    """Gift wrapping from the lexicographic minimum: each next vertex has
    every point on or left of the edge to it."""
    def left_of(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0]) >= 0

    cycle = [min(points)]
    while True:
        p = cycle[-1]
        q = next(q for q in points if q != p and all(left_of(p, q, r) for r in points))
        if q == cycle[0]:
            return cycle
        cycle.append(q)


def ref_halfplane_polygon(rows):
    candidates = set()
    for (c1, d1), (c2, d2) in itertools.combinations(rows, 2):
        det = c1[0] * c2[1] - c1[1] * c2[0]
        if det == 0:
            continue
        s = (
            (-d1 * c2[1] + d2 * c1[1]) / det,
            (-d2 * c1[0] + d1 * c2[0]) / det,
        )
        if all(c[0] * s[0] + c[1] * s[1] + d >= 0 for c, d in rows):
            candidates.add(s)
    ordered = sorted(candidates)
    if len(ordered) < 3:
        return []
    (x0, y0), (x1, y1) = ordered[0], ordered[1]
    if all((x1 - x0) * (y - y0) - (x - x0) * (y1 - y0) == 0 for x, y in ordered):
        return []
    return ref_ccw_cycle(ordered)


def ref_interval(rows):
    """The k = 1 region's vertices by clipping an interval on Fractions."""
    if any(c == 0 and d < 0 for (c,), d in rows):
        return []
    lo = max((-d / c for (c,), d in rows if c > 0), default=None)
    hi = min((-d / c for (c,), d in rows if c < 0), default=None)
    if lo is not None and hi is not None and lo > hi:
        return []
    return sorted({(x,) for x in (lo, hi) if x is not None})


def ref_region_vertices(rows, k):
    """The region's vertices: every k rows solved as equations on
    Fractions, kept when the solution is unique and satisfies every row."""
    vertices = set()
    for combo in itertools.combinations(rows, k):
        solved = ref_solve_affine([(c, -d) for c, d in combo], k)
        if solved is None or solved[1]:
            continue
        point = solved[0]
        if all(sum(a * x for a, x in zip(c, point)) + d >= 0 for c, d in rows):
            vertices.add(point)
    return sorted(vertices)


def ref_solve_affine(rows, n):
    aug = [[*coef, rhs] for coef, rhs in rows]
    pivot_cols = []
    r = 0
    for col in range(n):
        pivot = next((k for k in range(r, len(aug)) if aug[k][col] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        scale = aug[r][col]
        aug[r] = [x / scale for x in aug[r]]
        for k in range(len(aug)):
            if k != r and aug[k][col] != 0:
                factor = aug[k][col]
                aug[k] = [x - factor * y for x, y in zip(aug[k], aug[r])]
        pivot_cols.append(col)
        r += 1
    if any(aug[k][n] != 0 for k in range(r, len(aug))):
        return None
    particular = [Fraction(0)] * n
    for row, col in enumerate(pivot_cols):
        particular[col] = aug[row][n]
    basis = []
    for f in (c for c in range(n) if c not in pivot_cols):
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for row, col in enumerate(pivot_cols):
            v[col] = -aug[row][f]
        basis.append(tuple(v))
    return tuple(particular), basis


def ref_recession(rows, k):
    """Whether {d != 0 : c . d >= 0 for all rows} is nonempty, any k.

    If it is, its intersection with some orthant has an extreme ray, the
    one-dimensional kernel of k - 1 of the rows and unit vectors; each
    such kernel is solved on Fractions and tried with both signs.
    """
    if k == 0:
        return False
    if not rows:
        return True

    def feasible(d):
        return any(x != 0 for x in d) and all(
            sum(c * x for c, x in zip(row, d)) >= 0 for row in rows
        )

    unit = [tuple(Fraction(int(i == j)) for j in range(k)) for i in range(k)]
    for combo in itertools.combinations(list(rows) + unit, k - 1):
        _, kernel = ref_solve_affine([(row, Fraction(0)) for row in combo], k)
        if len(kernel) == 1:
            d = kernel[0]
            if feasible(d) or feasible(tuple(-x for x in d)):
                return True
    return False


def on_facet(facet, v):
    normal, offset = facet
    return sum((c * x for c, x in zip(normal, v)), offset) == 0


def ref_facet_vertices(chamber, facet):
    return tuple(v for v in chamber.vertices if on_facet(facet, v))


def ref_edges(chamber):
    """Vertex pairs whose common facets, by face test, have normals of
    rank dim - 1."""
    on = [{f for f in chamber.facets if on_facet(f, v)} for v in chamber.vertices]
    out = []
    for (v, v_on), (u, u_on) in itertools.combinations(zip(chamber.vertices, on), 2):
        common = [normal for normal, _ in v_on & u_on]
        if (sympy.Matrix(common).rank() if common else 0) == chamber.dim - 1:
            out.append((v, u))
    return tuple(sorted(out))


def ref_boundary_affine_area(chamber):
    if chamber.dim == 2:
        return sum((affine_length(v, u) for v, u in ref_edges(chamber)), Fraction(0))
    return sum(
        (polygon_affine_area(ref_facet_vertices(chamber, f)) for f in chamber.facets),
        Fraction(0),
    )


def ref_edge_singularities(chamber):
    points = set()
    for v, u in ref_edges(chamber):
        prim = primitive_vector(tuple(b - a for a, b in zip(v, u)))
        for j in range(int(affine_length(v, u))):
            points.add(tuple(a + Fraction(2 * j + 1, 2) * d for a, d in zip(v, prim)))
    return tuple(sorted(points))


def ref_cell_measure(cell):
    """A bounded cell's measure by the projection-and-index rule: a
    segment's length over its primitive direction; a 2-cell in 3-space,
    the shoelace area of its cycle without coordinate k, the first that
    its plane's primitive normal u involves, over |u_k|.  The cycle is
    scipy's hull of the shadow, all of whose points are vertices."""
    a, b, *rest = cell.vertices
    if cell.dim == 1:
        d = [y - x for x, y in zip(a, b)]
        return next(abs(x / e) for x, e in zip(d, primitive_vector(d)) if e)
    u = primitive_vector(cross(*([y - x for x, y in zip(a, v)] for v in (b, rest[0]))))
    k = next(i for i, x in enumerate(u) if x)
    shadow = [v[:k] + v[k + 1:] for v in cell.vertices]
    order = ConvexHull([[float(x) for x in q] for q in shadow]).vertices
    assert len(order) == len(shadow)
    shadow = [shadow[i] for i in order]
    twice = sum(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in zip(shadow, shadow[1:] + shadow[:1]))
    return abs(twice) / 2 / abs(u[k])


def ref_affine_dim(points):
    if not points:
        return -1
    n = len(points[0])
    offsets = [tuple(x - o for x, o in zip(p, points[0])) for p in points[1:]]
    return n - len(ref_solve_affine([(row, Fraction(0)) for row in offsets], n)[1])


def ref_cell(forms, subset, box):
    """One cell in its own coordinates: the affine hull of the subset's
    equalities as an origin and a basis, every other form and the box
    rewritten there on Fractions, the vertices mapped back."""
    n = len(box)
    m0, a0 = forms[subset[0]].slope, forms[subset[0]].offset

    def against_base(f):
        return tuple(Fraction(s - b) for s, b in zip(f.slope, m0)), f.offset - a0

    solved = ref_solve_affine(
        [(slope, -const) for slope, const in map(against_base, (forms[i] for i in subset[1:]))], n
    )
    if solved is None:
        return None
    origin, basis = solved
    k = len(basis)
    ineqs = []
    for l, form in enumerate(forms):
        if l in subset:
            continue
        slope, const = against_base(form)
        coeffs = tuple(sum(c * b for c, b in zip(slope, vec)) for vec in basis)
        at_origin = sum((c * x for c, x in zip(slope, origin)), const)
        if at_origin == 0 and not any(coeffs):
            return None
        ineqs.append((coeffs, at_origin))
    rows = list(ineqs)
    for j, (lo, hi) in enumerate(box):
        coeffs = tuple(vec[j] for vec in basis)
        rows += [(coeffs, origin[j] - lo), (tuple(-c for c in coeffs), hi - origin[j])]
    points = ref_region_vertices(rows, k)
    if ref_affine_dim(points) != k:
        return None
    vertices = frozenset(
        tuple(origin[j] + sum(s * vec[j] for s, vec in zip(sv, basis)) for j in range(n))
        for sv in points
    )
    return k, subset, vertices, not ref_recession([c for c, _ in ineqs], k)


# --- strategies ---


@st.composite
def boxed_rows(draw):
    """Random half-planes c . s + d >= 0 plus a box around the origin."""
    rows = draw(st.lists(st.tuples(vectors(2), rationals), max_size=6))
    lo = Fraction(draw(st.integers(-12, 0)), 4)
    hi = Fraction(draw(st.integers(4, 16)), 4)
    box = [
        ((Fraction(1), Fraction(0)), -lo),
        ((Fraction(-1), Fraction(0)), hi),
        ((Fraction(0), Fraction(1)), -lo),
        ((Fraction(0), Fraction(-1)), hi),
    ]
    order = draw(st.permutations(range(len(rows) + 4)))
    return [(rows + box)[i] for i in order]


@st.composite
def open_rows(draw):
    """Random half-planes c . s + d >= 0 with no box, so the region is
    often unbounded or empty; half the time squeezed onto the line x = a
    and cut by y >= b, to a ray, to the point (a, b) or to a segment."""
    rows = draw(st.lists(st.tuples(vectors(2), rationals), max_size=6))
    if draw(st.booleans()):
        a, b = draw(rationals), draw(rationals)
        one, zero = Fraction(1), Fraction(0)
        rows += [((one, zero), -a), ((-one, zero), a), ((zero, one), -b)]
        rows += draw(st.sampled_from(([], [((zero, -one), b)], [((zero, -one), b + 1)])))
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order]


def halfspaces(k):
    """Random rows c . s + d >= 0 in Q^k, sometimes closed off by a box."""
    rows = st.lists(st.tuples(vectors(k), rationals), max_size=7)
    box = st.integers(1, 12).map(lambda r: [
        (tuple(Fraction(sign * (i == j)) for j in range(k)), Fraction(r, 2))
        for i in range(k)
        for sign in (1, -1)
    ])
    return st.tuples(rows, st.one_of(st.just([]), box)).map(lambda p: p[0] + p[1])


@st.composite
def affine_systems(draw):
    """(rows, n): often consistent by construction, sometimes not."""
    n = draw(st.integers(1, 4))
    coefs = draw(st.lists(vectors(n), max_size=5))
    if draw(st.booleans()):
        w = draw(vectors(n))
        rhs = [sum(c * x for c, x in zip(coef, w)) for coef in coefs]
    else:
        rhs = draw(st.lists(rationals, min_size=len(coefs), max_size=len(coefs)))
    return list(zip(coefs, rhs)), n


@st.composite
def tropical_polynomials(draw, dims=(1, 3)):
    """(p, box): 2-5 distinct forms in dimension dims[0]..dims[1] and a box.

    Half the cases are the n + 2 slopes of the fan of P^n (the unit
    vectors, minus their sum, and 0) with random offsets, whose chamber
    is bounded when it is not empty; the others draw their slopes from
    that fan and [-2, 2]^n, so parallel slopes and ties are common.
    """
    n = draw(st.integers(*dims))
    fan = [tuple(int(i == j) for j in range(n)) for i in range(n)] + [(-1,) * n, (0,) * n]
    if draw(st.booleans()):
        pairs = [(m, draw(rationals)) for m in fan]
    else:
        size = draw(st.integers(2, 5))
        slopes = st.one_of(st.sampled_from(fan), st.tuples(*[st.integers(-2, 2)] * n))
        pairs = draw(st.lists(st.tuples(slopes, rationals), min_size=size, max_size=size, unique=True))
    box = []
    for _ in range(n):
        lo = Fraction(draw(st.integers(-40, 4)), 4)
        box.append((lo, lo + Fraction(draw(st.integers(1, 80)), 4)))
    return TropicalPolynomial(tuple(AffineForm(m, a) for m, a in pairs)), tuple(box)


@st.composite
def unimodular(draw, n):
    """A matrix in GL(n, Z): a product of row negations and row additions."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    steps = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-2, 2)),
        max_size=8,
    ))
    for i, j, k in steps:
        if i == j:
            m[i] = [-x for x in m[i]]
        else:
            m[i] = [x + k * y for x, y in zip(m[i], m[j])]
    return m


def polynomial(slopes, offsets):
    return TropicalPolynomial(tuple(map(AffineForm, slopes, offsets)))


def shifted(offsets, shifts):
    return [a + s for a, s in zip(offsets, shifts, strict=True)]


@st.composite
def quartic_images(draw):
    """The quartic's tropicalization min(1 + w_i, 1 - sum w, 0) under a
    unimodular map, its offsets shifted by integers, sometimes cut by one
    more form of small slope and offset."""
    fan = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    slopes = apply(draw(unimodular(3)), (0, 0, 0), fan) + [(0, 0, 0)]
    offsets = [1, 1, 1, 1, 0]
    if draw(st.booleans()):
        extra = st.tuples(*[st.integers(-1, 1)] * 3).filter(lambda m: m not in slopes)
        slopes.append(draw(extra))
        offsets.append(draw(st.integers(1, 3)))
    shifts = draw(st.lists(st.integers(-1, 3), min_size=len(slopes), max_size=len(slopes)))
    return polynomial(slopes, shifted(offsets, shifts))


@st.composite
def quintic_images(draw):
    """(p, m, shift): the quintic's tropicalization min(1 + w_i, 1 - sum w,
    0) with its slopes mapped by a unimodular m and its chamber translated
    by a rational -shift, so each offset grows by its slope . shift."""
    fan = [tuple(int(i == j) for j in range(4)) for i in range(4)] + [(-1,) * 4]
    m = draw(unimodular(4))
    slopes = apply(m, (0,) * 4, fan) + [(0,) * 4]
    shift = draw(vectors(4))
    offsets = [1 + sum(map(mul, slope, shift)) for slope in slopes[:-1]] + [0]
    return polynomial(slopes, offsets), m, shift


@st.composite
def planar_polynomials(draw):
    """The cubic's tropicalization min(1 + w_i, 1 - w_1 - w_2, 0) under a
    unimodular map with integer offset shifts, or 3-5 random forms: slope
    0 at offset 0 and others of positive offset, so its region is not
    empty."""
    if draw(st.booleans()):
        fan = [(1, 0), (0, 1), (-1, -1)]
        slopes = apply(draw(unimodular(2)), (0, 0), fan) + [(0, 0)]
        shifts = draw(st.lists(st.integers(-1, 3), min_size=4, max_size=4))
        return polynomial(slopes, shifted([1, 1, 1, 0], shifts))
    nonzero = st.tuples(*[st.integers(-2, 2)] * 2).filter(any)
    slopes = draw(st.lists(nonzero, min_size=2, max_size=4, unique=True))
    positive = st.builds(Fraction, st.integers(1, 8), st.sampled_from((1, 2, 3, 4, 6)))
    offsets = draw(st.lists(positive, min_size=len(slopes), max_size=len(slopes)))
    return polynomial([(0, 0)] + slopes, [0] + offsets)


def only_chamber(p):
    """The compact chamber of p; examples without exactly one are dropped."""
    try:
        return compact_chamber(p)
    except StructureError:
        assume(False)


def apply(m, shift, points):
    return [
        tuple(sum(a * x for a, x in zip(row, p)) + s for row, s in zip(m, shift))
        for p in points
    ]


# --- properties ---


@EXACT
@given(st.integers(0, 4).flatmap(lambda k: st.tuples(
    st.lists(st.tuples(*[st.integers(-3, 3)] * (k + 1)), min_size=k, max_size=k),
    st.tuples(*[st.integers(-3, 3)] * (k + 1)),
)))
def test_minors_match_fraction_determinants(case):
    rows, top = case
    h = _minors(rows)
    assert len(h) == len(rows) + 1
    for j, x in enumerate(h):
        assert x == (-1) ** j * ref_det([r[:j] + r[j + 1:] for r in rows])
    # the sign convention: top . h is the determinant with top stacked on
    # the rows, so 0 for each of the rows themselves
    assert sum(map(mul, top, h)) == ref_det([top, *rows])
    for row in rows:
        assert sum(map(mul, row, h)) == 0


@EXACT
@given(st.one_of(boxed_rows(), open_rows()))
def test_halfplane_polygon_matches_fraction_reference(rows):
    # it raises exactly when the region has a vertex and a recession
    # direction, and gives [] for an empty region, a point or a segment
    if ref_region_vertices(rows, 2) and ref_recession([c for c, _ in rows], 2):
        with pytest.raises(ValueError, match="bounded region"):
            halfplane_polygon(rows)
    else:
        assert halfplane_polygon(rows) == sorted(ref_halfplane_polygon(rows))


@pytest.mark.parametrize(
    "rows, expected",
    [
        # a point, a segment and a strip, which has no vertex, give []
        ([((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 0)], []),
        ([((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 1)], []),
        ([((0, 1), 0), ((0, -1), 1)], []),
        # a ray has a vertex and a recession direction
        ([((1, 0), 0), ((-1, 0), 0), ((0, 1), Fraction(1, 2))], ValueError),
    ],
)
def test_halfplane_polygon_of_degenerate_regions(rows, expected):
    if expected is ValueError:
        with pytest.raises(ValueError, match="bounded region"):
            halfplane_polygon(rows)
    else:
        assert halfplane_polygon(rows) == expected


@pytest.mark.parametrize("normal", [(), (1,), (1, 0, 0)])
def test_halfplane_polygon_rejects_a_normal_that_is_not_2_d(normal):
    # a 3-entry normal once failed with "too many values to unpack" deep
    # in the minors, a 1-entry one with "not enough values"
    rows = [((1, 0), 0), (normal, 1), ((0, 1), 0)]
    with pytest.raises(ValueError, match=re.escape(f"normal of length 2, got {(normal, 1)!r}")):
        halfplane_polygon(rows)


@pytest.mark.parametrize("bad", [True, 1.0])
def test_halfplane_polygon_rejects_a_float_or_bool_entry(bad):
    # True read as 1, and 1.0 failed with AttributeError in the row clearing
    triangle = [((1, 0), 0), ((-1, -1), 4), ((0, 1), 1)]
    for row in (((bad, 0), 0), ((1, 0), bad)):
        with pytest.raises(TypeError):
            halfplane_polygon([row, *triangle[1:]])


def cone_ray_search(rows, k):
    """The primitive `_cone_rays` of the rows of {s in Q^k : c . s + d >= 0},
    each (c, d) cleared to one integer line, and w >= 0: the region's
    homogeneous vertices (s, w), w > 0, and recession directions (d, 0)."""
    lines = [_integer_row((*c, d)) for c, d in rows]
    return {primitive_vector(h) for h in _cone_rays([*lines, (0,) * k + (1,)], k + 1)}


def region_vertices(rows, k):
    """The sorted vertices of {s in Q^k : c . s + d >= 0 for all rows}, the
    rays of the cone-ray search with w > 0 made affine points."""
    return sorted(_point(h) for h in cone_ray_search(rows, k) if h[-1])


def recession(rows, k):
    """Whether {d != 0 : c . d >= 0 for all rows} is nonempty, by the
    cone-ray search of the region {c . s >= 0}: it holds the origin, so it
    has no recession direction exactly when its only ray is the origin's
    (0, 1); a region with a line has no vertex either."""
    return cone_ray_search([(c, 0) for c in rows], k) != {(0,) * k + (1,)}


@EXACT
@given(st.lists(rationals, max_size=4))
def test_region_vertices_of_a_point(offsets):
    # in Q^0 each row is the constant d >= 0, and the one candidate is ()
    rows = [((), d) for d in offsets]
    expected = [()] if all(d >= 0 for d in offsets) else []
    assert region_vertices(rows, 0) == expected


@EXACT
@given(halfspaces(1))
def test_region_vertices_match_interval_clip(rows):
    assert region_vertices(rows, 1) == ref_interval(rows)


@EXACT
@given(halfspaces(3))
def test_region_vertices_match_fraction_reference_in_space(rows):
    vertices = region_vertices(rows, 3)
    assert vertices == ref_region_vertices(rows, 3)
    for v in vertices:
        assert all(isinstance(x, Fraction) for x in v)


def homogeneous(rows):
    """Each equation coef . w = rhs as the integer row (coef, -rhs) on (w, 1)."""
    return [_integer_row((*coef, -rhs)) for coef, rhs in rows]


@EXACT
@given(affine_systems())
def test_rank_matches_sympy(system):
    # consistent and inconsistent systems, as homogeneous integer rows
    rows, _ = system
    lines = homogeneous(rows)
    pivots = _pivots(lines)
    assert len(pivots) == (sympy.Matrix(lines).rank() if lines else 0)
    # the rows' minor on the pivot columns is not 0: they frame the row space
    if pivots:
        assert sympy.Matrix(lines)[:, pivots].rank() == len(pivots)


def check_corner_locus(p, box):
    """Every cell of the corner locus against `ref_cell`: the same cells,
    each with the sorted reference vertices and boundedness."""
    cells = corner_locus(p, box).cells
    expected = [
        cell
        for size in range(2, len(p.forms) + 1)
        for subset in itertools.combinations(range(len(p.forms)), size)
        if (cell := ref_cell(p.forms, subset, box)) is not None
    ]
    got = {(c.dim, c.active): c for c in cells}
    assert len(got) == len(cells)
    assert set(got) == {(k, subset) for k, subset, *_ in expected}
    for k, subset, vertices, bounded in expected:
        cell = got[k, subset]
        assert cell.vertices == tuple(sorted(vertices))
        assert cell.bounded == bounded


@EXACT
@given(tropical_polynomials())
def test_corner_locus_matches_cell_coordinate_reference(case):
    check_corner_locus(*case)


@EXACT_4D
@given(tropical_polynomials(dims=(4, 4)))
def test_corner_locus_matches_cell_coordinate_reference_in_four_dimensions(case):
    check_corner_locus(*case)


# Finding 1's non-simplex families: t^1 terms at these points and the
# constant at t^0, with the boundary measure of their chambers
CUBE = list(itertools.product((-1, 1), repeat=3))
CENTRES = [tuple(sign * int(i == j) for j in range(3)) for i in range(3) for sign in (1, -1)]
FINDING_1 = {
    "prism": ([(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)], 27),
    "cube vertices": (CUBE, 4),
    "cube vertices and face centres": (CUBE + CENTRES, 4),
    "boundary points of the cube": ([m for m in itertools.product((-1, 0, 1), repeat=3) if any(m)], 4),
}


@pytest.mark.parametrize("name", FINDING_1)
def test_chamber_facets_are_the_bounded_2_cells_of_the_constant(name):
    points, boundary = FINDING_1[name]
    p = polynomial([*points, (0, 0, 0)], [1] * len(points) + [0])
    box = ((-400, 400),) * 3
    cells = [c for c in corner_locus(p, box).cells_of_dim(2) if len(points) in c.active]
    chamber = compact_chamber(p)
    assert all(c.bounded for c in cells)
    assert sorted(c.vertices for c in cells) == sorted(map(chamber.facet_vertices, chamber.facets))
    assert sum(c.affine_measure() for c in cells) == boundary_affine_area(chamber) == boundary
    # the 6- and 9-form loci against the Fraction reference, which tries
    # every subset of forms
    if len(points) <= 8:
        check_corner_locus(p, box)


@EXACT
@given(st.integers(1, 4).flatmap(
    lambda k: st.tuples(st.just(k), st.lists(vectors(k), max_size=5))
))
def test_recession_matches_fraction_reference(case):
    k, rows = case
    assert recession(rows, k) == ref_recession(rows, k)


@EXACT_4D
@given(st.lists(vectors(4), min_size=5, max_size=8))
def test_recession_matches_fraction_reference_with_many_rows_in_four_dimensions(rows):
    # five or more rows can close the cone in Q^4 to {0}; eight random
    # rows do so about half the time, fewer than five rows never
    assert recession(rows, 4) == ref_recession(rows, 4)


@EXACT
@given(tropical_polynomials(dims=(2, 3)))
def test_chamber_facets_are_the_forms_differences(case):
    p, _ = case
    chamber = only_chamber(p)
    n = p.dim
    # the chamber's form is the one least at its vertex centroid, an
    # interior point; every other form's difference from it, made
    # primitive on Fractions, is a facet exactly when it vanishes on
    # vertices that span an (n - 1)-flat
    count = len(chamber.vertices)
    centroid = [sum(v[j] for v in chamber.vertices) / count for j in range(n)]
    (i,) = p.active_set(centroid)
    expected = {}
    for form in p.forms:
        slope = [a - b for a, b in zip(form.slope, p.forms[i].slope)]
        g = math.gcd(*slope)
        if not g:
            continue
        row = tuple(a // g for a in slope), (form.offset - p.forms[i].offset) / g
        values = [sum(map(mul, row[0], v)) + row[1] for v in chamber.vertices]
        assert min(values) >= 0
        on = tuple(v for v, value in zip(chamber.vertices, values) if value == 0)
        if ref_affine_dim(list(on)) == n - 1:
            expected[row] = on
    assert chamber.facets == tuple(sorted(expected))
    for facet in chamber.facets:
        assert math.gcd(*facet[0]) == 1 and type(facet[1]) is Fraction
        assert chamber.facet_vertices(facet) == expected[facet]


def check_chamber_faces(chamber):
    """Incidence, edges, volume and boundary measure against Fractions."""
    for facet in chamber.facets:
        assert chamber.facet_vertices(facet) == ref_facet_vertices(chamber, facet)
    assert chamber.edges() == ref_edges(chamber)
    assert chamber.volume() == affine_volume(chamber.vertices)
    area = boundary_affine_area(chamber)
    assert type(area) is Fraction and area == ref_boundary_affine_area(chamber)


@EXACT
@given(quartic_images())
def test_chamber_faces_match_fraction_reference_in_space(p):
    chamber = only_chamber(p)
    check_chamber_faces(chamber)
    if all(x.denominator == 1 for v in chamber.vertices for x in v):
        points = edge_singularities(chamber)
        assert points == ref_edge_singularities(chamber)
        assert all(type(x) is Fraction for q in points for x in q)
    else:
        with pytest.raises(ValueError, match="lattice points"):
            edge_singularities(chamber)


@EXACT
@given(planar_polynomials())
def test_chamber_faces_match_fraction_reference_in_the_plane(p):
    check_chamber_faces(only_chamber(p))


@EXACT_4D
@given(quintic_images())
def test_quintic_chamber_images_in_four_dimensions(case):
    p, m, shift = case
    chamber = compact_chamber(p)
    # w -> m^T (w + shift) maps the chamber back onto the standard one
    back = [tuple(sum(map(mul, col, (x + s for x, s in zip(w, shift)))) for col in zip(*m))
            for w in chamber.vertices]
    assert sorted(back) == sorted(
        tuple(4 if i == j else -1 for j in range(4)) for i in range(-1, 4)
    )
    for facet in chamber.facets:
        assert chamber.facet_vertices(facet) == ref_facet_vertices(chamber, facet)
    assert chamber.edges() == ref_edges(chamber)
    assert len(chamber.facets) == 5 and len(chamber.edges()) == 10
    assert chamber.volume() == affine_volume(chamber.vertices) == Fraction(625, 24)
    assert boundary_affine_area(chamber) == Fraction(625, 6)


@EXACT
@given(boxed_rows(), unimodular(2), st.tuples(*[st.integers(-5, 5)] * 2))
def test_polygon_area_is_unimodular_invariant(rows, m, shift):
    polygon = halfplane_polygon(rows)
    image = apply(m, shift, polygon)
    assert polygon_affine_area(image) == polygon_affine_area(polygon)
    assert affine_volume(image) == affine_volume(polygon)


@EXACT
@given(
    st.lists(st.tuples(*[st.integers(-3, 3)] * 3), min_size=4, max_size=6, unique=True),
    unimodular(3),
    st.tuples(*[st.integers(-5, 5)] * 3),
)
def test_volume_is_unimodular_invariant(points, m, shift):
    points = [tuple(Fraction(x, 2) for x in p) for p in points]
    volume = affine_volume(points)
    assert affine_volume(apply(m, shift, points)) == volume
    # absolute reference: Qhull's Euclidean volume, which the lattice
    # volume equals since Z^3 has covolume 1
    offsets = [[x - o for x, o in zip(p, points[0])] for p in points[1:]]
    triples = itertools.combinations(offsets, 3)
    if any(sum(x * y for x, y in zip(a, cross(b, c))) for a, b, c in triples):
        hull = ConvexHull(points).volume
        assert float(volume) == pytest.approx(hull, rel=1e-12, abs=1e-12)
    else:
        assert volume == 0


def bench_seed1_images():
    """The quartic and cubic images of one exact_invariants sweep of the
    benchmark at seed 1: the same shears and swaps, drawn in its order."""
    rng = random.Random(1)

    def shears_and_swaps(n):
        mat = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(6):
            op = rng.randrange(3)
            i, j = rng.sample(range(n), 2)
            if op == 0:
                mat[i] = [a + b for a, b in zip(mat[i], mat[j])]
            elif op == 1:
                mat[i] = [a - b for a, b in zip(mat[i], mat[j])]
            else:
                mat[i], mat[j] = mat[j], [-x for x in mat[i]]
        return mat

    quartic = MirrorFamily("quartic_k3").laurent_family()
    cubic = MirrorFamily("elliptic_cubic").laurent_family()
    for _ in range(80):
        mat3, mat2 = shears_and_swaps(3), shears_and_swaps(2)
        yield quartic, mat3
        yield cubic, mat2


def test_cell_measures_of_the_bench_images():
    # every image has the measures of its family, as the projection rule
    # gave them: the quartic's 6 edges of length 4 and 4 facets of area 8,
    # the cubic's 3 edges of length 3
    expected = {3: [(1, 4)] * 6 + [(2, 8)] * 4, 2: [(1, 3)] * 3}
    for family, mat in bench_seed1_images():
        complex_ = corner_locus(tropicalize(monomial_substitution(family, mat)), (-400, 400))
        bounded = [c for c in complex_.cells if c.bounded and c.dim > 0]
        for cell in bounded:
            measure = cell.affine_measure()
            assert type(measure) is Fraction and measure == ref_cell_measure(cell)
        assert sorted((c.dim, c.affine_measure()) for c in bounded) == expected[len(mat)]

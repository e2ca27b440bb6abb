"""Tests for tropicalization, exact polyhedra and lattice measurements."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from gammatrop.errors import StructureError, UnsupportedDimensionError
from gammatrop.tropical import (
    AffineForm,
    LaurentFamily,
    LatticePolytope,
    LaurentTerm,
    TropicalPolynomial,
    affine_length,
    affine_volume,
    boundary_affine_area,
    compact_chamber,
    corner_locus,
    edge_singularities,
    halfplane_polygon,
    monomial_substitution,
    polygon_affine_area,
    primitive_vector,
    tropicalize,
)
from gammatrop.tropical.lattice import _face_measure, _subfaces

# --- reference families ---


def pants_family() -> LaurentFamily:
    """X + Y + 1, the pair of pants."""
    return LaurentFamily(terms=(
        LaurentTerm(1, Fraction(0), (1, 0)),
        LaurentTerm(1, Fraction(0), (0, 1)),
        LaurentTerm(1, Fraction(0), (0, 0)),
    ))


def elliptic_family() -> LaurentFamily:
    """t X + t Y + t / (X Y) - 1, the cubic elliptic mirror."""
    return LaurentFamily(terms=(
        LaurentTerm(1, Fraction(1), (1, 0)),
        LaurentTerm(1, Fraction(1), (0, 1)),
        LaurentTerm(1, Fraction(1), (-1, -1)),
        LaurentTerm(-1, Fraction(0), (0, 0)),
    ))


def k3_family() -> LaurentFamily:
    """t X1 + t X2 + t X3 + t / (X1 X2 X3) - 1, the quartic mirror."""
    return LaurentFamily(terms=(
        LaurentTerm(1, Fraction(1), (1, 0, 0)),
        LaurentTerm(1, Fraction(1), (0, 1, 0)),
        LaurentTerm(1, Fraction(1), (0, 0, 1)),
        LaurentTerm(1, Fraction(1), (-1, -1, -1)),
        LaurentTerm(-1, Fraction(0), (0, 0, 0)),
    ))


def quintic_family() -> LaurentFamily:
    """t X1 + ... + t X4 + t / (X1 X2 X3 X4) - 1, the quintic mirror."""
    units = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    return LaurentFamily(terms=(
        *(LaurentTerm(1, Fraction(1), e) for e in units + [(-1, -1, -1, -1)]),
        LaurentTerm(-1, Fraction(0), (0, 0, 0, 0)),
    ))


# --- exact containment oracles ---


def turn(a, b, c):
    """Twice the signed area of the plane triangle abc: > 0 when ccw."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def shadow_plane(vertices):
    """Coordinates (i, j) whose projection maps the plane of the polygon
    on vertices one to one: the first pair that keeps them off a line."""
    for i, j in itertools.combinations(range(len(vertices[0])), 2):
        a, *rest = [(v[i], v[j]) for v in vertices]
        if any(turn(a, b, c) for b, c in itertools.combinations(rest, 2)):
            return i, j
    raise AssertionError("the vertices span no plane")


def polygon_cycle(vertices):
    """The vertices of a convex polygon in any ambient dimension in cyclic
    order: Andrew's monotone chain on its `shadow_plane` projection."""
    i, j = shadow_plane(vertices)
    shadow = {(v[i], v[j]): v for v in vertices}
    points = sorted(shadow)
    hull = []
    for chain in (points, points[::-1]):
        part = []
        for q in chain:
            while len(part) >= 2 and turn(part[-2], part[-1], q) <= 0:
                part.pop()
            part.append(q)
        hull += part[:-1]
    return tuple(shadow[q] for q in hull)


def ray_direction(ray, complex_):
    """The primitive vector from an unbounded 1-cell's vertex, a 0-cell of
    the locus, to its other end on the box."""
    points = {c.vertices[0] for c in complex_.cells_of_dim(0)}
    (start,) = [v for v in ray.vertices if v in points]
    (end,) = [v for v in ray.vertices if v not in points]
    return primitive_vector(tuple(b - a for a, b in zip(start, end)))


def point_in_cell(cell, point) -> bool:
    """Exact membership of a point in the clipped convex cell."""
    p = tuple(Fraction(x) for x in point)
    verts = polygon_cycle(cell.vertices) if cell.dim == 2 else cell.vertices
    if cell.dim == 0:
        return p == verts[0]
    if cell.dim == 1:
        a, b = verts[0], verts[-1]
        d = tuple(y - x for x, y in zip(a, b))
        s = None
        for pd, dd, ad in zip(p, d, a):
            if dd == 0:
                if pd != ad:
                    return False
            else:
                ratio = (pd - ad) / dd
                if s is None:
                    s = ratio
                elif ratio != s:
                    return False
        return s is not None and 0 <= s <= 1
    # 2-cell: coplanarity plus fan orientation around the cycle
    n = len(p)
    a = verts[0]
    if n == 3:
        d1 = tuple(x - y for x, y in zip(verts[1], a))
        d2 = tuple(x - y for x, y in zip(verts[2], a))
        normal = (
            d1[1] * d2[2] - d1[2] * d2[1],
            d1[2] * d2[0] - d1[0] * d2[2],
            d1[0] * d2[1] - d1[1] * d2[0],
        )
        if sum(nv * (x - y) for nv, x, y in zip(normal, p, a)) != 0:
            return False
    side = None
    for i in range(len(verts)):
        u, v = verts[i], verts[(i + 1) % len(verts)]
        edge = tuple(y - x for x, y in zip(u, v))
        to_p = tuple(y - x for x, y in zip(u, p))
        if n == 2:
            cross = edge[0] * to_p[1] - edge[1] * to_p[0]
            signs = [cross]
        else:
            signs = [
                sum(
                    nv * c
                    for nv, c in zip(
                        normal,
                        (
                            edge[1] * to_p[2] - edge[2] * to_p[1],
                            edge[2] * to_p[0] - edge[0] * to_p[2],
                            edge[0] * to_p[1] - edge[1] * to_p[0],
                        ),
                    )
                )
            ]
        for cross in signs:
            if cross == 0:
                continue
            if side is None:
                side = cross > 0
            elif (cross > 0) != side:
                return False
    return True


def lattice_points_of_triangle(vertices):
    """(interior, boundary) lattice point counts of an integer triangle."""
    xs = [int(v[0]) for v in vertices]
    ys = [int(v[1]) for v in vertices]
    interior = boundary = 0
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            p = (Fraction(x), Fraction(y))
            crosses = []
            on_edge = False
            for i in range(3):
                a, b = vertices[i], vertices[(i + 1) % 3]
                cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (
                    p[0] - a[0]
                )
                if cross == 0:
                    lo_x, hi_x = min(a[0], b[0]), max(a[0], b[0])
                    lo_y, hi_y = min(a[1], b[1]), max(a[1], b[1])
                    if lo_x <= p[0] <= hi_x and lo_y <= p[1] <= hi_y:
                        on_edge = True
                crosses.append(cross)
            if on_edge:
                boundary += 1
            elif all(c > 0 for c in crosses) or all(c < 0 for c in crosses):
                interior += 1
    return interior, boundary


def random_unimodular(rng: random.Random, n: int) -> list[list[int]]:
    """A small-entry element of GL(n, Z) built from shears and swaps."""
    mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
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


def invert_transpose(mat):
    """Exact (A^T)^-1 for small integer matrices."""
    n = len(mat)
    aug = [
        [Fraction(mat[j][i]) for j in range(n)]
        + [Fraction(1 if k == i else 0) for k in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = aug[col][col]
        aug[col] = [x / scale for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


# --- forms and families ---


def test_affine_form_value_is_exact():
    form = AffineForm(slope=(2, -1), offset=Fraction(1, 3))
    assert form.value((Fraction(1, 2), Fraction(1, 6))) == Fraction(7, 6)


def test_tropical_polynomial_min_and_active_set():
    trop = tropicalize(pants_family())
    assert trop.value((2, 3)) == 0
    assert trop.value((-1, 4)) == -1
    assert trop.active_set((0, 0)) == (0, 1, 2)
    assert trop.active_set((-2, -2)) == (0, 1)
    assert trop.active_set((5, 7)) == (2,)


def test_tropical_polynomial_validation():
    with pytest.raises(ValueError):
        TropicalPolynomial(forms=())
    f = AffineForm((1, 0), Fraction(0))
    with pytest.raises(ValueError):
        TropicalPolynomial(forms=(f, f))
    with pytest.raises(ValueError):
        TropicalPolynomial(forms=(f, AffineForm((1,), Fraction(0))))


def test_laurent_term_checks_its_coefficient_after_converting_it():
    # "0" is nonzero as a string but 0j as a coefficient; NaN and inf are
    # no coefficient at all
    for bad in ("0", 0j, math.nan, complex(1, math.inf)):
        with pytest.raises(ValueError, match="nonzero finite"):
            LaurentTerm(bad, Fraction(0), (1,))
    term = LaurentTerm("1+2j", Fraction(0), (1,))
    assert term.coefficient == complex(1, 2) and type(term.coefficient) is complex


def test_laurent_family_validation():
    with pytest.raises(ValueError):
        LaurentTerm(0, Fraction(0), (1, 0))
    term = LaurentTerm(1, Fraction(1, 2), (1, 0))
    with pytest.raises(ValueError):
        LaurentFamily(terms=(term, term))
    with pytest.raises(ValueError):
        LaurentFamily(terms=(term, LaurentTerm(1, Fraction(0), (1,))))
    # exponents and substitution matrices are ints, never truncated floats
    with pytest.raises(TypeError):
        LaurentTerm(1, Fraction(0), (2.9, 0))
    with pytest.raises(TypeError):
        AffineForm((1.5, 0), Fraction(0))
    data = LaurentFamily(terms=(term,)).to_json_dict()
    data["terms"][0]["exp"] = [1.5, 0]
    with pytest.raises(TypeError):
        LaurentFamily.from_json_dict(data)
    with pytest.raises(TypeError):
        monomial_substitution(elliptic_family(), [[1, 0.5], [0, 1]])
    assert LaurentTerm(1, Fraction(0), (2, -1)).exponent == (2, -1)


def test_bools_are_not_exponents_slopes_or_t_powers():
    # operator.index(True) is 1, so each of these read True as 1
    for build in (
        lambda: LaurentTerm(1, Fraction(0), (True, 0)),
        lambda: LaurentTerm(1, True, (1, 0)),
        lambda: AffineForm((False, 1), Fraction(0)),
        lambda: AffineForm((1, 0), True),
        lambda: monomial_substitution(elliptic_family(), [[True, 0], [0, 1]]),
        lambda: AffineForm((1, 0), Fraction(0)).value((2, True)),
    ):
        with pytest.raises(TypeError, match="bool"):
            build()


def test_bools_are_not_coefficients():
    # complex(True) is 1+0j, so a bool coefficient read as 1
    with pytest.raises(TypeError, match="bool"):
        LaurentTerm(True, 1, (1,))
    line = LaurentFamily(terms=(LaurentTerm(1, 1, (1,)), LaurentTerm(-1, 0, (0,))))
    data = line.to_json_dict()
    for coeff in ([True, 0], [1, False]):
        entry = dict(data["terms"][0], coeff=coeff)
        with pytest.raises(TypeError, match="bool"):
            LaurentFamily.from_json_dict(dict(data, terms=[entry, data["terms"][1]]))
    assert LaurentFamily.from_json_dict(data) == line


def test_primitive_vector_rejects_bools():
    # a bool read as 0 or 1: (True, False) gave (1, 0)
    with pytest.raises(TypeError, match="bool"):
        primitive_vector([True, False])
    assert primitive_vector([2, Fraction(4), 6]) == (1, 2, 3)


def test_affine_length_rejects_bools():
    with pytest.raises(TypeError, match="bool"):
        affine_length((0, 0), (True, 0))
    assert affine_length((0, 0), (0.5, Fraction(1, 2))) == Fraction(1, 2)


def test_affine_volume_rejects_bools():
    # the bool triangle read as the standard one, of volume 1/2
    with pytest.raises(TypeError, match="bool"):
        affine_volume([(0, 0), (True, 0), (0, True)])
    assert affine_volume([(0, 0), (1, 0), (0, Fraction(1))]) == Fraction(1, 2)


def test_polygon_affine_area_rejects_bools():
    with pytest.raises(TypeError, match="bool"):
        polygon_affine_area([(0, 0, 0), (1, 0, 0), (0, False, True)])
    assert polygon_affine_area([(0, 0, 0), (1, 0, 0), (0, 0, Fraction(1))]) == Fraction(1, 2)


def test_lattice_polytope_contains_rejects_bools():
    # (True, False) read as (1, 0), a boundary point of the elliptic chamber
    chamber = compact_chamber(tropicalize(elliptic_family()))
    with pytest.raises(TypeError, match="bool"):
        chamber.contains((True, False))
    assert chamber.contains((1, 0)) and chamber.contains((Fraction(1, 2), Fraction(-1, 2)))


def test_laurent_family_evaluate():
    fam = elliptic_family()
    t = 0.01
    z = (2.0 + 0.0j, -1.0 + 0.5j)
    expected = t * z[0] + t * z[1] + t / (z[0] * z[1]) - 1.0
    assert fam.evaluate(z, t) == pytest.approx(expected, rel=1e-14)
    with pytest.raises(ValueError):
        fam.evaluate(z, 1.5)


def test_laurent_family_json_roundtrip():
    fam = LaurentFamily(terms=(
        LaurentTerm(1 + 2j, Fraction(1, 3), (1, -2)),
        LaurentTerm(-1, Fraction(0), (0, 0)),
    ))
    data = fam.to_json_dict()
    back = LaurentFamily.from_json_dict(data)
    assert back == fam


def test_laurent_family_json_rejects_unknown_keys_and_a_bool_dim():
    data = elliptic_family().to_json_dict()
    terms = [dict(entry) for entry in data["terms"]]
    terms[1]["exps"] = [0, 1]
    for bad, key in ((dict(data, dims=2), "dims"), (dict(data, terms=terms), "exps")):
        with pytest.raises(ValueError, match=f"unknown LaurentFamily keys: \\['{key}'\\]"):
            LaurentFamily.from_json_dict(bad)
    # a one-variable family read True as its dimension 1
    line = LaurentFamily(terms=(LaurentTerm(1, Fraction(1), (1,)), LaurentTerm(-1, Fraction(0), (0,))))
    for dim in (True, 1.0):
        with pytest.raises(TypeError, match="dim must be an int"):
            LaurentFamily.from_json_dict(dict(line.to_json_dict(), dim=dim))
    assert LaurentFamily.from_json_dict(line.to_json_dict()) == line


def test_laurent_family_json_reads_exact_t_powers_and_int_exponents():
    line = LaurentFamily(terms=(LaurentTerm(1, Fraction(1, 10), (1,)), LaurentTerm(-1, 0, (0,))))
    data = line.to_json_dict()
    assert data["terms"][0]["texp"] == "1/10"
    for texp in ("1/10", "0.1"):
        entry = dict(data["terms"][0], texp=texp)
        assert LaurentFamily.from_json_dict(dict(data, terms=[entry, data["terms"][1]])) == line
    entry = dict(data["terms"][1], texp=0)
    assert LaurentFamily.from_json_dict(dict(data, terms=[data["terms"][0], entry])) == line
    # a float t-power was read by its binary value, 0.1 as
    # 3602879701896397/36028797018963968, and a bool as 0 or 1
    for key, bad in (("texp", 0.1), ("texp", True), ("exp", [True])):
        entry = dict(data["terms"][0], **{key: bad})
        with pytest.raises(TypeError):
            LaurentFamily.from_json_dict(dict(data, terms=[entry, data["terms"][1]]))


def test_tropicalize_keeps_fractional_offsets():
    fam = LaurentFamily(terms=(
        LaurentTerm(1, Fraction(3, 2), (1,)),
        LaurentTerm(-1, Fraction(0), (0,)),
    ))
    trop = tropicalize(fam)
    assert trop.forms[0].offset == Fraction(3, 2)
    assert trop.value((Fraction(-3, 2),)) == 0


def test_monomial_substitution_acts_on_exponents():
    fam = pants_family()
    sub = monomial_substitution(fam, ((1, 1), (0, 1)))
    assert sub.terms[0].exponent == (1, 0)
    assert sub.terms[1].exponent == (1, 1)


def test_tropicalization_equivariance_under_substitution():
    rng = random.Random(20240824)
    fam = k3_family()
    trop = tropicalize(fam)
    for _ in range(20):
        mat = random_unimodular(rng, 3)
        sub_trop = tropicalize(monomial_substitution(fam, mat))
        for _ in range(5):
            w = tuple(Fraction(rng.randrange(-40, 41), 8) for _ in range(3))
            pulled = tuple(
                sum(mat[i][j] * w[i] for i in range(3)) for j in range(3)
            )
            assert sub_trop.value(w) == trop.value(pulled)
            assert sub_trop.active_set(w) == trop.active_set(pulled)


# --- lattice utilities ---


def test_primitive_vector():
    assert primitive_vector((4, 6)) == (2, 3)
    assert primitive_vector((0, -8)) == (0, -1)
    assert primitive_vector((Fraction(1, 2), Fraction(1, 3))) == (3, 2)
    with pytest.raises(ValueError):
        primitive_vector((0, 0, 0))


def test_affine_length():
    assert affine_length((0, 0), (4, 6)) == 2
    assert affine_length((0, 0, 0), (3, 3, 3)) == 3
    assert affine_length((0,), (Fraction(1, 2),)) == Fraction(1, 2)
    assert affine_length((1, 1), (1, 1)) == 0
    # a float is the binary fraction it stores
    assert affine_length((0.5,), (1,)) == Fraction(1, 2)
    with pytest.raises(ValueError):
        affine_length((0, 0), (1,))


def test_polygon_affine_area_basics():
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    assert polygon_affine_area(square) == 1
    tri = [(0, 0), (1, 0), (0, 1)]
    assert polygon_affine_area(tri) == Fraction(1, 2)
    big = [(-1, -1), (2, -1), (-1, 2)]
    assert polygon_affine_area(big) == Fraction(9, 2)


def test_polygon_affine_area_matches_pick_count():
    rng = random.Random(11)
    lift_rng = random.Random(12)
    lifted_normals = []
    checked = 0
    while checked < 30:
        tri = [
            (rng.randrange(-8, 9), rng.randrange(-8, 9)) for _ in range(3)
        ]
        det = (tri[1][0] - tri[0][0]) * (tri[2][1] - tri[0][1]) - (
            tri[1][1] - tri[0][1]
        ) * (tri[2][0] - tri[0][0])
        if det == 0:
            continue
        area = polygon_affine_area(tri)
        assert area == Fraction(abs(det), 2)
        interior, boundary = lattice_points_of_triangle(
            [tuple(map(Fraction, v)) for v in tri]
        )
        assert area == interior + Fraction(boundary, 2) - 1
        # the same triangle lifted into 3-space by an element of GL(3, Z)
        mat = random_unimodular(lift_rng, 3)
        lifted = [
            tuple(mat[i][0] * x + mat[i][1] * y for i in range(3))
            for x, y in tri
        ]
        assert polygon_affine_area(lifted) == area
        # the plane's normal, primitive as a row of the adjugate of mat
        a, b = [row[0] for row in mat], [row[1] for row in mat]
        lifted_normals.append((
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ))
        checked += 1
    # some plane meets the lattice with projection index |u_k| > 1
    assert any(all(abs(c) != 1 for c in u) for u in lifted_normals)


def test_polygon_affine_area_in_space():
    # facet of the quartic chamber on the plane w1 + w2 + w3 = 1
    facet = [(3, -1, -1), (-1, 3, -1), (-1, -1, 3)]
    assert polygon_affine_area(facet) == 8
    # dropping the third coordinate is a lattice isomorphism of the plane
    interior, boundary = lattice_points_of_triangle(
        [(Fraction(3), Fraction(-1)), (Fraction(-1), Fraction(3)),
         (Fraction(-1), Fraction(-1))]
    )
    assert interior + Fraction(boundary, 2) - 1 == 8


def test_polygon_affine_area_rejects_bad_input():
    with pytest.raises(ValueError, match="one plane"):
        polygon_affine_area([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    with pytest.raises(ValueError, match="one plane"):
        polygon_affine_area([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)])
    with pytest.raises(ValueError, match="one ambient dimension"):
        polygon_affine_area([(0, 0), (1, 0), (0, 1, 0)])


def test_polygon_affine_area_in_any_ambient_dimension():
    assert polygon_affine_area([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0)]) == Fraction(1, 2)
    # a triangle on the plane spanned by (1, 1, 0, 0) and (0, 1, 1, 1)
    tri = [(1, 1, 1, 1), (3, 3, 1, 1), (1, 4, 4, 4)]
    assert polygon_affine_area(tri) == 3
    # points on a line, or one point, span less than a plane
    assert polygon_affine_area([(0,), (1,), (2,)]) == 0
    assert polygon_affine_area([(1, 2, 3, 4, 5)]) == 0


def test_affine_volume_dimensions():
    assert affine_volume([(-1,), (3,)]) == 4
    assert affine_volume([(0, 0), (2, 0), (2, 2), (0, 2)]) == 4
    cube = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    assert affine_volume(cube) == 1
    simplex = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert affine_volume(simplex) == Fraction(1, 6)
    big = [(-1, -1, -1), (3, -1, -1), (-1, 3, -1), (-1, -1, 3)]
    assert affine_volume(big) == Fraction(32, 3)
    # points that are not vertices of the hull add nothing
    half = Fraction(1, 2)
    assert affine_volume([(0, 0), (2, 0), (2, 2), (0, 2), (half, 1)]) == 4
    assert polygon_affine_area(
        [(0, 0, 1), (2, 0, 1), (2, 2, 1), (0, 2, 1), (half, 1, 1)]
    ) == 4
    on_facet = [
        (0, 0, 0), (0, 0, -1), (0, -half, 0), (half, 0, -3 * half),
        (-half, half, -3 * half),
    ]
    assert affine_volume(on_facet) == Fraction(1, 8)
    for mixed in (
        [(0, 0), (2, 0), (2, 2, 5), (0, 2)],
        [(0,), (2, 7)],
        [(0, 0, 0), (1, 0, 0), (0, 1), (0, 0, 1)],
    ):
        with pytest.raises(ValueError, match="one ambient dimension"):
            affine_volume(mixed)


def test_affine_measures_are_unimodular_invariant():
    rng = random.Random(3)
    tri = [(0, 0, 1), (4, 0, 1), (0, 4, 1)]
    base_area = polygon_affine_area(tri)
    for _ in range(20):
        mat = random_unimodular(rng, 3)
        image = [
            tuple(sum(mat[i][j] * v[j] for j in range(3)) for i in range(3))
            for v in tri
        ]
        assert polygon_affine_area(image) == base_area


# --- corner loci ---


def test_pants_corner_locus_structure():
    trop = tropicalize(pants_family())
    complex_ = corner_locus(trop, (-5, 5))
    assert len(complex_.cells) == 4
    vertex, = complex_.cells_of_dim(0)
    assert vertex.active == (0, 1, 2)
    assert vertex.vertices == ((Fraction(0), Fraction(0)),)
    rays = {c.active: c for c in complex_.cells_of_dim(1)}
    assert set(rays) == {(0, 1), (0, 2), (1, 2)}
    directions = {active: ray_direction(ray, complex_) for active, ray in rays.items()}
    assert directions == {(0, 2): (0, 1), (1, 2): (1, 0), (0, 1): (-1, -1)}
    # balancing at the vertex: the primitive rays, each of weight 1, sum to 0
    assert tuple(map(sum, zip(*directions.values()))) == (0, 0)
    for ray in rays.values():
        assert not ray.bounded
        assert ray.affine_measure() == 5


def test_pants_cells_know_their_representatives():
    trop = tropicalize(pants_family())
    complex_ = corner_locus(trop, (-5, 5))
    for cell in complex_.cells:
        rep = cell.representative()
        assert trop.active_set(rep) == cell.active


def test_elliptic_corner_locus_structure():
    trop = tropicalize(elliptic_family())
    complex_ = corner_locus(trop, (-8, 8))
    assert len(complex_.cells_of_dim(0)) == 3
    one_cells = complex_.cells_of_dim(1)
    assert len(one_cells) == 6
    bounded = [c for c in one_cells if c.bounded]
    assert len(bounded) == 3
    # the bounded cycle is the triangle boundary, lattice length 9
    assert sum(c.affine_measure() for c in bounded) == 9
    ray_dirs = {ray_direction(c, complex_) for c in one_cells if not c.bounded}
    assert ray_dirs == {(-1, -1), (-1, 2), (2, -1)}


def test_k3_corner_locus_structure():
    trop = tropicalize(k3_family())
    complex_ = corner_locus(trop, (-6, 6))
    assert len(complex_.cells_of_dim(0)) == 4
    assert len(complex_.cells_of_dim(1)) == 10
    two_cells = complex_.cells_of_dim(2)
    assert len(two_cells) == 10
    bounded2 = [c for c in two_cells if c.bounded]
    assert sorted(c.affine_measure() for c in bounded2) == [8, 8, 8, 8]
    bounded1 = [c for c in complex_.cells_of_dim(1) if c.bounded]
    assert sorted(c.affine_measure() for c in bounded1) == [4] * 6
    for cell in complex_.cells:
        rep = cell.representative()
        assert trop.active_set(rep) == cell.active


def test_corner_locus_sampling_consistency():
    # every sampled point with two or more active forms lies in the cell
    # carrying exactly that active set: for K3, the elliptic family and one
    # GL(3, Z) image of K3
    image = monomial_substitution(k3_family(), random_unimodular(random.Random(20240825), 3))
    for family in (k3_family(), elliptic_family(), image):
        trop = tropicalize(family)
        complex_ = corner_locus(trop, (-6, 6))
        by_active = {c.active: c for c in complex_.cells}
        rng = random.Random(20240824)
        hits = 0
        for _ in range(10_000):
            w = tuple(Fraction(rng.randrange(-24, 25), 4) for _ in range(trop.dim))
            active = trop.active_set(w)
            if len(active) < 2:
                continue
            hits += 1
            assert active in by_active
            assert point_in_cell(by_active[active], w)
        assert hits > 100  # the quarter-integer grid hits the locus often


def test_two_cell_vertices_are_extreme():
    # no vertex of a 2-cell lies in the hull of the others: by Caratheodory
    # in the plane, in no triangle or segment of three or two others,
    # tested on the cell's shadow plane.  The elliptic and pants loci lie
    # in the plane and have no 2-cells, so each family is lifted to
    # 3-space by one more term, Z
    def lifted(family):
        terms = [LaurentTerm(t.coefficient, t.t_exponent, (*t.exponent, 0)) for t in family.terms]
        return LaurentFamily(terms=(*terms, LaurentTerm(1, Fraction(0), (0, 0, 1))))

    def in_segment(p, a, b):
        return turn(a, b, p) == 0 and all(min(x, y) <= z <= max(x, y) for x, y, z in zip(a, b, p))

    def in_triangle(p, a, b, c):
        sides = [turn(a, b, p), turn(b, c, p), turn(c, a, p)]
        return all(x >= 0 for x in sides) or all(x <= 0 for x in sides)

    image = monomial_substitution(k3_family(), random_unimodular(random.Random(20240826), 3))
    for family in (k3_family(), lifted(elliptic_family()), lifted(pants_family()), image):
        two_cells = corner_locus(tropicalize(family), (-400, 400)).cells_of_dim(2)
        assert two_cells
        for cell in two_cells:
            i, j = shadow_plane(cell.vertices)
            shadow = [(v[i], v[j]) for v in cell.vertices]
            assert len(set(shadow)) == len(shadow) >= 3
            for p in shadow:
                others = [q for q in shadow if q != p]
                assert not any(in_segment(p, a, b) for a, b in itertools.combinations(others, 2))
                assert not any(
                    in_triangle(p, a, b, c)
                    for a, b, c in itertools.combinations(others, 3)
                    if turn(a, b, c)
                )


def test_corner_locus_respects_unimodular_changes():
    # cell structure transported by a torus automorphism: counts, active
    # sets, vertex positions and bounded measures all match
    fam = k3_family()
    trop = tropicalize(fam)
    base = corner_locus(trop, (-6, 6))
    base_active = {c.active for c in base.cells}
    base_vertices = {c.vertices[0] for c in base.cells_of_dim(0)}
    rng = random.Random(20240815)
    for _ in range(25):
        mat = random_unimodular(rng, 3)
        sub = tropicalize(monomial_substitution(fam, mat))
        moved = corner_locus(sub, (-400, 400))
        assert {c.active for c in moved.cells} == base_active
        inverse_t = invert_transpose(mat)
        expected = {
            tuple(
                sum(inverse_t[i][j] * v[j] for j in range(3)) for i in range(3)
            )
            for v in base_vertices
        }
        assert {c.vertices[0] for c in moved.cells_of_dim(0)} == expected
        for dim, measures in ((1, [4] * 6), (2, [8] * 4)):
            bounded = [
                c.affine_measure()
                for c in moved.cells_of_dim(dim)
                if c.bounded
            ]
            assert sorted(bounded) == measures


def test_quintic_corner_locus_in_four_dimensions():
    # the locus of the mirror quintic is the boundary complex of its
    # chamber, the 4-simplex, with rays out of it: the bounded 1-, 2- and
    # 3-cells are the chamber's 10 edges, 10 ridges and 5 facets, whose
    # measures sum to 50, 125 and its boundary measure 625/6
    family = quintic_family()
    complex_ = corner_locus(tropicalize(family), (-400, 400))
    chamber = compact_chamber(tropicalize(family))
    counts = [(len(cs), sum(c.bounded for c in cs)) for cs in map(complex_.cells_of_dim, range(4))]
    assert counts == [(5, 5), (15, 10), (20, 10), (15, 5)]
    each = {1: 5, 2: Fraction(25, 2), 3: Fraction(125, 6)}
    for dim, measure in each.items():
        assert {c.affine_measure() for c in complex_.cells_of_dim(dim) if c.bounded} == {measure}
    ridges = {sub for on in chamber.incidence for sub in _subfaces(frozenset(on), chamber.incidence)}
    faces = {
        0: {frozenset((v,)) for v in chamber.vertices},
        1: {frozenset(edge) for edge in chamber.edges()},
        2: {frozenset(chamber.vertices[i] for i in ridge) for ridge in ridges},
        3: {frozenset(chamber.facet_vertices(f)) for f in chamber.facets},
    }
    for dim, expected in faces.items():
        cells = [c for c in complex_.cells_of_dim(dim) if c.bounded]
        assert {frozenset(c.vertices) for c in cells} == expected

    def sums(complex_):
        return [
            sum((c.affine_measure() for c in complex_.cells_of_dim(dim) if c.bounded), Fraction(0))
            for dim in (1, 2, 3)
        ]

    assert sums(complex_) == [50, 125, Fraction(625, 6)]
    mat = random_unimodular(random.Random(20261019), 4)
    image = corner_locus(tropicalize(monomial_substitution(family, mat)), (-400, 400))
    assert sums(image) == [50, 125, Fraction(625, 6)]


def test_corner_locus_box_validation():
    trop = tropicalize(pants_family())
    with pytest.raises(ValueError):
        corner_locus(trop, (1, -1))
    with pytest.raises(ValueError):
        corner_locus(trop, ((0, 1),))
    # a box that is not a sequence of (lo, hi) bounds
    for box in (5, None, ((0, 1), 5), ((0, 1), (0, None))):
        with pytest.raises(ValueError):
            corner_locus(trop, box)
    # Fraction read a float bound by its binary value, -0.1 as
    # -3602879701896397/36028797018963968, a bool as 0 or 1 and a string
    # by parsing it; each bound must be an int or a Fraction
    for box, bound in (
        ((-0.1, 1), "-0.1"),
        ((False, True), "False"),
        (((0, 1), ("0", "1")), "'0'"),
    ):
        with pytest.raises(ValueError, match=bound):
            corner_locus(trop, box)


# --- chambers and polytope combinatorics ---


def test_interval_chamber_for_dimension_one():
    fam = LaurentFamily(terms=(
        LaurentTerm(1, Fraction(1), (1,)),
        LaurentTerm(1, Fraction(1), (-1,)),
        LaurentTerm(-1, Fraction(0), (0,)),
    ))
    chamber = compact_chamber(tropicalize(fam))
    assert chamber.vertices == ((Fraction(-1),), (Fraction(1),))
    assert chamber.volume() == 2


def test_point_chamber_for_dimension_zero():
    # Q^0 is one point, a polytope with no facets and no recession direction
    chamber = compact_chamber(TropicalPolynomial((AffineForm((), 0), AffineForm((), 1))))
    assert (chamber.dim, chamber.vertices, chamber.facets) == (0, ((),), ())


def test_elliptic_chamber_is_the_triangle():
    chamber = compact_chamber(tropicalize(elliptic_family()))
    assert chamber.vertices == (
        (Fraction(-1), Fraction(-1)),
        (Fraction(-1), Fraction(2)),
        (Fraction(2), Fraction(-1)),
    )
    assert chamber.volume() == Fraction(9, 2)
    assert boundary_affine_area(chamber) == 9
    assert len(chamber.facets) == 3
    assert len(chamber.edges()) == 3


def test_k3_chamber_is_the_reflexive_simplex():
    chamber = compact_chamber(tropicalize(k3_family()))
    assert chamber.vertices == (
        (Fraction(-1), Fraction(-1), Fraction(-1)),
        (Fraction(-1), Fraction(-1), Fraction(3)),
        (Fraction(-1), Fraction(3), Fraction(-1)),
        (Fraction(3), Fraction(-1), Fraction(-1)),
    )
    assert len(chamber.facets) == 4
    assert len(chamber.edges()) == 6
    assert boundary_affine_area(chamber) == 32
    assert chamber.volume() == Fraction(32, 3)
    assert chamber.contains((0, 0, 0))
    assert chamber.contains((-1, -1, -1))
    assert not chamber.contains((4, 0, 0))
    # reflexive: every facet at lattice distance 1 from the origin, so
    # the volume is a third of the boundary area, in every lattice chart
    rng = random.Random(20240901)
    for _ in range(5):
        mat = random_unimodular(rng, 3)
        image = compact_chamber(tropicalize(monomial_substitution(k3_family(), mat)))
        assert 3 * image.volume() == boundary_affine_area(image)


def test_compact_chamber_agrees_with_point_sampling():
    # the chamber is where its form, the constant term (listed last), is
    # least; sampled rationals around it, boundary points included, are in
    # the chamber exactly when that form is active there
    rng = random.Random(20240826)
    families = []
    for family, n in ((k3_family(), 3), (elliptic_family(), 2)):
        families.append(family)
        families += [monomial_substitution(family, random_unimodular(rng, n)) for _ in range(3)]
    for family in families:
        trop = tropicalize(family)
        chamber = compact_chamber(trop)
        chamber_form = len(trop.forms) - 1
        assert trop.forms[chamber_form].slope == (0,) * trop.dim
        lows = [math.floor(min(v[k] for v in chamber.vertices)) - 1 for k in range(trop.dim)]
        highs = [math.ceil(max(v[k] for v in chamber.vertices)) + 1 for k in range(trop.dim)]
        inside = 0
        for _ in range(300):
            q = rng.randint(1, 4)
            w = tuple(Fraction(rng.randrange(q * lo, q * hi + 1), q) for lo, hi in zip(lows, highs))
            expected = chamber_form in trop.active_set(w)
            assert chamber.contains(w) == expected
            inside += expected
        assert 0 < inside < 300


def test_chamber_requires_a_bounded_region():
    with pytest.raises(StructureError):
        compact_chamber(tropicalize(pants_family()))


def test_halfplane_polygon_needs_a_bounded_region():
    # x >= 0, y >= 0, x + y >= 1, x <= 5: vertices (0, 1), (1, 0), (5, 0)
    # but no bound on y, so no triangle describes it
    rows = [
        ((Fraction(1), Fraction(0)), Fraction(0)),
        ((Fraction(0), Fraction(1)), Fraction(0)),
        ((Fraction(1), Fraction(1)), Fraction(-1)),
        ((Fraction(-1), Fraction(0)), Fraction(5)),
    ]
    with pytest.raises(ValueError, match="bounded"):
        halfplane_polygon(rows)
    capped = rows + [((Fraction(0), Fraction(-1)), Fraction(5))]
    assert halfplane_polygon(capped) == [(0, 1), (0, 5), (1, 0), (5, 0), (5, 5)]
    # an empty region has no vertex and stays []
    assert halfplane_polygon(rows + [((Fraction(-1), Fraction(-1)), Fraction(0))]) == []


def test_interval_chamber_boundary_is_its_two_endpoints():
    # the chamber of t x + t / x - 1 is [-1, 1]; its boundary, the
    # Calabi-Yau of P^1, is two points of measure 1 each
    fam = LaurentFamily(terms=(
        LaurentTerm(1, Fraction(1), (1,)),
        LaurentTerm(1, Fraction(1), (-1,)),
        LaurentTerm(-1, Fraction(0), (0,)),
    ))
    chamber = compact_chamber(tropicalize(fam))
    assert chamber.volume() == 2
    area = boundary_affine_area(chamber)
    assert type(area) is Fraction and area == 2
    assert chamber.edges() == (((Fraction(-1),), (Fraction(1),)),)


def quintic_simplex() -> LatticePolytope:
    """The 4-simplex of the mirror quintic, built from its facets."""
    vertices = tuple(sorted(
        tuple(Fraction(4 if i == j else -1) for j in range(4)) for i in range(-1, 4)
    ))
    facets = tuple(sorted(
        [(tuple(int(i == j) for j in range(4)), Fraction(1)) for i in range(4)]
        + [((-1, -1, -1, -1), Fraction(1))]
    ))
    incidence = tuple(
        tuple(k for k, v in enumerate(vertices) if sum(a * x for a, x in zip(u, v)) + c == 0)
        for u, c in facets
    )
    return LatticePolytope(dim=4, vertices=vertices, facets=facets, incidence=incidence)


def test_quintic_simplex_measures():
    # P^4's 625/24 is the volume; the quintic's 625 L^3 / 6 is the boundary.
    # The chamber is found by compact_chamber and checked against the
    # simplex built by hand from its facets
    simplex = compact_chamber(tropicalize(quintic_family()))
    assert simplex == quintic_simplex()
    assert simplex.volume() == affine_volume(simplex.vertices) == Fraction(625, 24)
    assert boundary_affine_area(simplex) == Fraction(625, 6)
    for on in simplex.incidence:
        assert _face_measure(simplex.vertices, on, simplex.incidence) == Fraction(125, 6)
    # every 3 and 2 of the 5 vertices span a face of the simplex
    triangles = list(itertools.combinations(simplex.vertices, 3))
    assert sum(polygon_affine_area(t) for t in triangles) == 125
    ridges = {sub for on in simplex.incidence for sub in _subfaces(frozenset(on), simplex.incidence)}
    assert len(ridges) == 10
    assert sum(_face_measure(simplex.vertices, r, simplex.incidence) for r in ridges) == 125
    assert simplex.edges() == tuple(itertools.combinations(simplex.vertices, 2))
    assert sum(affine_length(v, u) for v, u in simplex.edges()) == 50
    rng = random.Random(20261019)
    for _ in range(5):
        mat = random_unimodular(rng, 4)
        image = [
            tuple(sum(mat[i][j] * v[j] for j in range(4)) for i in range(4))
            for v in simplex.vertices
        ]
        assert affine_volume(image) == Fraction(625, 24)


def test_k3_edge_singularities():
    chamber = compact_chamber(tropicalize(k3_family()))
    points = edge_singularities(chamber)
    assert len(points) == 24
    # four points per edge, at half-integer positions
    assert (Fraction(-1), Fraction(-1), Fraction(-1, 2)) in points
    assert (Fraction(-1), Fraction(-1), Fraction(5, 2)) in points
    for p in points:
        assert sum(x.denominator == 2 for x in p) >= 1
        # singular points sit on the boundary surface
        assert chamber.contains(p)


def test_edge_singularities_reject_bad_input():
    chamber = compact_chamber(tropicalize(elliptic_family()))
    with pytest.raises(UnsupportedDimensionError):
        edge_singularities(chamber)

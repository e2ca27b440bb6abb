"""Tests for the characteristic-class module.

Expected values are either trivial identities, cross-checked against the
independent oracles implemented at the top of this file, or frozen after
an oracle run.  sympy is the independent reference for the exact ring:
`to_sympy` converts ring values, and `gamma_series_reference` builds the
Gamma polynomials from sympy's own series of Gamma(1+x).
"""

import functools
import math
import random
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from gammatrop.cohomology import (
    GradedElement,
    ManifoldModel,
    _exact,
    chern_character,
    gamma_class,
    gamma_period_polynomial,
    integrate,
    log_gamma_series,
    log_gamma_series_exact,
    total_chern,
    zeta_value,
)
from gammatrop.errors import UnsupportedDimensionError

EULER_GAMMA = 0.5772156649015328606

# --- independent oracles -------------------------------------------------


def poly_div(a, b, n):
    """Truncated quotient a/b of coefficient lists, b[0] != 0."""
    a = [Fraction(x) for x in a] + [Fraction(0)] * n
    b = [Fraction(x) for x in b] + [Fraction(0)] * n
    out = []
    rem = a[: n + 1]
    for k in range(n + 1):
        q = rem[k] / b[0]
        out.append(q)
        for j in range(k, n + 1):
            rem[j] -= q * b[j - k]
    return out


def exp_h_series(scale, n):
    """Coefficient list of exp(scale*H) truncated at degree n."""
    return [Fraction(scale) ** k / math.factorial(k) for k in range(n + 1)]


def zeta_em_oracle(s, terms=100):
    """zeta(s) by direct summation plus Euler-Maclaurin tail correction."""
    n = terms
    total = sum(Fraction(1) / Fraction(k) ** s for k in range(1, n))
    total = float(total)
    # tail: integral + f(n)/2 - f'(n)/12 + f'''(n)/720
    total += n ** (1 - s) / (s - 1)
    total += 0.5 * n ** (-s)
    total += s / 12.0 * n ** (-s - 1)
    total -= s * (s + 1) * (s + 2) / 720.0 * n ** (-s - 3)
    return total


def to_sympy(x):
    """A ring value as a sympy expression.

    Rationals are ints or Fractions; any other value maps exponent tuples
    (e_I, e_EulerGamma, e_pi, e_zeta(3), e_zeta(5), ...) to Fractions.
    """
    if isinstance(x, (int, Fraction)):
        return sympy.Rational(x.numerator, x.denominator)
    generators = [sympy.I, sympy.EulerGamma, sympy.pi]
    out = sympy.Integer(0)
    for monomial, c in x.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for k, e in enumerate(monomial):
            term *= (generators[k] if k < 3 else sympy.zeta(2 * k - 3)) ** e
        out += term
    return out


BIG_L, X = sympy.symbols("L x")


def poly_to_sympy(poly):
    return sum(to_sympy(c) * BIG_L**k for k, c in enumerate(poly.coefficients))


def truncated_product(a, b, n):
    """Coefficients of a*b up to x^n, for coefficient lists of length > n."""
    return [sympy.expand(sum(a[i] * b[k - i] for i in range(k + 1))) for k in range(n + 1)]


@functools.cache
def gamma_power(k):
    """Coefficients of Gamma(1+x)^k up to x^8; Gamma(1+x) from sympy.series."""
    if k == 1:
        series = sympy.series(sympy.gamma(1 + X), X, 0, 9).removeO()
        return tuple(sympy.expand(series).coeff(X, j) for j in range(9))
    return tuple(truncated_product(gamma_power(k - 1), gamma_power(1), 8))


def gamma_series_reference(m, omega_multiple, line_degree=None):
    """The Gamma polynomial of m from sympy's series of Gamma(1+x).

    P^n: the x^n coefficient of Gamma(1+x)^(n+1) exp(omega L x).  A
    hypersurface of degree d: d times the x^(n-1) coefficient of the same
    product divided by Gamma(1+dx).  Pairing with O(line_degree) multiplies
    by exp(2 pi i line_degree x).  Products are truncated power series in
    sympy; only Gamma(1+x) itself goes through sympy.series, since a direct
    series of the n = 8 products takes tens of seconds.
    """
    top = m.dim
    g = gamma_power(1)
    out = gamma_power(m.ambient_dim + 1)[: top + 1]
    exponent = omega_multiple * BIG_L
    if line_degree is not None:
        exponent += 2 * sympy.pi * sympy.I * line_degree
    out = truncated_product(out, [exponent**k / math.factorial(k) for k in range(top + 1)], top)
    d = m.hypersurface_degree
    if d is None:
        return sympy.expand(out[top])
    # divide by Gamma(1+dx): q_k = (out_k - sum_{j<k} q_j g_{k-j} d^(k-j)) / g_0
    q = []
    for k in range(top + 1):
        q.append(sympy.expand(out[k] - sum(q[j] * g[k - j] * d ** (k - j) for j in range(k))))
    return sympy.expand(d * q[top])


# --- zeta and log-Gamma coefficients -------------------------------------


def test_zeta_even_closed_forms():
    assert zeta_value(2) == pytest.approx(math.pi**2 / 6, abs=1e-14)
    assert zeta_value(4) == pytest.approx(math.pi**4 / 90, abs=1e-14)


def test_zeta_odd_against_euler_maclaurin_oracle():
    assert zeta_value(3) == pytest.approx(zeta_em_oracle(3), abs=1e-12)
    assert zeta_value(5) == pytest.approx(zeta_em_oracle(5), abs=1e-12)


def test_zeta_matches_mpmath_to_an_ulp():
    for k in range(2, 41):
        with mpmath.workdps(40):
            reference = float(mpmath.zeta(k))
        assert abs(zeta_value(k) - reference) <= math.ulp(reference)


def test_zeta_rejects_small_arguments():
    # a cached zeta(2) must not answer for 2.0 or True
    zeta_value(2)
    for bad in (1, 0, -2, 2.0, True):
        with pytest.raises(ValueError):
            zeta_value(bad)


def test_log_gamma_series_small_orders():
    a = log_gamma_series(4)
    assert a[0] == pytest.approx(-EULER_GAMMA, abs=1e-14)
    assert a[1] == pytest.approx(math.pi**2 / 12, abs=1e-14)
    assert a[2] == pytest.approx(-zeta_em_oracle(3) / 3, abs=1e-12)
    assert a[3] == pytest.approx(math.pi**4 / 360, abs=1e-14)


def test_log_gamma_series_matches_lgamma():
    # the truncated series should reproduce log Gamma(1+x) for small x
    a = log_gamma_series(12)
    for x in (0.05, -0.05, 0.1):
        series = sum(ak * x**k for k, ak in enumerate(a, start=1))
        assert series == pytest.approx(math.lgamma(1 + x), abs=1e-13)


def test_log_gamma_series_order_zero_is_empty():
    assert log_gamma_series(0) == log_gamma_series_exact(0) == []
    for series in (log_gamma_series, log_gamma_series_exact):
        with pytest.raises(ValueError):
            series(-1)


def test_integer_arguments_are_ints_not_bools():
    # True was read as 1: a truncation stored as True, x ** True == x, and
    # the series and the Chern character of order or rank True; 2.0 failed
    # inside range with "'float' object cannot be interpreted as an integer"
    x = GradedElement([1, 2], 2)
    calls = {
        "truncation": lambda bad: GradedElement([1, 2], bad),
        "exponent": lambda bad: x**bad,
        "order": lambda bad: log_gamma_series_exact(bad),
        "rank": lambda bad: chern_character(x, bad),
    }
    for what, call in calls.items():
        for bad in (True, False, 2.0, Fraction(2), "2"):
            with pytest.raises(TypeError, match=f"{what} must be an int"):
                call(bad)
    with pytest.raises(TypeError, match="order must be an int"):
        log_gamma_series(2.0)
    assert GradedElement([1, 2], 1).truncation == 1
    assert (x**2).coefficients == [1, 4, 4]
    assert len(chern_character(x, 2)) == 3


def test_log_gamma_series_exact_values():
    a = [to_sympy(c) for c in log_gamma_series_exact(3)]
    assert a[0] == -sympy.EulerGamma
    assert sympy.simplify(a[1] - sympy.zeta(2) / 2) == 0
    assert sympy.simplify(a[2] + sympy.zeta(3) / 3) == 0


# --- graded ring arithmetic ----------------------------------------------


def test_multiplication_truncates():
    h = GradedElement.hyperplane(2)
    assert (h * h).coefficients == [0, 0, 1]
    assert (h * h * h).coefficients == [0, 0, 0]


def test_truncation_mismatch_rejected():
    with pytest.raises(ValueError):
        GradedElement.one(2) * GradedElement.one(3)


def test_inverse_of_one_plus_dh():
    n = 4
    inv = (GradedElement([1, 3], n)).inverse()
    assert inv.coefficients == [1, -3, 9, -27, 81]


def test_exp_log_roundtrip_exact():
    rng = random.Random(20240811)
    for _ in range(25):
        n = rng.randint(1, 4)
        coeffs = [0] + [
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)
        ]
        x = GradedElement(coeffs, n)
        back = x.exp().log()
        assert back.coefficients == x.coefficients


def exp_by_powers(x):
    """exp of a nilpotent element as sum_k x^k / k!, by repeated products."""
    n = x.truncation
    total, term = GradedElement.one(n), GradedElement.one(n)
    for k in range(1, n + 1):
        term = term * x
        total = total + Fraction(1, math.factorial(k)) * term
    return total


def log_by_powers(x):
    """log of 1 + u as sum_k (-1)^(k+1) u^k / k, by repeated products."""
    n = x.truncation
    u = x - GradedElement.one(n)
    total, term = GradedElement.zero(n), GradedElement.one(n)
    for k in range(1, n + 1):
        term = term * u
        total = total + Fraction((-1) ** (k + 1), k) * term
    return total


def random_ring_value(rng):
    """0, a Fraction, or an exact value of one or two monomials in
    I, EulerGamma, pi and zeta(3)."""
    kind = rng.randrange(4)
    if kind == 0:
        return 0
    c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    if kind == 1:
        return c
    return _exact(
        (tuple(rng.randint(0, 2) for _ in range(4)), c * rng.randint(1, 3))
        for _ in range(kind - 1)
    )


@pytest.mark.parametrize("kind", ("fraction", "exact"))
def test_exp_log_match_repeated_products(kind):
    rng = random.Random(20261019)
    for n in range(9):
        for _ in range(3):
            if kind == "fraction":
                higher = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
            else:
                higher = [random_ring_value(rng) for _ in range(n)]
            assert GradedElement([0] + higher, n).exp() == exp_by_powers(GradedElement([0] + higher, n))
            assert GradedElement([1] + higher, n).log() == log_by_powers(GradedElement([1] + higher, n))


# --- Chern data ----------------------------------------------------------


def test_total_chern_projective_spaces():
    assert total_chern(ManifoldModel(3)).coefficients == [1, 4, 6, 4]
    assert total_chern(ManifoldModel(2)).coefficients == [1, 3, 3]


def test_total_chern_hypersurfaces_against_division_oracle():
    # quintic threefold: (1+H)^5 / (1+5H) truncated at degree 3
    binom5 = [Fraction(math.comb(5, k)) for k in range(4)]
    expect = poly_div(binom5, [1, 5], 3)
    got = total_chern(ManifoldModel(4, 5)).coefficients
    assert [Fraction(c) for c in got] == expect
    assert expect == [1, 0, 10, -40]  # frozen from the oracle
    # cubic curve has trivial tangent Chern class
    assert total_chern(ManifoldModel(2, 3)).coefficients == [1, 0]


def test_newton_identities_against_symbolic_roots():
    # brute-force expansion over four symbolic roots
    xs = sympy.symbols("x1:5")
    n = 4
    es = [
        sympy.expand(
            sum(sympy.prod(c) for c in sympy.utilities.iterables.subsets(xs, k))
        )
        for k in range(1, n + 1)
    ]
    c = GradedElement([1] + es, n)
    ch = chern_character(c, n)
    for k in range(1, n + 1):
        pk_direct = sympy.expand(sum(x**k for x in xs))
        pk_ours = sympy.expand(ch[k].coefficients[k] * math.factorial(k))
        assert sympy.expand(pk_direct - pk_ours) == 0


def test_chern_character_tangent_pn_oracle():
    # ch(T P^n) = (n+1) e^H - 1
    for n in (2, 3):
        c = total_chern(ManifoldModel(n))
        ch = chern_character(c, n)
        expect = [(n + 1) * x for x in exp_h_series(1, n)]
        expect[0] -= 1
        for k in range(n + 1):
            assert Fraction(ch[k].coefficients[k]) == expect[k]


def test_chern_character_quintic_oracle():
    # restriction of the Euler sequence gives ch = 5 e^H - 1 - e^{5H}
    expect = [
        5 * a - b for a, b in zip(exp_h_series(1, 3), exp_h_series(5, 3))
    ]
    expect[0] -= 1
    ch = chern_character(total_chern(ManifoldModel(4, 5)), 3)
    for k in range(4):
        assert Fraction(ch[k].coefficients[k]) == expect[k]
    # frozen: ch_2 = -10 H^2, ch_3 = -20 H^3
    assert ch[2].coefficients[2] == -10
    assert ch[3].coefficients[3] == -20


def test_chern_character_needs_unit_constant_term():
    # the power sums are read off log c, which needs c_0 = 1
    for c0 in (0, 2, Fraction(1, 2)):
        with pytest.raises(ValueError, match="constant term 1"):
            chern_character(GradedElement([c0, 3, 3], 2), 2)


def test_chern_character_trivial_bundle():
    ch = chern_character(GradedElement.one(3), 7)
    assert ch[0].coefficients == [7, 0, 0, 0]
    for k in range(1, 4):
        assert all(c == 0 for c in ch[k].coefficients)


# --- Gamma class ---------------------------------------------------------


def test_gamma_class_p1():
    g = gamma_class(ManifoldModel(1))
    assert g.coefficients[0] == 1
    assert sympy.simplify(to_sympy(g.coefficients[1]) + 2 * sympy.EulerGamma) == 0


def test_gamma_class_p2_hand_oracle():
    # exp(-3 gamma H + (3 zeta(2)/2) H^2) expanded by hand
    g = gamma_class(ManifoldModel(2))
    gam = sympy.EulerGamma
    assert g.coefficients[0] == 1
    assert sympy.simplify(to_sympy(g.coefficients[1]) + 3 * gam) == 0
    expect2 = sympy.Rational(9, 2) * gam**2 + sympy.Rational(3, 2) * sympy.zeta(2)
    assert sympy.simplify(to_sympy(g.coefficients[2]) - expect2) == 0


def test_gamma_class_cubic_curve_trivial():
    g = gamma_class(ManifoldModel(2, 3))
    assert g.coefficients == [1, 0]


def test_gamma_class_quintic():
    # c_1 = 0 so the class is exp(-zeta(2) c_2 - zeta(3) c_3)
    g = gamma_class(ManifoldModel(4, 5))
    assert g.coefficients[0] == 1
    assert g.coefficients[1] == 0
    assert sympy.simplify(to_sympy(g.coefficients[2]) + 10 * sympy.zeta(2)) == 0
    assert sympy.simplify(to_sympy(g.coefficients[3]) - 40 * sympy.zeta(3)) == 0


# --- integration ---------------------------------------------------------


@functools.cache
def gamma_of_scaled_h(scale, n):
    """Gamma(1 + scale H) truncated at H^n, as exp(sum_k a_k scale^k H^k)
    by repeated products."""
    a = log_gamma_series_exact(n)
    return exp_by_powers(GradedElement([0] + [ak * scale ** (k + 1) for k, ak in enumerate(a)], n))


def test_gamma_class_is_the_gamma_quotient():
    # Gamma(1+H)^(N+1) on P^N, divided by Gamma(1+dH) on a degree-d hypersurface
    for big_n in range(1, 9):
        for d in [None] + list(range(1, big_n + 3)):
            if d is not None and big_n < 2:
                continue
            m = ManifoldModel(big_n, d)
            expect = gamma_of_scaled_h(1, m.dim) ** (big_n + 1)
            if d is not None:
                expect = expect * gamma_of_scaled_h(d, m.dim).inverse()
            assert gamma_class(m) == expect


def test_integrate_fundamental_classes():
    p3 = ManifoldModel(3)
    assert integrate(p3, GradedElement.hyperplane(3) ** 3) == 1
    cubic = ManifoldModel(2, 3)
    assert integrate(cubic, 3 * GradedElement.hyperplane(1)) == 9
    quintic = ManifoldModel(4, 5)
    c2 = total_chern(quintic).degree_part(2)
    omega = GradedElement.hyperplane(3)
    assert integrate(quintic, c2 * omega) == 50


def test_integrate_shape_check():
    with pytest.raises(ValueError):
        integrate(ManifoldModel(3), GradedElement.one(2))


# --- period polynomials --------------------------------------------------


def test_period_polynomial_p1():
    poly = gamma_period_polynomial(ManifoldModel(1), 2)
    assert len(poly.coefficients) == 2
    c = [to_sympy(x) for x in poly.coefficients]
    assert sympy.simplify(c[1] - 2) == 0
    assert sympy.simplify(c[0] + 2 * sympy.EulerGamma) == 0


def test_period_polynomial_quintic_exact():
    poly = gamma_period_polynomial(ManifoldModel(4, 5), 1)
    c = [to_sympy(x) for x in poly.coefficients]
    assert sympy.simplify(c[3] - sympy.Rational(5, 6)) == 0
    assert sympy.simplify(c[2]) == 0
    assert sympy.simplify(c[1] / sympy.zeta(2) + 50) == 0
    assert sympy.simplify(c[0] / sympy.zeta(3) - 200) == 0


def test_period_polynomial_cubic_and_k3():
    cubic = gamma_period_polynomial(ManifoldModel(2, 3), 3)
    assert cubic.coefficients[0] == 0
    assert sympy.simplify(to_sympy(cubic.coefficients[1]) - 9) == 0
    k3 = gamma_period_polynomial(ManifoldModel(3, 4), 4)
    c = [to_sympy(x) for x in k3.coefficients]
    assert sympy.simplify(c[2] - 32) == 0
    assert sympy.simplify(c[1]) == 0
    assert sympy.simplify(c[0] / sympy.zeta(2) + 24) == 0
    # exactly 32 L^2 - 24 zeta(2) = 32 L^2 - 4 pi^2, with no simplification
    assert k3.coefficients == [_exact([((0, 0, 2), -4)]), 0, 32]
    assert repr(k3) == "PeriodPolynomial(32*L**2 - 4*pi**2)"


def cy3_formula_oracle(m, omega_multiple):
    """Closed form for a Calabi-Yau threefold:

    (int omega^3/3!) L^3 - zeta(2) (int omega c_2) L - zeta(3) int c_3.
    Chern numbers computed through the integration routine.
    """
    h = GradedElement.hyperplane(m.dim)
    omega = omega_multiple * h
    c = total_chern(m)
    vol = sympy.Rational(Fraction(integrate(m, omega**3)), 6)
    c2w = integrate(m, c.degree_part(2) * omega)
    c3 = integrate(m, c.degree_part(3))
    return [
        -sympy.zeta(3) * sympy.Integer(c3),
        -sympy.zeta(2) * sympy.sympify(Fraction(c2w)),
        sympy.Integer(0),
        vol,
    ]


def test_period_polynomial_cy3_formula_other_polarizations():
    # same threefold, three further polarization multiples
    m = ManifoldModel(4, 5)
    assert m.is_calabi_yau
    for mult in (2, 3, 4):
        poly = gamma_period_polynomial(m, mult)
        expect = cy3_formula_oracle(m, mult)
        for a, b in zip(poly.coefficients, expect):
            assert sympy.simplify(to_sympy(a) - b) == 0


def test_period_polynomial_top_coefficient_is_symplectic_volume():
    for m, mult in [
        (ManifoldModel(2), 3),
        (ManifoldModel(3), 4),
        (ManifoldModel(3, 4), 4),
    ]:
        poly = gamma_period_polynomial(m, mult)
        h = GradedElement.hyperplane(m.dim)
        vol = Fraction(integrate(m, (mult * h) ** m.dim), math.factorial(m.dim))
        assert sympy.simplify(to_sympy(poly.coefficients[m.dim]) - sympy.sympify(vol)) == 0


def test_period_polynomial_bundle_pairing():
    # pairing with V of ch = 1 + H on P^1 adds a (2 pi i) L term
    m = ManifoldModel(1)
    ch_v = [GradedElement.one(1), GradedElement.hyperplane(1)]
    poly = gamma_period_polynomial(m, 2, ch_v)
    plain = gamma_period_polynomial(m, 2)
    two_pi_i = 2 * sympy.pi * sympy.I
    c, p = [to_sympy(x) for x in poly.coefficients], [to_sympy(x) for x in plain.coefficients]
    assert sympy.simplify(c[0] - p[0] - two_pi_i) == 0
    assert sympy.simplify(c[1] - p[1]) == 0


# every Gamma polynomial the benchmark builds: P^1..P^8 and the Calabi-Yau
# hypersurfaces of P^2..P^8, each with omega = (n+1) H
BENCH_MODELS = [ManifoldModel(n) for n in range(1, 9)] + [
    ManifoldModel(n, n + 1) for n in range(2, 9)
]


@pytest.mark.parametrize("m", BENCH_MODELS, ids=repr)
def test_gamma_polynomials_equal_series_reference(m):
    poly = gamma_period_polynomial(m, m.ambient_dim + 1)
    reference = gamma_series_reference(m, m.ambient_dim + 1)
    assert sympy.expand(poly_to_sympy(poly) - reference) == 0
    # the printed form keeps sympy's names and parses back to the same value
    assert sympy.expand(sympy.sympify(poly.symbolic()) - reference) == 0


# the printed Gamma polynomials of BENCH_MODELS, frozen from the
# Newton-identity construction of the power sums and exp by repeated
# products; a rebuilt construction must print them character for character
BENCH_GAMMA_TEXT = [
    "2*L - 2*EulerGamma",
    "9*L**2/2 - 9*EulerGamma*L + 9*EulerGamma**2/2 + pi**2/4",
    (
        "32*L**3/3 - 32*EulerGamma*L**2 + 32*EulerGamma**2*L + 4*pi**2*L/3 - "
        "32*EulerGamma**3/3 - 4*EulerGamma*pi**2/3 - 4*zeta(3)/3"
    ),
    (
        "625*L**4/24 - 625*EulerGamma*L**3/6 + 625*EulerGamma**2*L**2/4 + 125*pi**2*L**2/24 -"
        " 625*EulerGamma**3*L/6 - 125*EulerGamma*pi**2*L/12 - 25*zeta(3)*L/3 + "
        "625*EulerGamma**4/24 + 125*EulerGamma**2*pi**2/24 + 25*EulerGamma*zeta(3)/3 + "
        "29*pi**4/288"
    ),
    (
        "324*L**5/5 - 324*EulerGamma*L**4 + 648*EulerGamma**2*L**3 + 18*pi**2*L**3 - "
        "648*EulerGamma**3*L**2 - 54*EulerGamma*pi**2*L**2 - 36*zeta(3)*L**2 + "
        "324*EulerGamma**4*L + 54*EulerGamma**2*pi**2*L + 72*EulerGamma*zeta(3)*L + "
        "17*pi**4*L/20 - 324*EulerGamma**5/5 - 18*EulerGamma**3*pi**2 - "
        "36*EulerGamma**2*zeta(3) - 17*EulerGamma*pi**4/20 - pi**2*zeta(3) - 6*zeta(5)/5"
    ),
    (
        "117649*L**6/720 - 117649*EulerGamma*L**5/120 + 117649*EulerGamma**2*L**4/48 + "
        "16807*pi**2*L**4/288 - 117649*EulerGamma**3*L**3/36 - 16807*EulerGamma*pi**2*L**3/72"
        " - 2401*zeta(3)*L**3/18 + 117649*EulerGamma**4*L**2/48 + "
        "16807*EulerGamma**2*pi**2*L**2/48 + 2401*EulerGamma*zeta(3)*L**2/6 + "
        "4459*pi**4*L**2/960 - 117649*EulerGamma**5*L/120 - 16807*EulerGamma**3*pi**2*L/72 - "
        "2401*EulerGamma**2*zeta(3)*L/6 - 4459*EulerGamma*pi**4*L/480 - "
        "343*pi**2*zeta(3)*L/36 - 49*zeta(5)*L/5 + 117649*EulerGamma**6/720 + "
        "16807*EulerGamma**4*pi**2/288 + 2401*EulerGamma**3*zeta(3)/18 + "
        "4459*EulerGamma**2*pi**4/960 + 343*EulerGamma*pi**2*zeta(3)/36 + "
        "49*EulerGamma*zeta(5)/5 + 263*pi**6/5760 + 49*zeta(3)**2/18"
    ),
    (
        "131072*L**7/315 - 131072*EulerGamma*L**6/45 + 131072*EulerGamma**2*L**5/15 + "
        "8192*pi**2*L**5/45 - 131072*EulerGamma**3*L**4/9 - 8192*EulerGamma*pi**2*L**4/9 - "
        "4096*zeta(3)*L**4/9 + 131072*EulerGamma**4*L**3/9 + 16384*EulerGamma**2*pi**2*L**3/9"
        " + 16384*EulerGamma*zeta(3)*L**3/9 + 2816*pi**4*L**3/135 - "
        "131072*EulerGamma**5*L**2/15 - 16384*EulerGamma**3*pi**2*L**2/9 - "
        "8192*EulerGamma**2*zeta(3)*L**2/3 - 2816*EulerGamma*pi**4*L**2/45 - "
        "512*pi**2*zeta(3)*L**2/9 - 256*zeta(5)*L**2/5 + 131072*EulerGamma**6*L/45 + "
        "8192*EulerGamma**4*pi**2*L/9 + 16384*EulerGamma**3*zeta(3)*L/9 + "
        "2816*EulerGamma**2*pi**4*L/45 + 1024*EulerGamma*pi**2*zeta(3)*L/9 + "
        "512*EulerGamma*zeta(5)*L/5 + 496*pi**6*L/945 + 256*zeta(3)**2*L/9 - "
        "131072*EulerGamma**7/315 - 8192*EulerGamma**5*pi**2/45 - "
        "4096*EulerGamma**4*zeta(3)/9 - 2816*EulerGamma**3*pi**4/135 - "
        "512*EulerGamma**2*pi**2*zeta(3)/9 - 256*EulerGamma**2*zeta(5)/5 - "
        "496*EulerGamma*pi**6/945 - 256*EulerGamma*zeta(3)**2/9 - 88*pi**4*zeta(3)/135 - "
        "16*pi**2*zeta(5)/15 - 8*zeta(7)/7"
    ),
    (
        "4782969*L**8/4480 - 4782969*EulerGamma*L**7/560 + 4782969*EulerGamma**2*L**6/160 + "
        "177147*pi**2*L**6/320 - 4782969*EulerGamma**3*L**5/80 - "
        "531441*EulerGamma*pi**2*L**5/160 - 59049*zeta(3)*L**5/40 + "
        "4782969*EulerGamma**4*L**4/64 + 531441*EulerGamma**2*pi**2*L**4/64 + "
        "59049*EulerGamma*zeta(3)*L**4/8 + 107163*pi**4*L**4/1280 - "
        "4782969*EulerGamma**5*L**3/80 - 177147*EulerGamma**3*pi**2*L**3/16 - "
        "59049*EulerGamma**2*zeta(3)*L**3/4 - 107163*EulerGamma*pi**4*L**3/320 - "
        "2187*pi**2*zeta(3)*L**3/8 - 2187*zeta(5)*L**3/10 + 4782969*EulerGamma**6*L**2/160 + "
        "531441*EulerGamma**4*pi**2*L**2/64 + 59049*EulerGamma**3*zeta(3)*L**2/4 + "
        "321489*EulerGamma**2*pi**4*L**2/640 + 6561*EulerGamma*pi**2*zeta(3)*L**2/8 + "
        "6561*EulerGamma*zeta(5)*L**2/10 + 6579*pi**6*L**2/1792 + 729*zeta(3)**2*L**2/4 - "
        "4782969*EulerGamma**7*L/560 - 531441*EulerGamma**5*pi**2*L/160 - "
        "59049*EulerGamma**4*zeta(3)*L/8 - 107163*EulerGamma**3*pi**4*L/320 - "
        "6561*EulerGamma**2*pi**2*zeta(3)*L/8 - 6561*EulerGamma**2*zeta(5)*L/10 - "
        "6579*EulerGamma*pi**6*L/896 - 729*EulerGamma*zeta(3)**2*L/2 - "
        "1323*pi**4*zeta(3)*L/160 - 243*pi**2*zeta(5)*L/20 - 81*zeta(7)*L/7 + "
        "4782969*EulerGamma**8/4480 + 177147*EulerGamma**6*pi**2/320 + "
        "59049*EulerGamma**5*zeta(3)/40 + 107163*EulerGamma**4*pi**4/1280 + "
        "2187*EulerGamma**3*pi**2*zeta(3)/8 + 2187*EulerGamma**3*zeta(5)/10 + "
        "6579*EulerGamma**2*pi**6/1792 + 729*EulerGamma**2*zeta(3)**2/4 + "
        "1323*EulerGamma*pi**4*zeta(3)/160 + 243*EulerGamma*pi**2*zeta(5)/20 + "
        "81*EulerGamma*zeta(7)/7 + 23479*pi**8/1075200 + 27*pi**2*zeta(3)**2/8 + "
        "27*zeta(3)*zeta(5)/5"
    ),
    "9*L",
    "32*L**2 - 4*pi**2",
    "625*L**3/6 - 125*pi**2*L/3 + 200*zeta(3)",
    "324*L**4 - 270*pi**2*L**2 + 2520*zeta(3)*L - 11*pi**4/4",
    (
        "117649*L**5/120 - 16807*pi**2*L**3/12 + 19208*zeta(3)*L**2 - 1029*pi**4*L/40 - "
        "2744*pi**2*zeta(3) + 23520*zeta(5)"
    ),
    (
        "131072*L**6/45 - 57344*pi**2*L**4/9 + 114688*zeta(3)*L**3 - 1792*pi**4*L**2/15 - "
        "50176*pi**2*zeta(3)*L + 419328*zeta(5)*L - 3664*pi**6/45 + 112896*zeta(3)**2"
    ),
    (
        "4782969*L**7/560 - 531441*pi**2*L**5/20 + 590490*zeta(3)*L**4 - 2187*pi**4*L**3/10 -"
        " 524880*pi**2*zeta(3)*L**2 + 4304016*zeta(5)*L**2 - 58194*pi**6*L/35 + "
        "2332800*zeta(3)**2*L - 432*pi**4*zeta(3) - 637632*pi**2*zeta(5) + 6149520*zeta(7)"
    ),
]


def test_gamma_polynomials_print_as_frozen():
    for m, text in zip(BENCH_MODELS, BENCH_GAMMA_TEXT, strict=True):
        assert repr(gamma_period_polynomial(m, m.ambient_dim + 1)) == f"PeriodPolynomial({text})"


@pytest.mark.parametrize("m", [ManifoldModel(1), ManifoldModel(3), ManifoldModel(3, 4)], ids=repr)
def test_bundle_pairing_equals_series_reference(m):
    # ch(O(k)) = exp(k H), paired through (2 pi i)^deg
    n = m.dim
    for k in (1, -2):
        ch_v = [
            GradedElement([0] * j + [Fraction(k**j, math.factorial(j))], n)
            for j in range(n + 1)
        ]
        poly = gamma_period_polynomial(m, 3, ch_v)
        reference = gamma_series_reference(m, 3, line_degree=k)
        assert sympy.expand(poly_to_sympy(poly) - reference) == 0


def test_omega_multiple_must_be_rational():
    m = ManifoldModel(2)
    assert gamma_period_polynomial(m, Fraction(3, 2)).coefficients[2] == Fraction(9, 8)
    for bad in (1.5, True, sympy.Integer(3), "3"):
        with pytest.raises(TypeError):
            gamma_period_polynomial(m, bad)


def test_inverse_needs_rational_constant_term():
    gamma = log_gamma_series_exact(1)[0]
    with pytest.raises(TypeError):
        GradedElement([gamma, 1], 1).inverse()
    with pytest.raises(ValueError):
        GradedElement([0, 1], 1).inverse()


def test_period_polynomial_bundle_shape_check():
    with pytest.raises(ValueError):
        gamma_period_polynomial(ManifoldModel(1), 2, [GradedElement.one(3)])


def test_period_polynomial_numeric_eval():
    poly = gamma_period_polynomial(ManifoldModel(1), 2)
    val = poly.evaluate_at_t(0.1)
    expect = 2 * math.log(10) - 2 * EULER_GAMMA
    assert val.real == pytest.approx(expect, abs=1e-12)
    assert val.imag == 0.0


def test_period_polynomial_json_roundtrip():
    d = gamma_period_polynomial(ManifoldModel(4, 5), 1).to_json_dict()
    assert d["coeffs"][3] == pytest.approx(5 / 6, abs=1e-15)
    assert "zeta(3)" in d["symbolic"]


# --- the exact ring against sympy ----------------------------------------

RING = settings(derandomize=True, max_examples=50, deadline=None, database=None)
SYMPY_GENERATORS = (sympy.I, sympy.EulerGamma, sympy.pi, sympy.zeta(3), sympy.zeta(5))
small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=6)
# (monomial, coefficient) pairs over I, EulerGamma, pi, zeta(3), zeta(5); the
# exponent of I runs to 3 and exponents may end in zeros, so not canonical
ring_terms = st.lists(
    st.tuples(st.lists(st.integers(0, 3), max_size=5).map(tuple), small_fractions),
    max_size=4,
)


def terms_to_sympy(terms):
    return sympy.expand(sum(
        (sympy.Rational(c.numerator, c.denominator)
         * sympy.Mul(*(g**e for g, e in zip(SYMPY_GENERATORS, m)))
         for m, c in terms),
        sympy.Integer(0),
    ))


def same(x, reference):
    return sympy.expand(to_sympy(x) - reference) == 0


@RING
@given(ring_terms, ring_terms, small_fractions)
def test_ring_arithmetic_matches_sympy(s, t, r):
    a, b = _exact(s), _exact(t)
    sa, sb = terms_to_sympy(s), terms_to_sympy(t)
    # construction folds I^2 = -1 and merges equal monomials
    assert same(a, sa) and same(b, sb)
    sr = sympy.Rational(r.numerator, r.denominator)
    for ours, reference in (
        (a + b, sa + sb), (a - b, sa - sb), (a * b, sa * sb), (-a, -sa),
        (a + r, sa + sr), (r - a, sr - sa), (a * r, sa * sr), (r * a, sr * sa),
        (a * 3, 3 * sa), (2 - a, 2 - sa),
    ):
        assert same(ours, reference)


@RING
@given(ring_terms, ring_terms)
def test_ring_equality_and_hash(s, t):
    a, b = _exact(s), _exact(t)
    assert (a == b) == (sympy.expand(terms_to_sympy(s) - terms_to_sympy(t)) == 0)
    for x, y in ((a + b, b + a), (a * b, b * a), ((a + b) - b, a), (a * (b + 1), a * b + a)):
        assert x == y and hash(x) == hash(y)


@RING
@given(ring_terms, small_fractions, small_fractions.filter(bool))
def test_rational_results_are_plain_rationals(s, r, q):
    a = _exact(s)
    i = _exact([((1,), 1)])
    assert i * i == -1 and i * i * i == -i
    # (r + q i)(r - q i) = r^2 + q^2, and a + r - a = r
    for x, expect in (((r + q * i) * (r - q * i), r * r + q * q), ((a + r) - a, r)):
        assert type(x) in (int, Fraction) and x == expect and hash(x) == hash(expect)
        assert x == sympy.Rational(expect.numerator, expect.denominator)
        assert sympy.Rational(expect.numerator, expect.denominator) == x
        if expect.denominator == 1:
            assert x == int(expect) and int(expect) == x


@RING
@given(
    st.integers(1, 3).flatmap(lambda n: st.lists(ring_terms, min_size=n, max_size=n)),
    small_fractions.filter(bool),
)
def test_graded_exp_log_inverse_match_sympy(higher, c0):
    # references are truncated power series in sympy: u = sum_k s_k H^k
    n = len(higher)
    coefficients = [_exact(t) for t in higher]
    u = [sympy.Integer(0)] + [terms_to_sympy(t) for t in higher]
    sc0 = sympy.Rational(c0.numerator, c0.denominator)
    powers = [[sympy.Integer(1)] + [sympy.Integer(0)] * n]  # u^k up to H^n
    for _ in range(n):
        powers.append(truncated_product(powers[-1], u, n))

    def check(element, weights):
        for j, c in enumerate(element.coefficients):
            assert same(c, sum(w * p[j] for w, p in zip(weights, powers)))

    check(GradedElement([0] + coefficients, n).exp(),
          [sympy.Rational(1, math.factorial(k)) for k in range(n + 1)])
    check(GradedElement([1] + coefficients, n).log(),
          [0] + [sympy.Rational((-1) ** (k + 1), k) for k in range(1, n + 1)])
    x = GradedElement([c0] + coefficients, n)
    # 1/(c0 + u) = sum_k (-1)^k u^k / c0^(k+1)
    check(x.inverse(), [(-1) ** k / sc0 ** (k + 1) for k in range(n + 1)])
    assert x * x.inverse() == GradedElement.one(n)


# --- model bookkeeping ---------------------------------------------------


def test_model_validation():
    with pytest.raises(UnsupportedDimensionError):
        ManifoldModel(0)
    # two points in P^1: the 0-dimensional Calabi-Yau, whose period
    # polynomial is its point count
    pair = ManifoldModel(1, 2)
    assert (pair.dim, pair.is_calabi_yau) == (0, True)
    assert gamma_period_polynomial(pair, 2).coefficients == [2]
    with pytest.raises(ValueError):
        ManifoldModel(3, 0)
    assert ManifoldModel(4, 5).dim == 3
    assert ManifoldModel(4, 5).is_calabi_yau
    assert not ManifoldModel(4).is_calabi_yau
    # the data are ints: no float reaches the exact layer, none is truncated,
    # and a bool is not a degree
    for ambient, degree in ((3, 4.5), (3, True), (3.7, None), (True, None), (3.0, 4)):
        with pytest.raises(TypeError):
            ManifoldModel(ambient, degree)
        with pytest.raises(TypeError):
            ManifoldModel.from_json_dict({"ambient": ambient, "degree": degree})
    assert ManifoldModel.from_json_dict(ManifoldModel(4, 5).to_json_dict()) == ManifoldModel(4, 5)


def test_model_json_rejects_unknown_keys():
    # a misspelt degree read as P^4, with no error
    for data in ({"ambient": 4, "degre": 5}, {"ambient": 4, "degree": 5, "kind": "quintic"}):
        with pytest.raises(ValueError, match="unknown ManifoldModel keys: \\['(degre|kind)'\\]"):
            ManifoldModel.from_json_dict(data)
    assert ManifoldModel.from_json_dict({"ambient": 4}) == ManifoldModel(4)

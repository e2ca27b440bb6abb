"""Tests for the characteristic-class module.

Expected values are either trivial identities, cross-checked against the
independent oracles implemented at the top of this file, or frozen after
an oracle run.
"""

import math
import random
from fractions import Fraction

import pytest
import sympy

from gammatrop.cohomology import (
    GradedElement,
    ManifoldModel,
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


# --- zeta and log-Gamma coefficients -------------------------------------


def test_zeta_even_closed_forms():
    assert zeta_value(2) == pytest.approx(math.pi**2 / 6, abs=1e-14)
    assert zeta_value(4) == pytest.approx(math.pi**4 / 90, abs=1e-14)


def test_zeta_odd_against_euler_maclaurin_oracle():
    assert zeta_value(3) == pytest.approx(zeta_em_oracle(3), abs=1e-12)
    assert zeta_value(5) == pytest.approx(zeta_em_oracle(5), abs=1e-12)


def test_zeta_rejects_small_arguments():
    for bad in (1, 0, -2):
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


def test_log_gamma_series_exact_values():
    a = log_gamma_series_exact(3)
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


def test_chern_character_trivial_bundle():
    ch = chern_character(GradedElement.one(3), 7)
    assert ch[0].coefficients == [7, 0, 0, 0]
    for k in range(1, 4):
        assert all(c == 0 for c in ch[k].coefficients)


# --- Gamma class ---------------------------------------------------------


def test_gamma_class_p1():
    g = gamma_class(ManifoldModel(1))
    assert g.coefficients[0] == 1
    assert sympy.simplify(g.coefficients[1] + 2 * sympy.EulerGamma) == 0


def test_gamma_class_p2_hand_oracle():
    # exp(-3 gamma H + (3 zeta(2)/2) H^2) expanded by hand
    g = gamma_class(ManifoldModel(2))
    gam = sympy.EulerGamma
    assert g.coefficients[0] == 1
    assert sympy.simplify(g.coefficients[1] + 3 * gam) == 0
    expect2 = sympy.Rational(9, 2) * gam**2 + sympy.Rational(3, 2) * sympy.zeta(2)
    assert sympy.simplify(g.coefficients[2] - expect2) == 0


def test_gamma_class_cubic_curve_trivial():
    g = gamma_class(ManifoldModel(2, 3))
    assert g.coefficients == [1, 0]


def test_gamma_class_quintic():
    # c_1 = 0 so the class is exp(-zeta(2) c_2 - zeta(3) c_3)
    g = gamma_class(ManifoldModel(4, 5))
    assert g.coefficients[0] == 1
    assert g.coefficients[1] == 0
    assert sympy.simplify(g.coefficients[2] + 10 * sympy.zeta(2)) == 0
    assert sympy.simplify(g.coefficients[3] - 40 * sympy.zeta(3)) == 0


# --- integration ---------------------------------------------------------


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
    assert sympy.simplify(poly.coefficients[1] - 2) == 0
    assert sympy.simplify(poly.coefficients[0] + 2 * sympy.EulerGamma) == 0


def test_period_polynomial_quintic_exact():
    poly = gamma_period_polynomial(ManifoldModel(4, 5), 1)
    c = poly.coefficients
    assert sympy.simplify(c[3] - sympy.Rational(5, 6)) == 0
    assert sympy.simplify(c[2]) == 0
    assert sympy.simplify(c[1] / sympy.zeta(2) + 50) == 0
    assert sympy.simplify(c[0] / sympy.zeta(3) - 200) == 0


def test_period_polynomial_cubic_and_k3():
    cubic = gamma_period_polynomial(ManifoldModel(2, 3), 3)
    assert cubic.coefficients[0] == 0
    assert sympy.simplify(cubic.coefficients[1] - 9) == 0
    k3 = gamma_period_polynomial(ManifoldModel(3, 4), 4)
    assert sympy.simplify(k3.coefficients[2] - 32) == 0
    assert sympy.simplify(k3.coefficients[1]) == 0
    assert sympy.simplify(k3.coefficients[0] / sympy.zeta(2) + 24) == 0


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
            assert sympy.simplify(a - b) == 0


def test_period_polynomial_top_coefficient_is_symplectic_volume():
    for m, mult in [
        (ManifoldModel(2), 3),
        (ManifoldModel(3), 4),
        (ManifoldModel(3, 4), 4),
    ]:
        poly = gamma_period_polynomial(m, mult)
        h = GradedElement.hyperplane(m.dim)
        vol = Fraction(integrate(m, (mult * h) ** m.dim), math.factorial(m.dim))
        assert sympy.simplify(poly.coefficients[m.dim] - sympy.sympify(vol)) == 0


def test_period_polynomial_bundle_pairing():
    # pairing with V of ch = 1 + H on P^1 adds a (2 pi i) L term
    m = ManifoldModel(1)
    ch_v = [GradedElement.one(1), GradedElement.hyperplane(1)]
    poly = gamma_period_polynomial(m, 2, ch_v)
    plain = gamma_period_polynomial(m, 2)
    two_pi_i = 2 * sympy.pi * sympy.I
    assert sympy.simplify(poly.coefficients[0] - plain.coefficients[0] - two_pi_i) == 0
    assert sympy.simplify(poly.coefficients[1] - plain.coefficients[1]) == 0


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


# --- model bookkeeping ---------------------------------------------------


def test_model_validation():
    with pytest.raises(UnsupportedDimensionError):
        ManifoldModel(0)
    with pytest.raises(UnsupportedDimensionError):
        ManifoldModel(1, 2)
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

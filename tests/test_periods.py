"""Tests for period integrals, error integrals, and fiber samples."""

import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import gammatrop.periods.k3 as k3
from gammatrop.errors import (
    NonConvergenceError,
    SingularFiberError,
    StructureError,
    UnsupportedDimensionError,
)
from gammatrop.periods import (
    ELLIPTIC_T_MAX,
    K3_T_MAX,
    MirrorFamily,
    PeriodSample,
    elliptic_oval_points,
    elliptic_period,
    error_integral_dim1,
    error_integral_dim2_a,
    error_integral_dim2_b,
    exp_period_orthant,
    fano_gamma_prediction,
    fano_prediction_polynomial,
    k3_period,
    local_fiber_sample,
    local_model_polytope_area,
    local_model_region_period,
    pants_section_integral,
)
from gammatrop.quadrature import QuadratureConfig, fit_asymptotic, integrate_1d
from gammatrop.tropical import compact_chamber, edge_singularities, tropicalize

EULER_GAMMA = 0.5772156649015328606
ZETA2 = math.pi**2 / 6
ZETA3 = 1.2020569031595942854


def bessel_k0_oracle(x: float) -> float:
    """Series K0(x) = -(log(x/2)+gamma) I0(x) + sum (x^2/4)^k/(k!)^2 H_k."""
    q = x * x / 4.0
    i0 = 1.0
    term = 1.0
    correction = 0.0
    harmonic = 0.0
    for k in range(1, 60):
        term *= q / (k * k)
        harmonic += 1.0 / k
        i0 += term
        correction += term * harmonic
        if term < 1e-18:
            break
    return -(math.log(x / 2.0) + EULER_GAMMA) * i0 + correction


def eta3_oracle() -> float:
    """Alternating zeta eta(3) = sum (-1)^(k+1)/k^3 by direct summation plus
    a Boole (Euler) summation tail correction.

    The terms k < n = 400 are summed in pairs; the dropped tail
    sum_{j>=0} (-1)^j f(m+j), with f(x) = x^-3 and m = n+1, is about
    f(m)/2 = 7.8e-9 and is added as f(m)/2 - f'(m)/4 + f'''(m)/48.
    The first omitted term, -f^(5)(m)/480 = 5.25/m^8, bounds the truncation
    error by 1e-20, far below double-precision rounding. Terms are added
    smallest first, tail included, so the rounding error stays near 1e-17.
    """
    n = 400
    m = float(n + 1)
    # f(m)/2 - f'(m)/4 + f'''(m)/48 with f' = -3 m^-4, f''' = -60 m^-6
    total = 0.5 / m**3 + 0.75 / m**4 - 1.25 / m**6
    for k in range(n - 1, 0, -2):
        total += 1.0 / k**3 - 1.0 / (k + 1) ** 3
    return total


def pants_antiderivative(x: float, t: float) -> float:
    big_l = -math.log(t)
    return big_l * x + math.log1p(math.exp(-big_l * x))


TRIANGLE = ((-1.0, -1.0), (-1.0, 2.0), (2.0, -1.0))


def triangle_boundary_distance(p: tuple[float, float]) -> float:
    best = math.inf
    for i in range(3):
        ax, ay = TRIANGLE[i]
        bx, by = TRIANGLE[(i + 1) % 3]
        vx, vy = bx - ax, by - ay
        s = ((p[0] - ax) * vx + (p[1] - ay) * vy) / (vx * vx + vy * vy)
        s = max(0.0, min(1.0, s))
        best = min(best, math.hypot(p[0] - (ax + s * vx), p[1] - (ay + s * vy)))
    return best


def test_period_sample_validation():
    s = PeriodSample(t=0.01, value=1.0, error_estimate=0.0, evaluations=1, parametrization="x")
    assert abs(s.big_l - math.log(100.0)) < 1e-15
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            PeriodSample(t=bad, value=1.0, error_estimate=0.0, evaluations=1, parametrization="x")


def test_mirror_family_validation():
    with pytest.raises(ValueError):
        MirrorFamily("no_such_kind")
    with pytest.raises(ValueError):
        MirrorFamily("projective_fano", {"n": 0})
    with pytest.raises(ValueError):
        MirrorFamily("local_model_2d", {"a1": 1.0, "a2": -1.0, "b": 1.0})
    MirrorFamily("projective_fano", {"n": 3})
    MirrorFamily("local_model_2d", {"a1": 1, "a2": 2, "b": 0.5})


def test_mirror_family_laurent():
    fam = MirrorFamily("elliptic_cubic").laurent_family()
    z = (0.7 + 0.2j, -1.3 + 0.4j)
    t = 0.01
    direct = t * z[0] + t * z[1] + t / (z[0] * z[1]) - 1.0
    assert abs(fam.evaluate(z, t) - direct) < 1e-12
    assert len(MirrorFamily("pair_of_pants").laurent_family().terms) == 3
    assert len(MirrorFamily("quartic_k3").laurent_family().terms) == 5
    with pytest.raises(ValueError):
        MirrorFamily("projective_fano", {"n": 1}).laurent_family()
    with pytest.raises(ValueError):
        MirrorFamily("local_model_2d", {"a1": 1, "a2": 1, "b": 1}).laurent_family()


def test_error_dim1_reduced_is_zeta2():
    assert abs(error_integral_dim1("reduced") - ZETA2) < 1e-10


def test_error_dim1_raw_t_independent():
    for t in (1e-1, 1e-2, 1e-4, 1e-6, 1e-8):
        assert abs(error_integral_dim1("raw", t) - ZETA2) < 1e-6


def test_error_dim2_a_reduced_is_zeta3():
    assert abs(error_integral_dim2_a("reduced") - ZETA3) < 1e-10
    assert abs(error_integral_dim2_a("raw", 1e-3) - ZETA3) < 1e-6


def test_eta3_oracle_matches_zeta3_identity():
    # eta(3) = (1 - 2^-2) zeta(3); guards the series oracle against truncation
    assert abs(eta3_oracle() - 0.75 * ZETA3) < 1e-15


def test_error_dim2_a_subpiece_alternating_series():
    # int_0^inf 2 s log(1+e^-s) ds = 2 eta(3) = (3/2) zeta(3)
    res = integrate_1d(lambda s: 2.0 * s * np.log1p(np.exp(-s)), (0.0, math.inf))
    assert res.converged
    assert abs(res.value - 2.0 * eta3_oracle()) < 1e-10
    assert abs(res.value - 1.5 * ZETA3) < 1e-10


def test_error_dim2_b_structure_on_transversal_rectangle():
    value, length, chi = error_integral_dim2_b(((-4, 2), (-2, 2)), 1e-4)
    assert length == Fraction(6)
    assert chi == 1
    big_l = math.log(10.0**4)
    assert abs(value - (6 * ZETA2 * big_l + ZETA3)) < 1e-3


def test_error_dim2_b_off_locus():
    v_coarse, length, chi = error_integral_dim2_b(((1, 2), (1, 2)), 1e-2)
    assert length == Fraction(0)
    assert chi == 0
    assert abs(v_coarse) < 0.2
    v_fine, _, _ = error_integral_dim2_b(((1, 2), (1, 2)), 1e-4)
    assert abs(v_fine) < abs(v_coarse)


def test_error_dim2_b_rejects_non_transversal():
    # corner (-2,-2) of the square sits on the diagonal ray
    with pytest.raises(ValueError):
        error_integral_dim2_b(2, 1e-3)
    # wall x = 0 passes through the trivalent vertex at the origin
    with pytest.raises(ValueError):
        error_integral_dim2_b(((-2, 0), (-2, 2)), 1e-3)
    # wall y1 = 0 contains a segment of the vertical ray
    with pytest.raises(ValueError):
        error_integral_dim2_b(((0, 2), (-2, 2)), 1e-3)
    with pytest.raises(ValueError):
        error_integral_dim2_b(((-4, 2), (-2, 2)), 0.0)


def test_exp_period_matches_bessel():
    for t in (0.1, 0.05, 0.01, 1e-3):
        sample = exp_period_orthant(1, t)
        assert sample.converged
        assert abs(sample.value - 2.0 * bessel_k0_oracle(2.0 * t)) < 1e-8


def test_exp_period_fano_fit_p1():
    grid = [10 ** (-6 + 3 * k / 7) for k in range(8)]
    samples = [(t, exp_period_orthant(1, t).value) for t in grid]
    fit = fit_asymptotic(samples, powers=(1, 0))
    assert abs(fit.coefficients[1] - 2.0) < 1e-3
    assert abs(fit.coefficients[0] - (-2.0 * EULER_GAMMA)) < 1e-3


def test_exp_period_matches_prediction_n2_n3():
    for n in (2, 3):
        sample = exp_period_orthant(n, 1e-3)
        assert sample.converged
        predicted = fano_gamma_prediction(n, 1e-3)
        assert abs(sample.value - predicted) < 1e-3 * abs(predicted)


def fano2_bessel_oracle(t: float) -> float:
    """P^2 orthant period as the 1d integral of 4 K0(2 t e^a) e^(-t e^(-2a))."""
    with mpmath.workdps(20):
        t = mpmath.mpf(t)
        value = mpmath.quad(
            lambda a: 4 * mpmath.besselk(0, 2 * t * mpmath.exp(a))
            * mpmath.exp(-t * mpmath.exp(-2 * a)),
            [-30, -10, -5, 0, 5, 12],
            method="gauss-legendre",
        )
    return float(value)


@pytest.mark.parametrize("t", (1e-2, 1e-4))
def test_exp_period_n2_error_estimate_bounds_error(t):
    sample = exp_period_orthant(2, t)
    assert sample.converged
    assert abs(sample.value - fano2_bessel_oracle(t)) <= sample.error_estimate


def test_exp_period_validation():
    with pytest.raises(ValueError):
        exp_period_orthant(0, 0.1)
    with pytest.raises(UnsupportedDimensionError):
        exp_period_orthant(4, 0.1)
    with pytest.raises(ValueError):
        exp_period_orthant(1, 0.0)
    with pytest.raises(ValueError):
        exp_period_orthant(1, 1.0)


def test_fano_prediction_polynomials():
    p1 = fano_prediction_polynomial(1)
    assert abs(p1.evaluate(0.0).real - (-2.0 * EULER_GAMMA)) < 1e-12
    assert abs((p1.evaluate(1.0) - p1.evaluate(0.0)).real - 2.0) < 1e-12

    def p2_oracle(big_l):
        return 4.5 * big_l**2 - 9.0 * EULER_GAMMA * big_l + 4.5 * EULER_GAMMA**2 + 1.5 * ZETA2

    def p3_oracle(big_l):
        g = EULER_GAMMA
        return (
            32.0 / 3.0 * big_l**3
            - 32.0 * g * big_l**2
            + (32.0 * g * g + 8.0 * ZETA2) * big_l
            - 32.0 / 3.0 * g**3
            - 8.0 * g * ZETA2
            - 4.0 / 3.0 * ZETA3
        )

    p2 = fano_prediction_polynomial(2)
    p3 = fano_prediction_polynomial(3)
    for big_l in (0.0, 1.0, 2.37):
        assert abs(p2.evaluate(big_l).real - p2_oracle(big_l)) < 1e-10
        assert abs(p3.evaluate(big_l).real - p3_oracle(big_l)) < 1e-10


def test_local_polytope_area():
    assert local_model_polytope_area(1, 1, 1) == Fraction(7, 2)
    assert local_model_polytope_area(Fraction(1, 2), 1, 2) == 2 * Fraction(3, 2) * 2 - 2
    assert abs(local_model_polytope_area(1.0, 1.0, 1.0) - 3.5) < 1e-15
    with pytest.raises(ValueError):
        local_model_polytope_area(0, 1, 1)


def test_local_region_period_prediction():
    t = 1e-3
    big_l = -math.log(t)
    value = local_model_region_period(1.0, 1.0, 1.0, t)
    assert abs(value - (big_l**2 * 3.5 - ZETA2)) < 5e-3


def test_local_region_period_residual_decay():
    ts = (1e-2, 1e-3, 1e-4)
    residuals = []
    for t in ts:
        big_l = -math.log(t)
        value = local_model_region_period(1.0, 1.0, 1.0, t)
        residuals.append(abs(value - (big_l**2 * 3.5 - ZETA2)))
    assert residuals[0] > residuals[1] > residuals[2]
    slope = math.log(residuals[0] / residuals[2]) / math.log(1e-2 / 1e-4)
    assert slope >= 0.9  # b = 1


def test_local_fiber_trivial_point():
    fs = local_fiber_sample(0.0, 1.0, (0.0, 0.0), 1e-2)
    x1, x2, y = fs.point
    assert abs(y - 1.0) < 1e-15
    assert abs(x1 * x2 - (1.0 + y)) < 1e-12
    assert abs(abs(x1) - math.sqrt(2.0)) < 1e-12
    assert abs(abs(x2) - math.sqrt(2.0)) < 1e-12


def test_local_fiber_singular_cases():
    with pytest.raises(SingularFiberError):
        local_fiber_sample(0.0, 1.0, (math.pi, 0.0), 1e-2)
    with pytest.raises(ValueError):
        local_fiber_sample(0.5, 1.0, (math.pi, 0.0), 1e-2)
    with pytest.raises(ValueError):
        local_fiber_sample(0.0, 0.0, (0.0, 0.0), 1e-2)
    with pytest.raises(ValueError):
        local_fiber_sample(0.0, 1.0, (0.0, 0.0), 1.5)


def test_local_fiber_defining_equation_random():
    rng = random.Random(20240817)
    for _ in range(50):
        lam = rng.uniform(-3.0, 3.0)
        r = math.exp(rng.uniform(-2.3, 2.3))
        theta = rng.uniform(-math.pi, math.pi)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        if abs(r - 1.0) < 1e-6 and abs(abs(theta) - math.pi) < 1e-6:
            continue
        fs = local_fiber_sample(lam, r, (theta, phi), 1e-3)
        x1, x2, y = fs.point
        assert abs(x1 * x2 - (1.0 + y)) <= 1e-10 * (1.0 + abs(y))
        assert abs((abs(x1) ** 2 - abs(x2) ** 2) - lam) <= 1e-9 * (1.0 + abs(lam))
        assert abs(abs(y) - r) <= 1e-12 * r


def test_local_fiber_regional_approximations():
    # fiber-wide estimate, valid when |y| stays away from 0: r = 1/t
    balanced_devs = []
    dominant_devs = []
    for t in (1e-2, 1e-4, 1e-6):
        fs = local_fiber_sample(1.5, 1.0 / t, (0.7, 0.3), t)
        balanced_devs.append(max(abs(d) for d in fs.balanced_deviation))
        fs2 = local_fiber_sample(1.5, 1.0, (0.7, 0.3), t)
        dominant_devs.append(abs(fs2.dominant_deviation_x1))
    assert balanced_devs[0] > balanced_devs[2]
    assert balanced_devs[2] < 1e-3
    assert dominant_devs[0] > dominant_devs[1] > dominant_devs[2]
    assert dominant_devs[2] < 0.05
    fs = local_fiber_sample(0.0, 2.0, (0.3, 0.0), 1e-3)
    assert fs.dominant_approx is None
    assert fs.dominant_deviation_x1 is None


def test_pants_quadrature_matches_antiderivative():
    for (x0, x1, t) in ((1.0, 2.0, 1e-2), (-1.5, 0.7, 1e-3), (0.25, 0.26, 0.5)):
        value = pants_section_integral(x0, x1, t)
        exact = pants_antiderivative(x1, t) - pants_antiderivative(x0, t)
        assert abs(value - exact) < 1e-10 * max(1.0, abs(exact))


def test_pants_interval_endpoints():
    assert pants_section_integral(1.3, 1.3, 1e-2) == 0.0
    with pytest.raises(ValueError):
        pants_section_integral(2.0, 1.0, 1e-2)
    with pytest.raises(ValueError):
        pants_section_integral(0.0, 1.0, 0.0)


def test_pants_reports_nonconvergence():
    cfg = QuadratureConfig(abs_tol=1e-15, rel_tol=0.0, max_subdivisions=1)
    with pytest.raises(NonConvergenceError, match="pants section integral"):
        pants_section_integral(-1.5, 0.7, 1e-3, cfg)


def test_pants_leading_slope():
    t = 1e-5
    big_l = -math.log(t)
    value = pants_section_integral(1.0, 2.0, t)
    assert abs(value / big_l - 1.0) < 1e-5


def test_elliptic_slope_nine_constant_zero():
    sample_a = elliptic_period(1e-4)
    sample_b = elliptic_period(1e-6)
    assert sample_a.converged and sample_b.converged
    slope = (sample_b.value - sample_a.value) / (sample_b.big_l - sample_a.big_l)
    assert abs(slope - 9.0) < 1e-6
    constant = sample_a.value - slope * sample_a.big_l
    assert abs(constant) < 1e-4
    assert abs(sample_b.value / sample_b.big_l - 9.0) < 1e-3


def elliptic_series(t: float) -> float:
    """Exact series of the cubic's period, the d < 20 terms in floats.

    period(t) = 9 sum_d (3d)!/(d!)^3 t^{3d} (L + H_d - H_{3d}), H_k the
    k-th harmonic number; the coefficients are exact integers.
    """
    big_l = -math.log(t)
    terms = []
    for d in range(20):
        coefficient = math.factorial(3 * d) // math.factorial(d) ** 3
        harmonic = math.fsum(1.0 / k for k in range(d + 1, 3 * d + 1))
        terms.append(coefficient * t ** (3 * d) * (big_l - harmonic))
    return 9.0 * math.fsum(terms)


ELLIPTIC_SERIES_T = (0.1, 0.05, 1e-2, 1e-4, 1e-6, 1e-8)


@pytest.mark.parametrize("t", ELLIPTIC_SERIES_T)
def test_elliptic_matches_exact_series(t):
    sample = elliptic_period(t)
    assert sample.converged
    gap = abs(sample.value - elliptic_series(t))
    assert gap <= sample.error_estimate
    assert gap <= 1e-11


@pytest.mark.parametrize("t", ELLIPTIC_SERIES_T)
def test_elliptic_evaluation_count(t):
    # both charts are analytic on closed intervals, so no panel bisects
    # towards a branch point
    assert elliptic_period(t).evaluations <= 1200


def test_elliptic_determinism_and_validation():
    first = elliptic_period(1e-3)
    second = elliptic_period(1e-3)
    assert first.value == second.value
    assert first.evaluations == second.evaluations
    with pytest.raises(ValueError):
        elliptic_period(ELLIPTIC_T_MAX * 2.0)
    with pytest.raises(ValueError):
        elliptic_period(0.0)


def test_elliptic_oval_approaches_triangle():
    distances = []
    for t in (1e-2, 1e-3, 1e-4):
        pts = elliptic_oval_points(t, 80)
        distances.append(max(triangle_boundary_distance(p) for p in pts))
    assert distances[0] > distances[1] > distances[2]
    assert distances[2] < 0.1


def test_k3_period_matches_asymptotic():
    t = 1e-2
    cfg = QuadratureConfig(abs_tol=1e-5, rel_tol=1e-5)
    sample = k3_period(t, cfg)
    assert sample.converged
    big_l = sample.big_l
    predicted = 32.0 * big_l**2 - 24.0 * ZETA2
    assert abs(sample.value - predicted) < 0.05


def test_k3_period_default_tolerance():
    sample = k3_period(1e-2)
    assert sample.converged
    predicted = 32.0 * sample.big_l**2 - 24.0 * ZETA2
    assert abs(sample.value - predicted) < 1e-3


def test_k3_no_crossing_names_the_direction(monkeypatch):
    # with the search radius inside the body no ray reaches Phi = 1
    monkeypatch.setattr(k3, "_RHO_MAX", 1e-3)
    with pytest.raises(StructureError, match=r"no crossing along direction \(\S+, \S+, \S+\)"):
        k3_period(1e-2)


def test_k3_validation():
    with pytest.raises(ValueError):
        k3_period(K3_T_MAX * 2.0)
    with pytest.raises(ValueError):
        k3_period(0.0)


def test_k3_edge_coordinate_change():
    # unimodular chart (a1,a2,a3) -> w = (-a1-a2, -a1-a2+a3, a2) sends the
    # edge neighborhood of the chamber onto the 2d local model: the two
    # facet forms vanishing on the edge pull back to 1-a1-a2 and
    # 1-a1-a2+a3, so the surface equation reads t^(a1+a2-1) = 1 + t^(a3)
    m_rows = (
        (Fraction(-1), Fraction(-1), Fraction(0)),
        (Fraction(-1), Fraction(-1), Fraction(1)),
        (Fraction(0), Fraction(1), Fraction(0)),
    )
    det = (
        m_rows[0][0] * (m_rows[1][1] * m_rows[2][2] - m_rows[1][2] * m_rows[2][1])
        - m_rows[0][1] * (m_rows[1][0] * m_rows[2][2] - m_rows[1][2] * m_rows[2][0])
        + m_rows[0][2] * (m_rows[1][0] * m_rows[2][1] - m_rows[1][1] * m_rows[2][0])
    )
    assert abs(det) == 1

    trop = tropicalize(MirrorFamily("quartic_k3").laurent_family())

    def pull_back(form):
        slope = tuple(
            sum(Fraction(form.slope[i]) * m_rows[i][j] for i in range(3))
            for j in range(3)
        )
        return slope, Fraction(form.offset)

    pulled = {pull_back(f) for f in trop.forms}
    f1 = ((Fraction(-1), Fraction(-1), Fraction(0)), Fraction(1))  # 1-a1-a2
    f2 = ((Fraction(-1), Fraction(-1), Fraction(1)), Fraction(1))  # 1-a1-a2+a3
    assert f1 in pulled
    assert f2 in pulled
    # f2 - f1 = a3 and -f1 = a1+a2-1: the displayed local relation
    assert tuple(b - a for a, b in zip(f1[0], f2[0])) == (0, 0, 1)
    assert f2[1] - f1[1] == 0

    point = (Fraction(1, 2), Fraction(1, 2), Fraction(0))
    w = tuple(
        sum(m_rows[i][j] * point[j] for j in range(3)) for i in range(3)
    )
    assert w == (Fraction(-1), Fraction(-1), Fraction(1, 2))
    chamber = compact_chamber(trop)
    assert w in edge_singularities(chamber)
    # the other two forms stay strictly positive near the edge point
    for slope, offset in pulled - {f1, f2, ((Fraction(0),) * 3, Fraction(0))}:
        value = offset + sum(s * p for s, p in zip(slope, point))
        assert value >= 1

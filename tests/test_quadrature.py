"""Tests for adaptive quadrature, 2d domains and asymptotic power fits."""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from gammatrop.errors import ConditioningError
from gammatrop.quadrature import (
    AsymptoticFit,
    ConvexPolygon,
    IntegrationResult,
    QuadratureConfig,
    Rectangle,
    Sphere,
    _eval_panel,
    fit_asymptotic,
    integrate_1d,
    integrate_2d,
)

EULER_GAMMA = 0.5772156649015328606


def bessel_k0(x: float) -> float:
    """Series oracle for the modified Bessel function K0, small x.

    K0(x) = -(log(x/2) + gamma) I0(x) + sum_k (x^2/4)^k / (k!)^2 * H_k.
    """
    q = x * x / 4.0
    i0 = 1.0
    term = 1.0
    correction = 0.0
    harmonic = 0.0
    for k in range(1, 40):
        term *= q / (k * k)
        harmonic += 1.0 / k
        i0 += term
        correction += term * harmonic
    return -(math.log(x / 2.0) + EULER_GAMMA) * i0 + correction


# --- single panel rule ---


def test_panel_rule_polynomial_exactness():
    # the 15-point interior cosine rule integrates degree <= 15 exactly
    for degree in range(16):
        value, _ = _eval_panel(lambda x: x**degree, 0.0, 1.0, 15)
        assert value == pytest.approx(1.0 / (degree + 1), rel=1e-13)


def test_panel_rule_error_estimate_small_for_low_degree():
    # both rules are exact to degree 7, so the discrepancy vanishes
    value, err = _eval_panel(lambda x: 4 * x**7 - x**3 + 2, -1.0, 2.0, 15)
    exact = (2.0**8 - 1.0) / 2 - (2.0**4 - 1.0) / 4 + 2 * 3
    assert value == pytest.approx(exact, rel=1e-13)
    assert err < 1e-10 * abs(value)


# --- 1d integration ---


def check_result(result: IntegrationResult, exact: float, tol: float) -> None:
    assert result.converged
    assert abs(result.value - exact) < tol
    # the reported estimate must bound the actual error
    assert abs(result.value - exact) <= result.error_estimate + 1e-15
    assert result.evaluations < 100_000


def test_integrate_polynomial():
    result = integrate_1d(lambda x: x**20, (0.0, 2.0))
    check_result(result, 2.0**21 / 21, 1e-8)


def test_integrate_exponential_halfline():
    result = integrate_1d(lambda x: np.exp(-x), (0.0, math.inf))
    check_result(result, 1.0, 1e-9)


def test_integrate_gaussian_real_line():
    result = integrate_1d(lambda x: np.exp(-x * x), (-math.inf, math.inf))
    check_result(result, math.sqrt(math.pi), 1e-9)


def test_integrate_lorentzian_real_line():
    # slow 1/x^2 falloff exercises the tail truncation probes
    result = integrate_1d(lambda x: 1.0 / (1.0 + x * x), (-math.inf, math.inf))
    check_result(result, math.pi, 1e-8)


def test_integrate_inverse_sqrt_endpoint_singularity():
    result = integrate_1d(lambda x: x**-0.5, (0.0, 1.0))
    check_result(result, 2.0, 1e-8)


def test_integrate_log_endpoint_singularity():
    result = integrate_1d(np.log, (0.0, 1.0))
    check_result(result, -1.0, 1e-8)


def test_integrate_interior_algebraic_kink():
    result = integrate_1d(lambda x: np.abs(x - 0.3) ** 0.5, (0.0, 1.0))
    exact = (0.7**1.5 + 0.3**1.5) / 1.5
    check_result(result, exact, 1e-9)


def test_integrate_oscillatory():
    result = integrate_1d(lambda x: np.cos(40.0 * x), (0.0, 2.0 * math.pi))
    check_result(result, 0.0, 1e-9)


def test_integrate_softplus_tail():
    # integral of log(1 + e^-s) over [0, inf) is eta(2) = pi^2 / 12
    result = integrate_1d(lambda s: np.log1p(np.exp(-s)), (0.0, math.inf))
    check_result(result, math.pi**2 / 12, 1e-9)


def test_integrate_two_sided_exponential_kink():
    result = integrate_1d(lambda x: np.exp(-np.abs(x)), (-math.inf, math.inf))
    check_result(result, 2.0, 1e-9)


def test_integrate_reports_nonconvergence():
    cfg = QuadratureConfig(max_subdivisions=3)
    result = integrate_1d(lambda x: x**-0.5, (0.0, 1.0), cfg)
    assert not result.converged
    assert result.error_estimate > 0


def test_integrate_rejects_bad_interval():
    with pytest.raises(ValueError):
        integrate_1d(np.exp, (1.0, 1.0))
    with pytest.raises(ValueError):
        integrate_1d(np.exp, (2.0, 1.0))


def test_integrand_output_shape_is_checked():
    # a 0-d result is a constant and is broadcast to every node
    assert integrate_1d(lambda x: 2.0, (0.0, 1.0)).value == pytest.approx(2.0)
    # any other shape that is not the nodes' own would, in a batch, shift
    # the values of every later section, so it raises
    with pytest.raises(ValueError, match="elementwise"):
        integrate_1d(lambda x: x[:-1], (0.0, 1.0))
    with pytest.raises(ValueError, match="elementwise"):
        integrate_1d(lambda x: x[:, None], (0.0, math.inf))
    box = Rectangle((0.0, 1.0), (0.0, 1.0))
    with pytest.raises(ValueError, match="elementwise"):
        integrate_2d(lambda x, y: np.ones(3), box)
    with pytest.raises(ValueError, match="elementwise"):
        integrate_2d(lambda nx, ny, nz: np.ones((len(nx), 1)), Sphere())


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=-1.0)
    with pytest.raises(ValueError):
        QuadratureConfig(rule_order=4)
    with pytest.raises(ValueError):
        QuadratureConfig(max_subdivisions=0)


def test_integration_is_deterministic():
    def f(x):
        return np.exp(-x * x) * np.cos(3.0 * x)

    first = integrate_1d(f, (-math.inf, math.inf))
    second = integrate_1d(f, (-math.inf, math.inf))
    assert first.value == second.value
    assert first.error_estimate == second.error_estimate
    assert first.evaluations == second.evaluations


def test_integration_is_deterministic_across_threads():
    def f(x):
        return 1.0 / (1.0 + x * x)

    serial = integrate_1d(f, (-math.inf, math.inf))
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(
            pool.map(lambda _: integrate_1d(f, (-math.inf, math.inf)), range(8))
        )
    for result in results:
        assert result.value == serial.value
        assert result.evaluations == serial.evaluations


# --- 2d integration ---


def test_rectangle_constant_and_product():
    box = Rectangle((0.0, 1.0), (0.0, 1.0))
    result = integrate_2d(lambda x, y: 1.0, box)
    assert result.converged
    assert result.value == pytest.approx(1.0, abs=1e-10)
    result = integrate_2d(lambda x, y: x * y, box)
    assert result.value == pytest.approx(0.25, abs=1e-10)


def test_rectangle_separable_gaussian():
    box = Rectangle((-8.0, 8.0), (-8.0, 8.0))
    result = integrate_2d(
        lambda x, y: np.exp(-x * x - y * y), box
    )
    assert result.value == pytest.approx(math.pi, rel=1e-9)


def test_polygon_area_triangle():
    tri = ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
    result = integrate_2d(lambda x, y: 1.0, tri)
    assert result.value == pytest.approx(0.5, abs=1e-9)


def test_polygon_linear_moment():
    # centroid of the unit triangle is at x = 1/3, area 1/2
    tri = ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
    result = integrate_2d(lambda x, y: x, tri)
    assert result.value == pytest.approx(1.0 / 6.0, abs=1e-9)


def test_polygon_vertices_any_order():
    square = ConvexPolygon(((0.0, 0.0), (2.0, 2.0), (2.0, 0.0), (0.0, 2.0)))
    result = integrate_2d(lambda x, y: 1.0, square)
    assert result.value == pytest.approx(4.0, abs=1e-9)


def test_sphere_surface_area():
    result = integrate_2d(lambda nx, ny, nz: 1.0, Sphere())
    assert result.value == pytest.approx(4.0 * math.pi, rel=1e-10)


def test_sphere_second_moment():
    # integral of z^2 over the unit sphere is 4 pi / 3
    result = integrate_2d(lambda nx, ny, nz: nz * nz, Sphere())
    assert result.value == pytest.approx(4.0 * math.pi / 3.0, rel=1e-10)


def test_sphere_radius_scaling():
    result = integrate_2d(lambda nx, ny, nz: 1.0, Sphere(radius=2.0))
    assert result.value == pytest.approx(16.0 * math.pi, rel=1e-9)



# a smooth, non-separable integrand per domain
TRIANGLE = ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
CASES = (
    (Rectangle((-8.0, 8.0), (-8.0, 8.0)), lambda x, y: np.exp(-x * x - y * y - x * y)),
    (TRIANGLE, lambda x, y: np.cos(3.0 * x * y) + x),
    (Sphere(), lambda nx, ny, nz: np.exp(nx + ny * nz)),
)


def nested_reference(f, domain, cfg):
    """integrate_2d as one inner integrate_1d per section, with scalar y."""
    inner_cfg = QuadratureConfig(
        abs_tol=cfg.abs_tol / 8.0,
        rel_tol=cfg.rel_tol / 8.0,
        rule_order=cfg.rule_order,
        max_subdivisions=cfg.max_subdivisions,
        tail_cutoff=cfg.tail_cutoff,
    )
    if isinstance(domain, Rectangle):
        outer_interval = domain.y_range

        def section(y):
            return (lambda x: f(x, y)), domain.x_range, 1.0

    elif isinstance(domain, ConvexPolygon):
        ys = [p[1] for p in domain.vertices]
        outer_interval = (min(ys), max(ys))

        def section(y):
            xs = domain.x_section(y)
            if xs is None or xs[0] >= xs[1]:
                return None
            return (lambda x: f(x, y)), xs, 1.0

    else:
        r = domain.radius
        outer_interval = (0.0, math.pi)

        def section(theta):
            st, ct = math.sin(theta), math.cos(theta)

            def ring(phi):
                return f(r * st * np.cos(phi), r * st * np.sin(phi),
                         r * ct * np.ones_like(phi))

            return ring, (0.0, 2.0 * math.pi), st * r * r

    inner = []

    def outer(ys):
        out = np.zeros(len(ys))
        for i, y in enumerate(ys):
            cut = section(y)
            if cut is not None:
                g, interval, weight = cut
                inner.append(integrate_1d(g, interval, inner_cfg))
                out[i] = inner[-1].value * weight
        return out

    res = integrate_1d(outer, outer_interval, cfg)
    width = outer_interval[1] - outer_interval[0]
    return IntegrationResult(
        res.value,
        res.error_estimate + max(r.error_estimate for r in inner) * width,
        sum(r.evaluations for r in inner),
        res.converged and all(r.converged for r in inner),
    )


@pytest.mark.parametrize("domain, f", CASES, ids=["rectangle", "polygon", "sphere"])
def test_integrate_2d_equals_nested_1d_reference(domain, f):
    # the lockstep inner integrals give the bits of one integral per section
    cfg = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9)
    result = integrate_2d(f, domain, cfg)
    reference = nested_reference(f, domain, cfg)
    assert result.value == reference.value
    assert result.error_estimate == reference.error_estimate
    assert result.evaluations == reference.evaluations
    assert result.converged and reference.converged


@pytest.mark.parametrize(
    "domain, f",
    (
        (Sphere(), lambda nx, ny, nz: nz * nz),
        (Rectangle((-8.0, 8.0), (-8.0, 8.0)), lambda x, y: np.exp(-x * x - y * y)),
        (TRIANGLE, lambda x, y: 1.0),
    ),
    ids=["sphere", "rectangle", "polygon"],
)
def test_integrate_2d_batches_sections(domain, f):
    # the sections of an outer panel share each integrand call
    points = []

    def counted(*args):
        points.append(np.size(args[0]))
        return f(*args)

    cfg = QuadratureConfig()
    result = integrate_2d(counted, domain, cfg)
    assert sum(points) == result.evaluations
    assert sum(points) / len(points) >= 10 * cfg.rule_order


def test_integrate_2d_rejects_unsupported_domain():
    with pytest.raises(ValueError, match="unsupported 2d domain"):
        integrate_2d(lambda x, y: 1.0, ((0.0, 1.0), (0.0, 1.0)))

# --- asymptotic fits ---


def sample_grid(count: int = 8, lo: float = 1e-6, hi: float = 1e-2) -> list:
    ratio = (hi / lo) ** (1.0 / (count - 1))
    return [lo * ratio**k for k in range(count)]


def test_fit_recovers_exact_power_law():
    def model(t):
        L = -math.log(t)
        return 3.0 * L * L + 2.0 + 5.0 / L

    samples = [(t, model(t)) for t in sample_grid()]
    fit = fit_asymptotic(samples, powers=(2, 0, -1))
    assert fit.coefficients[2] == pytest.approx(3.0, rel=1e-12)
    assert fit.coefficients[0] == pytest.approx(2.0, rel=1e-12)
    assert fit.coefficients[-1] == pytest.approx(5.0, rel=1e-12)
    assert fit.residual_rms < 1e-10
    t = 1e-4
    assert fit.predict(t) == pytest.approx(model(t), rel=1e-12)


def test_fit_with_pinned_coefficient():
    def model(t):
        L = -math.log(t)
        return 3.0 * L * L + 2.0

    samples = [(t, model(t)) for t in sample_grid()]
    fit = fit_asymptotic(samples, powers=(2, 0), fixed={2: 3.0})
    assert fit.coefficients[2] == 3.0
    assert fit.coefficients[0] == pytest.approx(2.0, rel=1e-12)


def test_fit_bessel_matches_log_expansion():
    # 2 K0(2t) = 2 L - 2 gamma + O(t^2 L); the fit sees the leading pair
    samples = [(t, 2.0 * bessel_k0(2.0 * t)) for t in sample_grid(hi=1e-3)]
    fit = fit_asymptotic(samples, powers=(1, 0))
    assert fit.coefficients[1] == pytest.approx(2.0, abs=1e-5)
    assert fit.coefficients[0] == pytest.approx(-2.0 * EULER_GAMMA, abs=1e-4)


def test_fit_requires_enough_samples():
    samples = [(1e-3, 1.0), (1e-4, 2.0)]
    with pytest.raises(ConditioningError):
        fit_asymptotic(samples, powers=(2, 0))


def test_fit_requires_spread_in_scale():
    samples = [(1e-3 * (1 + k * 1e-4), 1.0) for k in range(6)]
    with pytest.raises(ConditioningError):
        fit_asymptotic(samples, powers=(1, 0))


def test_fit_rejects_bad_inputs():
    samples = [(t, 1.0) for t in sample_grid()]
    with pytest.raises(ValueError):
        fit_asymptotic(samples, powers=(1, 1))
    with pytest.raises(ValueError):
        fit_asymptotic([(2.0, 1.0)] + samples, powers=(1, 0))
    with pytest.raises(ValueError):
        fit_asymptotic(samples, powers=(1, 0), fixed={3: 1.0})


def test_fit_result_shape():
    samples = [(t, -math.log(t)) for t in sample_grid()]
    fit = fit_asymptotic(samples, powers=(1, 0))
    assert isinstance(fit, AsymptoticFit)
    assert fit.sample_count == len(samples)
    assert set(fit.coefficients) == {1, 0}

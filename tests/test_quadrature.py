"""Tests for adaptive quadrature, 2d domains and asymptotic power fits."""

import math
import re
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.integrate import cubature

from gammatrop.errors import ConditioningError
from gammatrop.quadrature import (
    AsymptoticFit,
    ConvexPolygon,
    IntegrationResult,
    QuadratureConfig,
    Rectangle,
    Sphere,
    _find_tail_cutoff,
    _panels_1d,
    _rule,
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
        [(value, _, _, _)], count = _panels_1d(lambda x: x**degree, [(0.0, 1.0)], None, 15)
        assert count == 15
        assert value == pytest.approx(1.0 / (degree + 1), rel=1e-13)


def test_panel_rule_error_estimate_small_for_low_degree():
    # both rules are exact to degree 7, so the discrepancy vanishes
    [(value, err, _, _)], _ = _panels_1d(lambda x: 4 * x**7 - x**3 + 2, [(-1.0, 2.0)], None, 15)
    exact = (2.0**8 - 1.0) / 2 - (2.0**4 - 1.0) / 4 + 2 * 3
    assert value == pytest.approx(exact, rel=1e-13)
    assert err < 1e-10 * abs(value)


@pytest.mark.parametrize("order", range(3, 65, 2))
def test_rule_weights_are_positive(order):
    # a non-finite node then always makes the panel value non-finite, which
    # is how both panel rules detect it
    nodes, weights, coarse = _rule(order)
    assert len(nodes) == len(weights) == order
    assert len(coarse) == (order - 1) // 2
    assert (weights > 0).all() and (coarse > 0).all()


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
    # a node on the singularity gives -inf, whose relative target is inf
    with np.errstate(divide="ignore", invalid="ignore"):
        result = integrate_1d(lambda x: np.log(np.abs(x - 0.5)), (0.0, 1.0), cfg)
        assert not result.converged
        box = Rectangle((0.0, 1.0), (0.0, 1.0))
        result = integrate_2d(lambda x, y: np.log(np.abs(x - 0.5)) + y, box, cfg)
        assert not result.converged


def log_kink(x):
    with np.errstate(divide="ignore"):
        return np.log(np.abs(x - 0.5))


def test_integrate_splits_off_nonfinite_panels():
    # a node lands on the singularity at 1/2, so the first panel is -inf;
    # it is split there and its children converge as endpoint singularities
    exact = -1.0 - math.log(2.0)
    result = integrate_1d(log_kink, (0.0, 1.0))
    assert result.converged
    assert abs(result.value - exact) <= result.error_estimate
    assert result.evaluations < 10_000
    box = Rectangle((0.0, 1.0), (0.0, 1.0))
    for f in (lambda x, y: log_kink(x) + y, lambda x, y: log_kink(y) + x):
        # the first panel is -inf; no nan from its error estimate may warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = integrate_2d(f, box)
        assert result.converged
        assert abs(result.value - (exact + 0.5)) <= result.error_estimate
        assert result.evaluations < 100_000


def step_tail(x):
    # e^-|x|, then flat at 1e-31, below the default tail_cutoff
    return np.where(np.abs(x) < 100.0, np.exp(-np.abs(x)), 1e-31)


@pytest.mark.parametrize("direction", (1, -1))
def test_tail_bound_uses_the_last_two_probes(direction):
    # probes at 1, 2, ..., 128, 256; |f| does not fall between the last
    # two, so the bound is 4|f| times their distance and not one from the
    # decay between 64 and 128
    point, bound, probes = _find_tail_cutoff(step_tail, 0.0, direction, QuadratureConfig())
    assert probes == [direction * 2.0**k for k in range(9)]
    assert point == direction * 256.0
    assert bound == 4.0 * 1e-31 * 128.0


@pytest.mark.parametrize(
    "f, interval, pattern",
    (
        (lambda x: x**-0.5, (0.0, 1.0), "is*"),
        (lambda x: np.exp(-x), (0.0, math.inf), "p+is*"),
        (lambda x: 1.0 / (1.0 + x * x), (-math.inf, math.inf), "p+is*p+is*"),
    ),
    ids=["finite", "half-line", "real-line"],
)
def test_integrate_1d_call_pattern(f, interval, pattern):
    # per half-line run: one-point tail probes (p), one call for all initial
    # panels (i), then one call per split with both children (s)
    cfg = QuadratureConfig()
    sizes = []

    def counted(x):
        sizes.append(x.size)
        return f(x)

    result = integrate_1d(counted, interval, cfg)
    kinds = ""
    for size in sizes:
        if size == 1:
            kinds += "p"
        elif kinds[-1:] in ("", "p") and size % cfg.rule_order == 0:
            kinds += "i"
        else:
            assert size == 2 * cfg.rule_order
            kinds += "s"
    assert re.fullmatch(pattern, kinds)
    assert "s" in kinds
    assert sum(sizes) == result.evaluations


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
    square = ((0.0, 0.0), (2.0, 2.0), (2.0, 0.0), (0.0, 2.0))
    # an edge midpoint makes a fan triangle of zero area
    with_midpoint = square + ((1.0, 0.0),)
    for vertices in (square, with_midpoint):
        result = integrate_2d(lambda x, y: 1.0, ConvexPolygon(vertices))
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


def cubature_reference(f, domain):
    """The integral by scipy's adaptive cubature over a box of its own."""
    if isinstance(domain, Rectangle):
        box = (domain.x_range, domain.y_range)

        def g(p):
            return f(p[:, 0], p[:, 1])

    elif isinstance(domain, ConvexPolygon):
        # the unit triangle as x = s, y = (1 - s) w, collapsing onto (1, 0)
        assert domain is TRIANGLE
        box = ((0.0, 1.0), (0.0, 1.0))

        def g(p):
            s, w = p[:, 0], p[:, 1]
            return f(s, (1.0 - s) * w) * (1.0 - s)

    else:
        assert domain.radius == 1.0
        box = ((0.0, math.pi), (0.0, 2.0 * math.pi))

        def g(p):
            theta, phi = p[:, 0], p[:, 1]
            st = np.sin(theta)
            return f(st * np.cos(phi), st * np.sin(phi), np.cos(theta)) * st

    res = cubature(g, *zip(*box), rtol=1e-14, atol=1e-14)
    assert res.status == "converged"
    return float(res.estimate)


@pytest.mark.parametrize("domain, f", CASES, ids=["rectangle", "polygon", "sphere"])
def test_integrate_2d_matches_independent_cubature(domain, f):
    cfg = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9)
    result = integrate_2d(f, domain, cfg)
    assert result.converged
    assert abs(result.value - cubature_reference(f, domain)) <= result.error_estimate


def test_integrate_2d_subdivision_cap_reports_nonconvergence():
    # in 2d max_subdivisions caps the splits of the one panel heap
    cfg = QuadratureConfig(max_subdivisions=1)
    box = Rectangle((-10.0, 10.0), (-10.0, 10.0))
    result = integrate_2d(lambda x, y: np.exp(-50.0 * (x * x + y * y)), box, cfg)
    assert not result.converged
    assert result.error_estimate > max(cfg.abs_tol, cfg.rel_tol * abs(result.value))


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
    # a panel's tensor grid, or both children of a split, share one call
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
    for sides in (((0.0, math.inf), (0.0, 1.0)), ((0.0, 1.0), (1.0, 1.0))):
        with pytest.raises(ValueError, match="rectangle sides"):
            integrate_2d(lambda x, y: 1.0, Rectangle(*sides))

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

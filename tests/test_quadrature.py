"""Tests for adaptive quadrature, 2d domains and asymptotic power fits."""

import itertools
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
    Sphere,
    _NODES,
    _RULE_ORDER,
    _cubature,
    _find_tail_cutoff,
    _interior_cosine_rule,
    _panels_1d,
    _panels_2d,
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


# the unit sphere charted by the faces of the octahedron and of the K3
# chamber, a tetrahedron whose faces are not equidistant from its vertices
OCTAHEDRON = Sphere([
    ((x, 0, 0), (0, y, 0), (0, 0, z)) for x in (1, -1) for y in (1, -1) for z in (1, -1)
])
TETRAHEDRON = Sphere((
    ((-1, -1, -1), (3, -1, -1), (-1, 3, -1)),
    ((-1, -1, -1), (3, -1, -1), (-1, -1, 3)),
    ((-1, -1, -1), (-1, 3, -1), (-1, -1, 3)),
    ((3, -1, -1), (-1, 3, -1), (-1, -1, 3)),
))
# a constant takes about 177k evaluations at the default tolerance 1e-10
SPHERE_CONFIG = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9)


def identity_chart(u, v):
    return (u, v), 1.0


def integrate_box(f, box, config=None):
    """The 2d panel loop on the box (x0, x1, y0, y1) under the identity chart."""
    cfg = config or QuadratureConfig()
    return _cubature(f, _panels_2d, [([box], identity_chart)], cfg)


# --- single panel rule ---


def test_panel_rule_polynomial_exactness():
    # the 15-point interior cosine rule integrates degree <= 15 exactly
    for degree in range(16):
        [(value, _, _, _)], count = _panels_1d(lambda x: x**degree, [(0.0, 1.0)], None)
        assert count == 15
        assert value == pytest.approx(1.0 / (degree + 1), rel=1e-13)


def test_panel_rule_error_estimate_small_for_low_degree():
    # both rules are exact to degree 7, so the discrepancy vanishes
    [(value, err, _, _)], _ = _panels_1d(lambda x: 4 * x**7 - x**3 + 2, [(-1.0, 2.0)], None)
    exact = (2.0**8 - 1.0) / 2 - (2.0**4 - 1.0) / 4 + 2 * 3
    assert value == pytest.approx(exact, rel=1e-13)
    assert err < 1e-10 * abs(value)


def reference_panel(f, a, b):
    """One panel by two mat-vecs, the fine and the coarse rule, as a reference."""
    nodes, weights = _interior_cosine_rule(_RULE_ORDER + 1)
    coarse = _interior_cosine_rule((_RULE_ORDER + 1) // 2)[1]
    half = 0.5 * (b - a)
    y = f(0.5 * (a + b) + half * nodes)
    with np.errstate(invalid="ignore"):
        fine = half * float(weights @ y)
        crs = half * float(coarse @ y[1::2])
    err = 1.5 * abs(fine - crs)
    return fine, err if math.isfinite(err) else math.inf


def test_panel_rule_batch_matches_single_boxes():
    # one call over k boxes gives each box what it gets alone, and what
    # the two mat-vecs give, up to the order of summation; an error is
    # 1.5 times the difference of two sums of about |value| + err, each
    # of which may move by an ulp or two
    boxes = [(0.0, 1.0), (1.0, 2.5), (-3.0, -0.5), (2.5, 2.75), (7.0, 9.0), (20.0, 25.0)]
    for f in (lambda x: np.sin(9.0 * x) + 0.1 * x, lambda x: 1.0 / (1e-3 + (x - np.round(x)) ** 2)):
        batch, count = _panels_1d(f, boxes, None)
        assert count == len(boxes) * _RULE_ORDER
        for box, (value, err, axis, entry_box) in zip(boxes, batch):
            [alone], _ = _panels_1d(f, [box], None)
            assert entry_box == box and axis == 0
            for other_value, other_err in (alone[:2], reference_panel(f, *box)):
                assert value == pytest.approx(other_value, rel=1e-15, abs=0.0)
                assert abs(err - other_err) <= 1e-14 * (abs(value) + err)


@pytest.mark.parametrize("index", range(_RULE_ORDER))
@pytest.mark.parametrize("bad", (math.inf, -math.inf, math.nan))
def test_panel_rule_nonfinite_node(index, bad):
    # on (-1, 1) the nodes are the rule's own; a non-finite value at node
    # `index` makes that panel's value non-finite and its error inf, alone
    # or among other boxes, whose panels stay finite.  The coarse rule
    # has weight 0 at the even indices, where a zero-padded coarse column
    # would meet the node as 0 * inf and warn; so would a BLAS kernel that
    # pads the values' operand.
    pole = _interior_cosine_rule(_RULE_ORDER + 1)[0][index]

    def f(x):
        return np.where(x == pole, bad, 1.0 + x * x)

    for boxes in (
        [(-1.0, 1.0)],
        [(-1.0, 1.0), (1.0, 3.0)],
        [(-5.0, -3.0), (-3.0, -1.0), (-1.0, 1.0), (1.0, 3.0)],
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            entries, _ = _panels_1d(f, boxes, None)
        for box, (value, err, _, _) in zip(boxes, entries):
            if box == (-1.0, 1.0):
                assert value == bad or math.isnan(bad) and math.isnan(value)
                assert err == math.inf
                assert repr((value, err)) == repr(reference_panel(f, *box))
            else:
                assert math.isfinite(value) and math.isfinite(err)


def test_panel_rule_collapsed_nodes_have_inf_error():
    # at 1e17 the floats are 16 apart, so the 15 nodes of a 16-wide panel
    # fall on two floats and both rules agree on a constant
    gaussian = lambda x: np.exp(-(x - 1e17) ** 2)
    [(value, err, _, _)], _ = _panels_1d(gaussian, [(1e17, 1e17 + 16.0)], None)
    assert err == math.inf
    # a panel that is narrow against its position but whose nodes stay
    # apart keeps its finite error
    [(value, err, _, _)], _ = _panels_1d(lambda x: x - 1.0, [(1.0, 1.0 + 2e-13)], None)
    assert math.isfinite(err)
    assert value == pytest.approx(2e-26, rel=1e-2)


@pytest.mark.parametrize("order", range(3, 65, 2))
def test_rule_weights_are_positive(order):
    # a non-finite node then always makes the panel value non-finite, which
    # is how both panel rules detect it
    nodes, weights = _interior_cosine_rule(order + 1)
    _, coarse = _interior_cosine_rule((order + 1) // 2)
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


@pytest.mark.parametrize(
    "f, exact",
    (
        (lambda x: 1.0 / np.cosh(x), math.pi),
        (lambda x: 1.0 / (1.0 + x * x), math.pi),
        (lambda x: np.exp(-x * x), math.sqrt(math.pi)),
        (lambda s: np.logaddexp(0.0, -np.abs(s)), math.pi**2 / 6),
    ),
    ids=["sech", "lorentzian", "gaussian", "softplus"],
)
@pytest.mark.parametrize("tol", (1e-6, 1e-8))
def test_real_line_convergence_means_the_target_is_met(f, exact, tol):
    # both halves of the real line share one target: a converged result's
    # estimate meets it, and bounds the actual error
    cfg = QuadratureConfig(abs_tol=tol, rel_tol=0.0)
    result = integrate_1d(f, (-math.inf, math.inf), cfg)
    assert result.converged
    assert result.error_estimate <= max(cfg.abs_tol, cfg.rel_tol * abs(result.value))
    assert abs(result.value - exact) <= result.error_estimate


def test_integrate_reports_nonconvergence():
    cfg = QuadratureConfig(max_subdivisions=3)
    result = integrate_1d(lambda x: x**-0.5, (0.0, 1.0), cfg)
    assert not result.converged
    assert result.error_estimate > 0
    # a node on the singularity gives -inf, whose relative target is inf
    with np.errstate(divide="ignore", invalid="ignore"):
        result = integrate_1d(lambda x: np.log(np.abs(x - 0.5)), (0.0, 1.0), cfg)
        assert not result.converged
        result = integrate_box(lambda x, y: np.log(np.abs(x - 0.5)) + y, (0.0, 1.0, 0.0, 1.0), cfg)
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
    for f in (lambda x, y: log_kink(x) + y, lambda x, y: log_kink(y) + x):
        # the first panel is -inf; no nan from its error estimate may warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = integrate_box(f, (0.0, 1.0, 0.0, 1.0))
        assert result.converged
        assert abs(result.value - (exact + 0.5)) <= result.error_estimate
        assert result.evaluations < 100_000


def step_tail(x):
    # e^-|x|, then flat at 1e-31, below the tail cutoff 1e-30
    return np.where(np.abs(x) < 100.0, np.exp(-np.abs(x)), 1e-31)


@pytest.mark.parametrize("direction", (1, -1))
def test_tail_bound_uses_the_last_two_probes(direction):
    # probes at 1, 2, ..., 128, 256; |f| does not fall between the last
    # two, so the bound is 4|f| times their distance and not one from the
    # decay between 64 and 128
    point, bound, probes = _find_tail_cutoff(step_tail, 0.0, direction)
    assert probes == [direction * 2.0**k for k in range(9)]
    assert point == direction * 256.0
    assert bound == 4.0 * 1e-31 * 128.0


@pytest.mark.parametrize("direction", (1, -1))
def test_tail_probes_skip_offsets_below_the_float_spacing(direction):
    # at 1e17 the floats are 16 apart: the offsets 1, 2, 4 and 8 round
    # back onto the start and are not probed
    start = direction * 1e17
    point, bound, probes = _find_tail_cutoff(lambda x: np.exp(-(x - start) ** 2), start, direction)
    assert probes == [start + direction * 16.0, start + direction * 32.0]
    assert (point, bound) == (probes[-1], 0.0)
    # at 1e300 no offset up to 2^79 moves; the tail is not cut at all
    assert _find_tail_cutoff(lambda x: 1.0 / x, direction * 1e300, direction) == (
        direction * 1e300, math.inf, []
    )


@pytest.mark.parametrize(
    "f, interval",
    (
        (lambda x: np.exp(-(x - 1e17) ** 2), (1e17, math.inf)),
        (lambda x: np.exp(-(x + 1e17) ** 2), (-math.inf, -1e17)),
        (lambda x: 1.0 / x, (1e300, math.inf)),
    ),
    ids=["gaussian-at-1e17", "gaussian-at-minus-1e17", "harmonic-at-1e300"],
)
def test_tails_beyond_the_float_spacing_do_not_converge(f, interval):
    # the Gaussian's panels are 16 wide and their 15 nodes fall on two
    # floats (the integral is sqrt(pi)/2, not the 16 both rules agree on);
    # 1/x diverges, and no probe can leave 1e300
    result = integrate_1d(f, interval)
    assert not result.converged
    assert result.error_estimate == math.inf


def inverse_sqrt_pole(x):
    with np.errstate(divide="ignore"):
        return 1.0 / np.sqrt(np.abs(x - 0.25))


@pytest.mark.parametrize(
    "f, interval, evaluations",
    (
        (inverse_sqrt_pole, (0.0, 1.0), 4065),
        (lambda x: np.exp(-((x - 1e17) / 1e4) ** 2), (1e17 - 1e6, 1e17 + 1e6), 2235),
    ),
    ids=["pole-on-a-node", "gaussian-at-1e17"],
)
def test_unsplittable_inf_panel_stops_the_loop(f, interval, evaluations):
    # the panels beside the pole, and the 1e17 Gaussian's narrowest ones,
    # reach float width with error inf, so the integral cannot converge:
    # the loop stops there instead of spending all 2,000 splits (60,015
    # evaluations each); the counts are today's
    result = integrate_1d(f, interval)
    assert not result.converged
    assert result.error_estimate == math.inf
    assert result.evaluations <= evaluations


@pytest.mark.parametrize(
    "f, interval, pattern",
    (
        (lambda x: x**-0.5, (0.0, 1.0), "is*"),
        (lambda x: np.exp(-x), (0.0, math.inf), "p+is*"),
        (lambda x: 1.0 / (1.0 + x * x), (-math.inf, math.inf), "p+is*"),
    ),
    ids=["finite", "half-line", "real-line"],
)
def test_integrate_1d_call_pattern(f, interval, pattern):
    # one-point tail probes of every infinite end (p), one call for all
    # initial panels of both halves of the real line (i), then one call
    # per split with both children (s)
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
        elif kinds[-1:] in ("", "p") and size % _RULE_ORDER == 0:
            kinds += "i"
        else:
            assert size == 2 * _RULE_ORDER
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
    with pytest.raises(ValueError, match="elementwise"):
        integrate_box(lambda x, y: np.ones(3), (0.0, 1.0, 0.0, 1.0))
    for sphere in (OCTAHEDRON, TETRAHEDRON):
        with pytest.raises(ValueError, match="elementwise"):
            integrate_2d(lambda nx, ny, nz: np.ones((len(nx), 1)), sphere)


def test_integrate_1d_rejects_complex_output():
    # a cast to float kept the real part: e^(ix) over (0, 1) came back as
    # sin 1, converged, with only a ComplexWarning
    for f in (lambda x: np.exp(1j * x), lambda x: 1j):
        for interval in ((0.0, 1.0), (0.0, math.inf)):
            with pytest.raises(TypeError, match="complex"):
                integrate_1d(f, interval)
    # real output of any other dtype is still cast
    assert integrate_1d(lambda x: np.ones(x.size, dtype=int), (0.0, 1.0)).value == pytest.approx(1.0)
    assert integrate_1d(lambda x: x.astype(np.float32), (0.0, 1.0)).value == pytest.approx(0.5)


def test_integrate_2d_rejects_complex_output():
    triangle = ConvexPolygon([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    with pytest.raises(TypeError, match="complex"):
        integrate_2d(lambda x, y: np.exp(1j * x), triangle)
    with pytest.raises(TypeError, match="complex"):
        integrate_2d(lambda nx, ny, nz: nx + 1j * ny, OCTAHEDRON)
    with pytest.raises(TypeError, match="complex"):
        integrate_box(lambda x, y: np.exp(1j * y), (0.0, 1.0, 0.0, 1.0))


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=-1.0)
    with pytest.raises(ValueError):
        QuadratureConfig(max_subdivisions=0)
    # NaN fails every comparison, so it is rejected rather than let through;
    # an infinite tolerance would accept the first panels of any integral
    for bad in (
        {"abs_tol": math.nan},
        {"rel_tol": math.nan},
        {"rel_tol": -1e-3},
        {"abs_tol": math.inf},
        {"rel_tol": math.inf},
    ):
        with pytest.raises(ValueError):
            QuadratureConfig(**bad)
        with pytest.raises(ValueError):
            QuadratureConfig.from_json_dict({k: str(v) for k, v in bad.items()})
    # the rule order and the tail cutoff are constants, and a JSON file that
    # still sets one of them fails instead of being ignored
    for key, value in (("rule_order", 15), ("tail_cutoff", 1e-30), ("abs_tl", 1e-8)):
        with pytest.raises(TypeError):
            QuadratureConfig(**{key: value})
        with pytest.raises(ValueError, match=key):
            QuadratureConfig.from_json_dict({key: value})
    good = {"abs_tol": "1e-8", "rel_tol": "0", "max_subdivisions": "50"}
    assert QuadratureConfig.from_json_dict(good) == QuadratureConfig(1e-8, 0.0, 50)
    assert QuadratureConfig.from_json_dict({"max_subdivisions": 50}).max_subdivisions == 50
    # the subdivision cap is an int: a float is not truncated, a bool is no cap
    for bad in (2.5, 2.7, 2.0, True):
        with pytest.raises(TypeError):
            QuadratureConfig(max_subdivisions=bad)
        with pytest.raises(TypeError):
            QuadratureConfig.from_json_dict({"max_subdivisions": bad})
    with pytest.raises(ValueError):
        QuadratureConfig.from_json_dict({"max_subdivisions": "2.7"})
    # a bool is no tolerance either, in the constructor or read from JSON
    for bad in ({"abs_tol": True}, {"rel_tol": False}, {"abs_tol": True, "rel_tol": False}):
        with pytest.raises(TypeError):
            QuadratureConfig(**bad)
        with pytest.raises(TypeError):
            QuadratureConfig.from_json_dict(bad)
    numbers = {"abs_tol": 1e-8, "rel_tol": 0.0}
    assert QuadratureConfig.from_json_dict(numbers) == QuadratureConfig(1e-8, 0.0)


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
    box = (0.0, 1.0, 0.0, 1.0)
    result = integrate_box(lambda x, y: 1.0, box)
    assert result.converged
    assert result.value == pytest.approx(1.0, abs=1e-10)
    result = integrate_box(lambda x, y: x * y, box)
    assert result.value == pytest.approx(0.25, abs=1e-10)


def test_rectangle_separable_gaussian():
    box = (-8.0, 8.0, -8.0, 8.0)
    result = integrate_box(lambda x, y: np.exp(-x * x - y * y), box)
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
    for sphere in (OCTAHEDRON, TETRAHEDRON):
        result = integrate_2d(lambda nx, ny, nz: 1.0, sphere, SPHERE_CONFIG)
        assert result.converged
        assert abs(result.value - 4.0 * math.pi) <= result.error_estimate
        assert result.value == pytest.approx(4.0 * math.pi, rel=1e-10)


def test_sphere_second_moment():
    # integral of z^2 over the unit sphere is 4 pi / 3
    for sphere in (OCTAHEDRON, TETRAHEDRON):
        result = integrate_2d(lambda nx, ny, nz: nz * nz, sphere, SPHERE_CONFIG)
        assert result.converged
        assert abs(result.value - 4.0 * math.pi / 3.0) <= result.error_estimate
        assert result.value == pytest.approx(4.0 * math.pi / 3.0, rel=1e-10)


def test_sphere_validation():
    octahedron = OCTAHEDRON.facets
    for bad, message in (
        ([], "triangles"),
        ([facet[:2] for facet in octahedron], "triangles"),
        ([((math.nan, 0, 0), (0, 1, 0), (0, 0, 1))] + octahedron[1:], "finite"),
        ([((1, 0, 0), (math.inf, 1, 0), (0, 0, 1))] + octahedron[1:], "finite"),
        ([((1, 0, 0), (-1, 0, 0), (0, 0, 1))] + octahedron[1:], "through the origin"),
        # a gap and an overlap
        (octahedron[1:], "4 pi"),
        (octahedron + octahedron[:1], "4 pi"),
        # the four upper faces twice: 4 pi in all, but z integrates to 2 pi
        ([f for f in octahedron if f[2][2] > 0] * 2, "exactly two facets"),
    ):
        with pytest.raises(ValueError, match=message):
            Sphere(bad)
    # orientation and the order of the facets do not matter
    flipped = Sphere([(a, c, b) for a, b, c in reversed(octahedron)])
    result = integrate_2d(lambda nx, ny, nz: nz * nz, flipped, SPHERE_CONFIG)
    assert result.value == pytest.approx(4.0 * math.pi / 3.0, rel=1e-10)


def integrate_domain(f, domain, config=None):
    """`integrate_2d`, or `integrate_box` when the domain is a box tuple."""
    if isinstance(domain, tuple):
        return integrate_box(f, domain, config)
    return integrate_2d(f, domain, config)


# a smooth, non-separable integrand per domain; a box tuple runs the 2d
# kernel under the identity chart
TRIANGLE = ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
CASES = (
    ((-8.0, 8.0, -8.0, 8.0), lambda x, y: np.exp(-x * x - y * y - x * y)),
    (TRIANGLE, lambda x, y: np.cos(3.0 * x * y) + x),
    (OCTAHEDRON, lambda nx, ny, nz: np.exp(nx + ny * nz)),
    (TETRAHEDRON, lambda nx, ny, nz: np.exp(nx + ny * nz)),
)


def cubature_reference(f, domain):
    """The integral by scipy's adaptive cubature over a box of its own."""
    if isinstance(domain, tuple):
        box = (domain[:2], domain[2:])

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
        box = ((0.0, math.pi), (0.0, 2.0 * math.pi))

        def g(p):
            theta, phi = p[:, 0], p[:, 1]
            st = np.sin(theta)
            return f(st * np.cos(phi), st * np.sin(phi), np.cos(theta)) * st

    res = cubature(g, *zip(*box), rtol=1e-14, atol=1e-14)
    assert res.status == "converged"
    return float(res.estimate)


@pytest.mark.parametrize(
    "domain, f", CASES, ids=["rectangle", "polygon", "sphere", "sphere_tetrahedron"]
)
def test_integrate_2d_matches_independent_cubature(domain, f):
    cfg = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9)
    result = integrate_domain(f, domain, cfg)
    assert result.converged
    assert abs(result.value - cubature_reference(f, domain)) <= result.error_estimate


def test_integrate_2d_subdivision_cap_reports_nonconvergence():
    # in 2d max_subdivisions caps the splits of the one panel heap
    cfg = QuadratureConfig(max_subdivisions=1)
    box = (-10.0, 10.0, -10.0, 10.0)
    result = integrate_box(lambda x, y: np.exp(-50.0 * (x * x + y * y)), box, cfg)
    assert not result.converged
    assert result.error_estimate > max(cfg.abs_tol, cfg.rel_tol * abs(result.value))


@pytest.mark.parametrize(
    "domain, f",
    (
        (OCTAHEDRON, lambda nx, ny, nz: nz * nz),
        (TETRAHEDRON, lambda nx, ny, nz: nz * nz),
        ((-8.0, 8.0, -8.0, 8.0), lambda x, y: np.exp(-x * x - y * y)),
        (TRIANGLE, lambda x, y: 1.0),
    ),
    ids=["sphere", "sphere_tetrahedron", "rectangle", "polygon"],
)
def test_integrate_2d_batches_sections(domain, f):
    # a panel's tensor grid, or both children of a split, share one call
    points = []

    def counted(*args):
        points.append(np.size(args[0]))
        return f(*args)

    cfg = QuadratureConfig()
    result = integrate_domain(counted, domain, cfg)
    assert sum(points) == result.evaluations
    assert sum(points) / len(points) >= 10 * _RULE_ORDER


def test_panel_rule_2d_grid_is_the_broadcast_tensor_product():
    # the chart gets each box's 15 x 15 nodes, u major, bit for bit as the
    # broadcast of the box's u nodes against its v nodes
    boxes = [(0.0, 1.0, 0.0, 1.0), (0.25, 0.5, 0.75, 1.0), (0.5, 0.625, 0.1, 0.3)]
    grids = []

    def to_args(u, v):
        grids.append((u, v))
        return (u, v), 1.0

    entries, count = _panels_2d(lambda x, y: np.cos(x * y), boxes, to_args)
    box = np.array(boxes)
    u = 0.5 * (box[:, :1] + box[:, 1:2]) + 0.5 * (box[:, 1] - box[:, 0])[:, None] * _NODES
    v = 0.5 * (box[:, 2:3] + box[:, 3:]) + 0.5 * (box[:, 3] - box[:, 2])[:, None] * _NODES
    u, v = np.broadcast_arrays(u[:, :, None], v[:, None, :])
    [(got_u, got_v)] = grids
    assert np.array_equal(got_u, u.ravel()) and np.array_equal(got_v, v.ravel())
    assert count == len(entries) * _RULE_ORDER**2 == u.size


def reference_panel_2d(f, box):
    """One box by nested per-axis sums, fine and coarse along each axis, as a reference.

    Returns its value, error and split axis: along v (True) if the rule
    coarse along v differs more, and for a non-finite box along v if more
    line sums along v than along u are non-finite.
    """
    nodes, weights = _interior_cosine_rule(_RULE_ORDER + 1)
    coarse = _interior_cosine_rule((_RULE_ORDER + 1) // 2)[1]
    u0, u1, v0, v1 = box
    hu, hv = 0.5 * (u1 - u0), 0.5 * (v1 - v0)
    u = 0.5 * (u0 + u1) + hu * nodes
    v = 0.5 * (v0 + v1) + hv * nodes
    y = f(u[:, None], v[None, :])
    with np.errstate(invalid="ignore"):
        along_v = y @ weights  # one sum along v at each u node
        along_u = weights @ y  # one sum along u at each v node
        area = hu * hv
        fine = area * float(along_v @ weights)
        err_u = abs(fine - area * float(along_v[1::2] @ coarse))
        err_v = abs(fine - area * float(along_u[1::2] @ coarse))
    if not math.isfinite(fine):
        return fine, math.inf, bool((~np.isfinite(along_v)).sum() > (~np.isfinite(along_u)).sum())
    return fine, 1.5 * (err_u + err_v), bool(err_v > err_u)


@pytest.mark.parametrize("count", (1, 2, 5))
def test_panel_rule_2d_matches_the_nested_sums(count):
    # one rule-matrix product per call gives each box what the nested
    # per-axis sums give, up to the order of summation; an error is 1.5
    # times differences of sums of about |value| + err.  The integrands
    # are positive, so no value is a cancellation.
    boxes = [(0.0, 1.0, 0.0, 1.0), (1.0, 2.5, -0.5, 0.0), (-3.0, -0.5, 0.25, 0.375),
             (2.0, 2.125, 4.0, 7.0), (-1.0, 1.0, -6.0, -2.0)][:count]
    functions = (
        lambda x, y: np.exp(1.5 * x) * (2.0 + np.cos(4.0 * y)),
        lambda x, y: 1.0 / (1e-2 + (x - 0.3) ** 2 + 4.0 * (y + 0.2) ** 2),
        lambda x, y: (2.0 + np.sin(7.0 * x)) * np.exp(-y * y),
    )
    for f in functions:
        entries, evaluations = _panels_2d(f, boxes, identity_chart)
        assert evaluations == count * _RULE_ORDER**2
        for box, (value, err, axis, entry_box) in zip(boxes, entries):
            ref_value, ref_err, ref_axis = reference_panel_2d(f, box)
            assert entry_box == box
            assert value == pytest.approx(ref_value, rel=1e-15, abs=0.0)
            assert abs(err - ref_err) <= 1e-14 * (abs(value) + err)
            assert axis == ref_axis


NONFINITE_2D_CALLS = (
    [(-1.0, 1.0, -1.0, 1.0)],
    [(-1.0, 1.0, -1.0, 1.0), (1.0, 3.0, -1.0, 1.0)],
    [(-3.0, -1.0, -1.0, 1.0), (-1.0, 1.0, -1.0, 1.0), (-1.0, 1.0, 1.0, 3.0), (1.0, 3.0, 1.0, 3.0)],
)


@pytest.mark.parametrize("bad", (math.inf, -math.inf, math.nan))
def test_panel_rule_2d_nonfinite_node(bad):
    # on (-1, 1)^2 the nodes are the rule's own; a non-finite value at any
    # of its 225 nodes makes that box's value non-finite and its error
    # inf, alone or among other boxes, whose panels stay finite, and with
    # no floating-point warning
    for i, j in itertools.product(range(_RULE_ORDER), repeat=2):

        def f(x, y):
            return np.where((x == _NODES[i]) & (y == _NODES[j]), bad, 1.0 + x * x + y)

        for boxes in NONFINITE_2D_CALLS:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                entries, _ = _panels_2d(f, boxes, identity_chart)
            for box, (value, err, axis, _) in zip(boxes, entries):
                if box == (-1.0, 1.0, -1.0, 1.0):
                    assert value == bad or math.isnan(bad) and math.isnan(value)
                    assert err == math.inf
                    # one line sum along each axis is non-finite; u wins the tie
                    assert axis == 0
                    assert repr((value, err, axis)) == repr(reference_panel_2d(f, box))
                else:
                    assert math.isfinite(value) and math.isfinite(err)


@pytest.mark.parametrize("bad", (math.inf, -math.inf, math.nan))
@pytest.mark.parametrize("line_axis", (0, 1))
def test_panel_rule_2d_splits_across_a_singular_line(bad, line_axis):
    # a whole line of non-finite nodes, at one u node (axis 0) or at one v
    # node (axis 1): the box is split along that axis, so the cut runs
    # parallel to the line and cuts it off
    index = 4

    def f(x, y):
        on_line = (x if line_axis == 0 else y) == _NODES[index]
        return np.where(on_line, bad, np.cos(x + 2.0 * y))

    for boxes in NONFINITE_2D_CALLS:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            entries, _ = _panels_2d(f, boxes, identity_chart)
        for box, (value, err, axis, _) in zip(boxes, entries):
            # the line crosses every box whose range on its axis is (-1, 1)
            if box[2 * line_axis:2 * line_axis + 2] == (-1.0, 1.0):
                assert err == math.inf and axis == line_axis
                assert repr((value, err, axis)) == repr(reference_panel_2d(f, box))
            else:
                assert math.isfinite(value) and math.isfinite(err)


def test_integrate_2d_rejects_unsupported_domain():
    with pytest.raises(ValueError, match="unsupported 2d domain"):
        integrate_2d(lambda x, y: 1.0, ((0.0, 1.0), (0.0, 1.0)))
    square = ((0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0))
    # an interior point dents the angle-sorted cycle: the fan from vertex 0
    # integrated 1 to 4.5 and 3.0 over these, reporting converged
    for inner in ((1.0, 0.5), (1.0, 1.0)):
        with pytest.raises(ValueError, match="convex position"):
            ConvexPolygon(square + (inner,))
    # a non-finite vertex ran 900,225 evaluations with a RuntimeWarning
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            ConvexPolygon(square[:3] + ((bad, 2.0),))

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
    # a NaN t passes the range check, and lstsq does not reject NaN values
    for bad in ((math.nan, 1.0), (1e-3, math.nan), (1e-3, math.inf), (1e-3, -math.inf)):
        with pytest.raises(ValueError, match="finite"):
            fit_asymptotic(samples + [bad], powers=(1, 0))


def test_fit_result_shape():
    samples = [(t, -math.log(t)) for t in sample_grid()]
    fit = fit_asymptotic(samples, powers=(1, 0))
    assert isinstance(fit, AsymptoticFit)
    assert fit.sample_count == len(samples)
    assert set(fit.coefficients) == {1, 0}

"""Tests for adaptive quadrature, 2d domains and asymptotic power fits."""

import functools
import heapq
import itertools
import math
import re
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.integrate import cubature

import gammatrop.periods.error_integrals as error_integrals
import gammatrop.periods.k3 as k3
import gammatrop.quadrature as quadrature
from gammatrop.errors import ConditioningError
from gammatrop.periods import error_integral_dim2_b, k3_period
from gammatrop.quadrature import (
    AsymptoticFit,
    ConvexPolygon,
    IntegrationResult,
    QuadratureConfig,
    Sphere,
    _FEJER_2D,
    _GAUSS_WEIGHTS,
    _KRONROD_2D,
    _KRONROD_NODES,
    _KRONROD_WEIGHTS,
    _RULE_ORDER,
    _at_float_width,
    _cubature,
    _det3,
    _find_tail_cutoffs,
    _interior_cosine_rule,
    _meets_tolerance,
    _panels_1d,
    _panels_2d,
    _patches,
    fit_asymptotic,
    integrate_1d,
    integrate_2d,
)
from gammatrop.tropical import boundary_affine_area

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


def on_unit_sphere(g):
    """g(n) of the direction n as a `Sphere` integrand of the facet point p:
    g(p / |p|) / |p|^3, homogeneous of degree -3, so the facets' cone
    measure integrates it as the unit sphere's area measure integrates g."""

    def f(x, y, z):
        r = np.sqrt(x * x + y * y + z * z)
        return g(x / r, y / r, z / r) / (r * r * r)

    return f


def identity_chart(u, v):
    return (u, v), 1.0


def integrate_box(f, box, config=None):
    """The 2d panel loop on the box (x0, x1, y0, y1) under the identity
    chart, with the tensor rule of a `Sphere`."""
    cfg = config or QuadratureConfig()
    return _cubature(f, _panels_2d, [([box], (_FEJER_2D, identity_chart))], cfg)


# --- single panel rule ---


def test_panel_rule_polynomial_exactness():
    # the 15-point interior cosine rule integrates degree <= 15 exactly
    for degree in range(16):
        [[(value, _, _, _)]], count = _panels_1d(lambda x: x**degree, [([(0.0, 1.0)], None)])
        assert count == 15
        assert value == pytest.approx(1.0 / (degree + 1), rel=1e-13)


def test_panel_rule_error_estimate_small_for_low_degree():
    # both rules are exact to degree 7, so the discrepancy vanishes
    [[(value, err, _, _)]], _ = _panels_1d(lambda x: 4 * x**7 - x**3 + 2, [([(-1.0, 2.0)], None)])
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
        [batch], count = _panels_1d(f, [(boxes, None)])
        assert count == len(boxes) * _RULE_ORDER
        for box, (value, err, axis, entry_box) in zip(boxes, batch):
            [[alone]], _ = _panels_1d(f, [([box], None)])
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
            [entries], _ = _panels_1d(f, [(boxes, None)])
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
    [[(value, err, _, _)]], _ = _panels_1d(gaussian, [([(1e17, 1e17 + 16.0)], None)])
    assert err == math.inf
    # a panel that is narrow against its position but whose nodes stay
    # apart keeps its finite error
    [[(value, err, _, _)]], _ = _panels_1d(lambda x: x - 1.0, [([(1.0, 1.0 + 2e-13)], None)])
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


def test_gauss_kronrod_literals_nest_the_gauss_rule():
    # the 15 Kronrod nodes descend in (-1, 1), symmetric about 0, like the
    # cosine nodes, and their odd indices are the Gauss-7 rule
    gauss_nodes, gauss_weights = np.polynomial.legendre.leggauss(7)
    assert len(_KRONROD_NODES) == len(_KRONROD_WEIGHTS) == _RULE_ORDER
    assert len(_GAUSS_WEIGHTS) == 7
    assert (np.diff(_KRONROD_NODES) < 0).all() and 0 < _KRONROD_NODES[0] < 1
    assert np.array_equal(_KRONROD_NODES, -_KRONROD_NODES[::-1])
    assert np.array_equal(_KRONROD_WEIGHTS, _KRONROD_WEIGHTS[::-1])
    assert (_KRONROD_WEIGHTS > 0).all() and (_GAUSS_WEIGHTS > 0).all()
    # leggauss ascends and is accurate to a few ulps
    assert np.abs(_KRONROD_NODES[1::2] - gauss_nodes[::-1]).max() <= 1e-15
    assert np.abs(_GAUSS_WEIGHTS - gauss_weights[::-1]).max() <= 1e-15


@pytest.mark.parametrize("k", range(25))
def test_gauss_kronrod_is_exact_on_powers(k):
    # Kronrod is exact to degree 22 and Gauss-7 to degree 13, each up to
    # the rounding of its literals; the first even degree past that misses
    # by far more, so the literals are those rules and no others
    exact = (1.0 - (-1.0) ** (k + 1)) / (k + 1)
    kronrod = float(_KRONROD_WEIGHTS @ _KRONROD_NODES**k)
    gauss = float(_GAUSS_WEIGHTS @ _KRONROD_NODES[1::2] ** k)
    assert (abs(kronrod - exact) <= 1e-15) == (k <= 23)
    assert (abs(gauss - exact) <= 1e-15) == (k <= 13 or k % 2 == 1)


@pytest.mark.parametrize("rule", (_FEJER_2D, _KRONROD_2D), ids=["fejer", "gauss-kronrod"])
def test_tensor_rule_weights_are_positive(rule):
    # so a non-finite node makes every sum of its box non-finite and never
    # meets a zero weight, where 0 * inf warns
    assert (rule.weights > 0).all() and (rule.matrix > 0).all()
    assert rule.matrix.shape == (3, _RULE_ORDER**2)


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


def test_integrate_reports_nonconvergence(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 3)
    cfg = QuadratureConfig()
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
    [(point, bound, probes)] = _find_tail_cutoffs(step_tail, [(0.0, direction)])
    assert probes == [direction * 2.0**k for k in range(9)]
    assert point == direction * 256.0
    assert bound == 4.0 * 1e-31 * 128.0


@pytest.mark.parametrize("direction", (1, -1))
def test_tail_probes_skip_offsets_below_the_float_spacing(direction):
    # at 1e17 the floats are 16 apart: the offsets 1, 2, 4 and 8 round
    # back onto the start and are not probed
    start = direction * 1e17
    gaussian = lambda x: np.exp(-(x - start) ** 2)
    [(point, bound, probes)] = _find_tail_cutoffs(gaussian, [(start, direction)])
    assert probes == [start + direction * 16.0, start + direction * 32.0]
    assert (point, bound) == (probes[-1], 0.0)
    # at 1e300 no offset up to 2^79 moves; the tail is not cut at all
    assert _find_tail_cutoffs(lambda x: 1.0 / x, [(direction * 1e300, direction)]) == [
        (direction * 1e300, math.inf, [])
    ]


@pytest.mark.parametrize(
    "f, tails",
    (
        # the whole line from 0: the right tail stops before the left one
        (lambda x: np.exp(-np.where(x < 0.0, 0.01, 1.0) * x * x), [(0.0, -1), (0.0, 1)]),
        (lambda x: 1.0 / (1.0 + x * x), [(0.0, -1), (0.0, 1)]),
        (step_tail, [(0.0, -1), (0.0, 1)]),
        # both half-lines, and a tail that never moves beside one that does
        (lambda x: np.exp(-np.abs(x)), [(2.0, 1)]),
        (lambda x: np.exp(-np.abs(x)), [(-3.0, -1)]),
        (lambda x: np.exp(-np.abs(x) * 1e-300), [(1e300, 1), (0.0, -1)]),
    ),
    ids=["skewed-gaussian", "lorentzian", "step", "right-half-line", "left-half-line", "stuck-and-moving"],
)
def test_joint_tail_probes_are_each_tails_own(f, tails):
    # each integrand call carries the next probe of every tail still
    # probing; each tail's cutoff, bound and probes are those of probing
    # it alone, and the calls carry one point per tail still probing
    sizes = []

    def counted(x):
        sizes.append(x.size)
        return f(x)

    joint = _find_tail_cutoffs(counted, tails)
    alone = [_find_tail_cutoffs(f, [tail])[0] for tail in tails]
    assert joint == alone
    lengths = [len(probes) for _, _, probes in alone]
    assert sizes == [sum(n > k for n in lengths) for k in range(max(lengths))]


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


def reference_cubature(f, rule, patches, cfg, tail_bound=0.0, evaluations=0):
    """The panel loop that splits one panel per round, as a reference for `_cubature`.

    Each round stops if the running error plus tail_bound meets the target
    and no panel has error inf; otherwise it pops the worst panel, keeps
    it as finished at float width (and stops if its error is inf), or
    bisects it and evaluates both children in one call.  `_cubature`
    splits, in one round, every panel that this loop would have to split
    before it could stop, so both give the same panels wherever the
    running totals round alike and neither _MAX_SUBDIVISIONS nor a panel
    too narrow to split stops the loop.
    """
    heap = []  # entries: (-err, tie_breaker, value, err, axis, box, chart)
    tie = itertools.count()
    total_val = total_err = 0.0
    infinite = 0

    def push(boxes, chart):
        nonlocal total_val, total_err, infinite, evaluations
        [entries], count = rule(f, [(boxes, chart)])
        evaluations += count
        for value, err, axis, box in entries:
            if err == math.inf:
                infinite += 1
            else:
                total_val += value
                total_err += err
            heapq.heappush(heap, (-err, next(tie), value, err, axis, box, chart))

    for boxes, chart in patches:
        push(boxes, chart)
    finished = []
    splits = 0
    while heap and splits < quadrature._MAX_SUBDIVISIONS:
        if not infinite and _meets_tolerance(total_err + tail_bound, total_val, cfg):
            break
        _, _, value, err, axis, box, chart = heapq.heappop(heap)
        i = 2 * axis
        lo, hi = box[i:i + 2]
        if _at_float_width(lo, hi):
            finished.append((value, err))
            if err == math.inf:
                break
            continue
        splits += 1
        if err == math.inf:
            infinite -= 1
        else:
            total_val -= value
            total_err -= err
        mid = 0.5 * (lo + hi)
        push([box[:i + 1] + (mid,) + box[i + 2:], box[:i] + (mid,) + box[i + 1:]], chart)
    panels = finished + [entry[2:4] for entry in heap]
    value = math.fsum(v for v, _ in panels)
    error = math.fsum(e for _, e in panels) + tail_bound
    return IntegrationResult(value, error, evaluations, _meets_tolerance(error, value, cfg))


def against_reference(run, monkeypatch):
    """`run()` with the panel loop of the package, then with `reference_cubature`."""
    result = run()
    with monkeypatch.context() as patch:
        patch.setattr(quadrature, "_cubature", reference_cubature)
        reference = run()
    return result, reference


def assert_same_panels(result, reference):
    # the same panels give the same evaluations and, summed by fsum, the
    # same value up to the rule's own rounding in a larger batch
    assert result.evaluations == reference.evaluations
    assert result.converged == reference.converged
    assert result.value == pytest.approx(reference.value, rel=1e-14, abs=0.0)


REFERENCE_1D = {
    "smooth": (lambda x: np.exp(np.sin(3.0 * x)), (0.0, 2.0)),
    "sqrt-kink": (lambda x: np.abs(x - 0.3) ** 0.5, (0.0, 1.0)),
    "abs-kink": (lambda x: np.abs(x - 1.0 / 3.0), (0.0, 1.0)),
    "inverse-sqrt": (lambda x: x**-0.5, (0.0, 1.0)),
    "log": (np.log, (0.0, 1.0)),
    "log-kink-on-a-node": (log_kink, (0.0, 1.0)),
    "oscillatory": (lambda x: np.cos(200.0 * x), (0.0, 1.0)),
    "damped-oscillatory-half-line": (lambda x: np.exp(-x) * np.sin(10.0 * x), (0.0, math.inf)),
    "lorentzian-line": (lambda x: 1.0 / (1.0 + x * x), (-math.inf, math.inf)),
    "two-sided-exponential-line": (lambda x: np.exp(-np.abs(x)), (-math.inf, math.inf)),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_1D))
@pytest.mark.parametrize(
    "cfg",
    (QuadratureConfig(1e-6, 1e-6), QuadratureConfig(), QuadratureConfig(1e-12, 0.0)),
    ids=["tol-1e-6", "default", "abs-1e-12"],
)
def test_integrate_1d_splits_what_one_split_per_round_splits(name, cfg, monkeypatch):
    f, interval = REFERENCE_1D[name]
    result, reference = against_reference(lambda: integrate_1d(f, interval, cfg), monkeypatch)
    assert reference.converged  # so the subdivision cap did not bind
    assert_same_panels(result, reference)


TRIANGLE_2D = ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
# a square listed out of order, with a point on an edge: its fan has a
# triangle of zero area
SQUARE_2D = ConvexPolygon(((0.0, 0.0), (2.0, 2.0), (2.0, 0.0), (0.0, 2.0), (1.0, 0.0)))
HEXAGON = [(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)]
# listed from the vertex at angle -2 pi/3, the apex of the fan that this
# hexagon's cases have always been integrated over; fanned from (1, 0),
# the kink |x - 0.3| + y meets the batch rounding of the 2d rule (see
# test_rounding_can_move_the_stop_by_a_split_or_two)
HEXAGON_2D = ConvexPolygon(HEXAGON[4:] + HEXAGON[:4])
K3_SPHERE = Sphere(k3._FACETS)
PLANAR_INTEGRANDS = (
    lambda x, y: np.cos(3.0 * x * y) + x,
    lambda x, y: np.exp(-x * x - y * y - x * y),
    lambda x, y: np.sqrt(x * x + y * y),
    lambda x, y: 1.0 / (1e-2 + (x - 0.3) ** 2 + (y - 0.2) ** 2),
    lambda x, y: np.abs(x - 0.3) + y,
)
SPHERE_INTEGRANDS = (
    on_unit_sphere(lambda nx, ny, nz: nz * nz),
    on_unit_sphere(lambda nx, ny, nz: np.exp(nx + ny * nz)),
    on_unit_sphere(lambda nx, ny, nz: 1.0 / (1.05 - nx)),
)


@pytest.mark.parametrize(
    "domain, f",
    [(d, f) for d in (TRIANGLE_2D, SQUARE_2D, HEXAGON_2D) for f in PLANAR_INTEGRANDS]
    + [(d, f) for d in (OCTAHEDRON, TETRAHEDRON, K3_SPHERE) for f in SPHERE_INTEGRANDS],
    ids=[f"{d}-{k}" for d in ("triangle", "square", "hexagon") for k in range(len(PLANAR_INTEGRANDS))]
    + [f"{d}-{k}" for d in ("octahedron", "tetrahedron", "k3") for k in range(len(SPHERE_INTEGRANDS))],
)
def test_integrate_2d_splits_what_one_split_per_round_splits(domain, f, monkeypatch):
    cfg = QuadratureConfig(1e-7, 1e-7)
    result, reference = against_reference(lambda: integrate_2d(f, domain, cfg), monkeypatch)
    assert reference.converged
    assert_same_panels(result, reference)


def test_drivers_split_what_one_split_per_round_splits(monkeypatch):
    # the error_integral_dim2_b polygons and the K3 chamber's sphere, with
    # their own integrands, as the benchmark runs them
    calls = []

    def captured(f, domain, cfg=None):
        calls.append((f, domain, cfg))
        return integrate_2d(f, domain, cfg)

    for module in (error_integrals, k3):
        monkeypatch.setattr(module, "integrate_2d", captured)
    error_integral_dim2_b(((-4, 2), (-2, 2)), 1e-3)
    k3_period(1e-2, QuadratureConfig(abs_tol=1e-5, rel_tol=1e-5))
    assert len(calls) >= 3 and isinstance(calls[-1][1], Sphere)
    for f, domain, cfg in calls:
        result, reference = against_reference(lambda: integrate_2d(f, domain, cfg), monkeypatch)
        assert reference.converged
        assert_same_panels(result, reference)


def integrate_fejer(f, polygon, config):
    """`integrate_2d` over a polygon's patches under Fejer's tensor rule,
    which a `Sphere` takes, through the panel loop that `quadrature`
    holds when called."""
    patches = [(boxes, (_FEJER_2D, to_args)) for boxes, (_, to_args) in _patches(polygon)]
    return quadrature._cubature(f, _panels_2d, patches, config)


@pytest.mark.parametrize(
    "run, split_evaluations",
    (
        # 51,135 evaluations against 51,105, both converged: the round
        # ends one split later
        (lambda: integrate_1d(lambda x: x**-0.9, (0.0, 1.0), QuadratureConfig(1e-13, 0.0)), 30),
        # 24,435 evaluations on both, converged (9.987e-15): the running
        # error reads below the target one split before the panels' fsum
        # does, and the loop stops only once that fsum meets it too
        (lambda: integrate_1d(lambda x: np.cos(200.0 * x), (0.0, 1.0), QuadratureConfig(1e-14, 1e-14)), 0),
        # 616,725 evaluations against 617,175, both converged, under
        # Fejer's tensor rule: the rule's product rounds each box's sums
        # differently in a larger batch, and the panels along the kink have
        # errors that tie to rounding.  Under the polygon's own
        # Gauss-Kronrod rule both split the same panels (638,775).
        (lambda: integrate_fejer(lambda x, y: np.abs(x - 0.3) + y, TRIANGLE_2D, QuadratureConfig(1e-9, 1e-9)), 450),
        # 396,450 evaluations against 397,350, both converged: the same
        # kink on the hexagon fanned from (1, 0) (396,000 on both under
        # Gauss-Kronrod)
        (lambda: integrate_fejer(
            lambda x, y: np.abs(x - 0.3) + y,
            ConvexPolygon(HEXAGON),
            QuadratureConfig(1e-7, 1e-7),
        ), 450),
    ),
    ids=["inverse-0.9-power", "oscillatory-at-1e-14", "kink-on-the-triangle", "kink-on-the-hexagon"],
)
def test_rounding_can_move_the_stop_by_a_split_or_two(run, split_evaluations, monkeypatch):
    # near the rounding floor of the running totals, or with the 2d rule's
    # sums rounded by batch, the panels split can differ from one split per
    # round by a split or two; the values stay within the estimates
    result, reference = against_reference(run, monkeypatch)
    assert abs(result.evaluations - reference.evaluations) <= 2 * split_evaluations
    assert result.converged and reference.converged
    assert abs(result.value - reference.value) <= max(result.error_estimate, reference.error_estimate)


@pytest.mark.parametrize(
    "f, interval, pattern",
    (
        (lambda x: x**-0.5, (0.0, 1.0), "is+"),
        (lambda x: np.exp(-x), (0.0, math.inf), "p+is+"),
        (lambda x: 1.0 / (1.0 + x * x), (-math.inf, math.inf), "p+is+"),
    ),
    ids=["finite", "half-line", "real-line"],
)
def test_integrate_1d_call_pattern(f, interval, pattern, monkeypatch):
    # tail probes (p), each call one point for every infinite end still
    # probing, so both ends of the real line share calls; one call for all
    # initial panels of both halves of the real line (i), then one call
    # per round (s) with both children of every panel the round splits:
    # the worst panels in heap order, for as long as the error of the
    # panels not yet popped, plus the tail bound, misses the target that
    # the round starts with
    cfg = QuadratureConfig()
    sizes = []
    calls = []  # the entries of each call of the panel rule

    def counted(x):
        sizes.append(x.size)
        return f(x)

    def recorded(g, patches):
        [entries], count = _panels_1d(g, patches)
        calls.append(entries)
        return [entries], count

    monkeypatch.setattr(quadrature, "_panels_1d", recorded)
    result = integrate_1d(counted, interval, cfg)
    # every case starts its tails at 0; each tail as if probed alone
    alone = [
        _find_tail_cutoffs(f, [(0.0, direction)])[0]
        for end, direction in zip(interval, (-1, 1))
        if math.isinf(end)
    ]
    lengths = [len(found) for _, _, found in alone]
    probes = len(sizes) - len(calls)
    assert probes == max(lengths, default=0)
    assert sizes[:probes] == [sum(n > k for n in lengths) for k in range(probes)]
    assert sizes[probes:] == [_RULE_ORDER * len(entries) for entries in calls]
    assert re.fullmatch(pattern, "p" * probes + "i" + "s" * (len(calls) - 1))
    assert sum(sizes) == result.evaluations
    # replay the rounds: live maps each panel's box to its error, order of
    # arrival and value; each round splits the first of them in heap order
    arrival = itertools.count()
    live = {box: (err, next(arrival), value) for value, err, _, box in calls[0]}
    rounds = []  # the live errors in heap order, and the target, per round
    for entries in calls[1:]:
        worst = sorted(live, key=lambda box: (-live[box][0], live[box][1]))
        children = [box for _, _, _, box in entries]
        pairs = list(zip(children[::2], children[1::2]))
        assert all(b == c == 0.5 * (a + d) for (a, b), (c, d) in pairs)
        parents = [(a, d) for (a, _), (_, d) in pairs]
        assert parents == worst[:len(parents)]
        total = math.fsum(v for _, _, v in live.values())
        rounds.append(([live[box][0] for box in worst], max(cfg.abs_tol, cfg.rel_tol * abs(total))))
        for box in parents:
            del live[box]
        live.update((box, (err, next(arrival), value)) for value, err, _, box in entries)
    # the replayed panels are the result's
    tail_bound = sum(bound for _, bound, _ in alone)
    assert result.error_estimate == math.fsum(err for err, _, _ in live.values()) + tail_bound
    for (errors, target), entries in zip(rounds, calls[1:]):
        remaining = math.fsum(errors[1:])
        split = 1
        while remaining + tail_bound > target:
            remaining -= errors[split]
            split += 1
        assert len(entries) == 2 * split
    # one split per call would take a call per split
    assert len(calls) - 1 < sum(len(entries) for entries in calls[1:]) // 2


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
    # the rule order, the tail cutoff and the subdivision cap are constants,
    # and a JSON file that still sets one of them fails instead of being ignored
    for key, value in (
        ("rule_order", 15), ("tail_cutoff", 1e-30), ("max_subdivisions", 50), ("abs_tl", 1e-8)
    ):
        with pytest.raises(TypeError):
            QuadratureConfig(**{key: value})
        with pytest.raises(ValueError, match=key):
            QuadratureConfig.from_json_dict({key: value})
    good = {"abs_tol": "1e-8", "rel_tol": "0"}
    assert QuadratureConfig.from_json_dict(good) == QuadratureConfig(1e-8, 0.0)
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


# (-1, 0.2) is level with the mean y of the others: an angle sort about the
# float centroid put it first in some orders and last in others, so 12 of
# the 120 orders were fanned from it (28,125 evaluations at tol 1e-7, under
# Fejer's tensor rule) and 108 from (1, -0.95995) (51,525)
LEVEL_PENTAGON = ((-1.0, 0.2), (1.0, 1.35995), (1.0, -0.95995), (2.0, 1.81442), (2.0, -1.41442))


def test_polygon_fan_apex_is_the_first_vertex_given():
    # every order with the same first vertex gives the same result, bit
    # for bit, and each first vertex is the apex of its own fan
    f = lambda x, y: np.exp(x * y) + np.abs(x - 0.5)
    cfg = QuadratureConfig(1e-7, 1e-7)
    evaluations = set()
    for k, apex in enumerate(LEVEL_PENTAGON):
        results = set()
        for rest in itertools.permutations(LEVEL_PENTAGON[:k] + LEVEL_PENTAGON[k + 1:]):
            polygon = ConvexPolygon((apex,) + rest)
            assert polygon.vertices[0] == apex
            # the edge u = 0 of every fan triangle collapses onto the apex
            for _, (_, to_args) in _patches(polygon):
                (x, y), _ = to_args(np.zeros(1), np.full(1, 0.5))
                assert (x[0], y[0]) == apex
            results.add(integrate_2d(f, polygon, cfg))
        [result] = results
        assert result.converged
        evaluations.add(result.evaluations)
    # five apexes, five fans
    assert len(evaluations) == 5


def test_sphere_surface_area():
    for sphere in (OCTAHEDRON, TETRAHEDRON):
        result = integrate_2d(on_unit_sphere(lambda nx, ny, nz: 1.0), sphere, SPHERE_CONFIG)
        assert result.converged
        assert abs(result.value - 4.0 * math.pi) <= result.error_estimate
        assert result.value == pytest.approx(4.0 * math.pi, rel=1e-10)


def test_sphere_second_moment():
    # integral of z^2 over the unit sphere is 4 pi / 3
    for sphere in (OCTAHEDRON, TETRAHEDRON):
        result = integrate_2d(on_unit_sphere(lambda nx, ny, nz: nz * nz), sphere, SPHERE_CONFIG)
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
    result = integrate_2d(on_unit_sphere(lambda nx, ny, nz: nz * nz), flipped, SPHERE_CONFIG)
    assert result.value == pytest.approx(4.0 * math.pi / 3.0, rel=1e-10)


def test_the_constant_integrates_to_the_cone_measure():
    # a facet (a, b, c) has cone measure |det(a, b, c)| / 2: 4 on the
    # octahedron and 32 on the K3 chamber, where the unit sphere's area
    # measure would read 4 pi on both
    for sphere, measure in ((OCTAHEDRON, 4.0), (K3_SPHERE, 32.0)):
        assert math.fsum(abs(_det3(*facet)) for facet in sphere.facets) / 2 == measure
        result = integrate_2d(lambda x, y, z: 1.0, sphere, SPHERE_CONFIG)
        assert result.converged
        assert abs(result.value - measure) <= result.error_estimate


def test_the_k3_cone_measure_is_the_chamber_boundary_area():
    # exactly: the tropical limit of the facet charts is the paper's count
    dets = [abs(_det3(a, b, c)) for a, b, c in k3._FACETS]
    assert all(isinstance(det, Fraction) for det in dets)
    assert sum(dets) / 2 == boundary_affine_area(k3._CHAMBER) == 32


@pytest.mark.parametrize("t", (1e-2, 1e-30))
def test_k3_integrand_is_homogeneous_of_degree_minus_3(t, monkeypatch):
    # which is when the cone measure gives the integral over the unit sphere
    integrands, nodes = [], []

    def captured(f, domain, config):
        integrands.append(f)
        return IntegrationResult(1.0, 0.0, 1, True)

    def recorded(*p):
        nodes.append(p)
        return 0.0

    monkeypatch.setattr(k3, "integrate_2d", captured)
    k3_period(t)
    [f] = integrands
    _panels_2d(recorded, _patches(K3_SPHERE))
    [p] = nodes
    value, doubled = f(*p), f(*(2.0 * c for c in p))
    assert np.all(value > 0.0)
    assert np.all(np.abs(8.0 * doubled - value) <= 4.0 * np.spacing(value))


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
    (OCTAHEDRON, on_unit_sphere(lambda nx, ny, nz: np.exp(nx + ny * nz))),
    (TETRAHEDRON, on_unit_sphere(lambda nx, ny, nz: np.exp(nx + ny * nz))),
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


def test_integrate_2d_subdivision_cap_reports_nonconvergence(monkeypatch):
    # in 2d _MAX_SUBDIVISIONS caps the splits of the one panel heap
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 1)
    cfg = QuadratureConfig()
    box = (-10.0, 10.0, -10.0, 10.0)
    result = integrate_box(lambda x, y: np.exp(-50.0 * (x * x + y * y)), box, cfg)
    assert not result.converged
    assert result.error_estimate > max(cfg.abs_tol, cfg.rel_tol * abs(result.value))


@pytest.mark.parametrize("cap", (1, 3, 50))
def test_the_subdivision_cap_bounds_the_splits(cap, monkeypatch):
    # a round that would split more panels than the cap leaves splits
    # only as many: one initial panel, then exactly `cap` splits
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", cap)
    cfg = QuadratureConfig()
    result = integrate_1d(lambda x: x**-0.5, (0.0, 1.0), cfg)
    assert not result.converged
    assert result.evaluations == _RULE_ORDER * (1 + 2 * cap)
    gaussian = lambda x, y: np.exp(-50.0 * (x * x + y * y))
    result = integrate_box(gaussian, (-10.0, 10.0, -10.0, 10.0), cfg)
    assert not result.converged
    assert result.evaluations == _RULE_ORDER**2 * (1 + 2 * cap)


@pytest.mark.parametrize(
    "domain, f",
    (
        (OCTAHEDRON, on_unit_sphere(lambda nx, ny, nz: nz * nz)),
        (TETRAHEDRON, on_unit_sphere(lambda nx, ny, nz: nz * nz)),
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


# the K3 period, whose integrand runs Newton on every node, on the sphere
# of its 4 facet charts under Fejer's tensor rule, and a kink on the
# hexagon's 4 fan triangles under the polygon rule, Gauss-Kronrod's
ROUND_CASES = {
    "k3": (lambda: k3_period(1e-2, QuadratureConfig(abs_tol=1e-5, rel_tol=1e-5)), K3_SPHERE, _FEJER_2D),
    "hexagon": (
        lambda: integrate_2d(
            lambda x, y: np.abs(x - 0.3) + y, HEXAGON_2D, QuadratureConfig(1e-7, 1e-7)
        ),
        HEXAGON_2D,
        _KRONROD_2D,
    ),
}


def recorded_rounds(run, monkeypatch):
    """The (integrand, patches, integrand call sizes) of every call of the
    2d panel rule that `run()` makes."""
    rounds = []

    def recorded(f, patches):
        sizes = []

        def counted(*args):
            sizes.append(np.size(args[0]))
            return f(*args)

        entries = _panels_2d(counted, patches)
        rounds.append((f, patches, sizes))
        return entries

    monkeypatch.setattr(quadrature, "_panels_2d", recorded)
    run()
    return rounds


@pytest.mark.parametrize("name", ROUND_CASES)
def test_integrate_2d_makes_one_integrand_call_per_round(name, monkeypatch):
    # the initial boxes of all 4 patches are one round, and every later
    # round evaluates the children of every patch it splits in one call
    run, domain, rule = ROUND_CASES[name]
    rounds = recorded_rounds(run, monkeypatch)
    for _, patches, sizes in rounds:
        assert sizes == [sum(len(boxes) for boxes, _ in patches) * _RULE_ORDER**2]
        assert all(patch_rule is rule for _, (patch_rule, _) in patches)
    first = rounds[0][1]
    assert len(first) == 4
    assert [boxes for boxes, _ in first] == [boxes for boxes, _ in _patches(domain)]
    # some later round splits panels of more than one patch
    assert max(len(patches) for _, patches, _ in rounds[1:]) > 1
    if name == "k3":
        assert len(rounds) == 4


@pytest.mark.parametrize("name", ROUND_CASES)
def test_a_round_is_the_rule_applied_patch_by_patch(name, monkeypatch):
    # every patch's sums are one product of its own, so its entries and
    # count are, bit for bit, those of the rule on that patch alone
    run, _, rule = ROUND_CASES[name]
    rounds = recorded_rounds(run, monkeypatch)
    assert all(patch_rule is rule for _, patches, _ in rounds for _, (patch_rule, _) in patches)
    for f, patches, _ in rounds:
        entries, count = _panels_2d(f, patches)
        alone = [_panels_2d(f, [patch]) for patch in patches]
        assert repr(entries) == repr([patch_entries for [patch_entries], _ in alone])
        assert count == sum(patch_count for _, patch_count in alone)


def test_a_constant_return_is_broadcast_across_a_round():
    # a 0-d return is one constant for the nodes of every patch
    boxes = [(0.0, 1.0, 0.0, 1.0), (0.0, 0.5, 0.25, 0.75)]
    patches = [(boxes, chart) for _, chart in _patches(HEXAGON_2D)]
    entries, count = _panels_2d(lambda x, y: 2.0, patches)
    expected, expected_count = _panels_2d(lambda x, y: np.full(x.shape, 2.0), patches)
    assert repr(entries) == repr(expected) and count == expected_count == 4 * 2 * _RULE_ORDER**2
    result = integrate_2d(lambda x, y: 2.0, HEXAGON_2D)
    assert result.value == pytest.approx(3.0 * math.sqrt(3.0), rel=1e-14)


@pytest.mark.parametrize(
    "f",
    (
        lambda x, y: x[:-1],
        lambda x, y: x[:, None],
        # the values of the first patch's nodes alone
        lambda x, y: np.ones(_RULE_ORDER**2),
    ),
    ids=["one-short", "column", "one-patch"],
)
def test_a_wrong_shaped_return_raises_on_a_round(f):
    patches = [([(0.0, 1.0, 0.0, 1.0)], chart) for _, chart in _patches(HEXAGON_2D)]
    with pytest.raises(ValueError, match="elementwise"):
        _panels_2d(f, patches)


# each tensor rule with the 1d (nodes, fine weights, coarse weights) triple
# it is built from, the cosine rule's computed independently
TENSOR_RULES = pytest.mark.parametrize(
    "rule, triple",
    (
        (_FEJER_2D, (*_interior_cosine_rule(_RULE_ORDER + 1), _interior_cosine_rule((_RULE_ORDER + 1) // 2)[1])),
        (_KRONROD_2D, (_KRONROD_NODES, _KRONROD_WEIGHTS, _GAUSS_WEIGHTS)),
    ),
    ids=["fejer", "gauss-kronrod"],
)


@TENSOR_RULES
def test_panel_rule_2d_grid_is_the_broadcast_tensor_product(rule, triple):
    # the chart gets each box's 15 x 15 nodes, u major, bit for bit as the
    # broadcast of the box's u nodes against its v nodes
    boxes = [(0.0, 1.0, 0.0, 1.0), (0.25, 0.5, 0.75, 1.0), (0.5, 0.625, 0.1, 0.3)]
    grids = []

    def to_args(u, v):
        grids.append((u, v))
        return (u, v), 1.0

    [entries], count = _panels_2d(lambda x, y: np.cos(x * y), [(boxes, (rule, to_args))])
    nodes = triple[0]
    box = np.array(boxes)
    u = 0.5 * (box[:, :1] + box[:, 1:2]) + 0.5 * (box[:, 1] - box[:, 0])[:, None] * nodes
    v = 0.5 * (box[:, 2:3] + box[:, 3:]) + 0.5 * (box[:, 3] - box[:, 2])[:, None] * nodes
    u, v = np.broadcast_arrays(u[:, :, None], v[:, None, :])
    [(got_u, got_v)] = grids
    assert np.array_equal(got_u, u.ravel()) and np.array_equal(got_v, v.ravel())
    assert count == len(entries) * _RULE_ORDER**2 == u.size


def reference_panel_2d(f, box, triple):
    """One box by nested per-axis sums, fine and coarse along each axis, as a reference.

    Returns its value, error and split axis: along v (True) if the rule
    coarse along v differs more, and for a non-finite box along v if more
    line sums along v than along u are non-finite.
    """
    nodes, weights, coarse = triple
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


@TENSOR_RULES
@pytest.mark.parametrize("count", (1, 2, 5))
def test_panel_rule_2d_matches_the_nested_sums(count, rule, triple):
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
        [entries], evaluations = _panels_2d(f, [(boxes, (rule, identity_chart))])
        assert evaluations == count * _RULE_ORDER**2
        for box, (value, err, axis, entry_box) in zip(boxes, entries):
            ref_value, ref_err, ref_axis = reference_panel_2d(f, box, triple)
            assert entry_box == box
            assert value == pytest.approx(ref_value, rel=1e-15, abs=0.0)
            assert abs(err - ref_err) <= 1e-14 * (abs(value) + err)
            assert axis == ref_axis


NONFINITE_2D_CALLS = (
    [(-1.0, 1.0, -1.0, 1.0)],
    [(-1.0, 1.0, -1.0, 1.0), (1.0, 3.0, -1.0, 1.0)],
    [(-3.0, -1.0, -1.0, 1.0), (-1.0, 1.0, -1.0, 1.0), (-1.0, 1.0, 1.0, 3.0), (1.0, 3.0, 1.0, 3.0)],
)


@TENSOR_RULES
@pytest.mark.parametrize("bad", (math.inf, -math.inf, math.nan))
def test_panel_rule_2d_nonfinite_node(bad, rule, triple):
    # on (-1, 1)^2 the nodes are the rule's own; a non-finite value at any
    # of its 225 nodes makes that box's value non-finite and its error
    # inf, alone or among other boxes, whose panels stay finite, and with
    # no floating-point warning
    nodes = triple[0]
    for i, j in itertools.product(range(_RULE_ORDER), repeat=2):

        def f(x, y):
            return np.where((x == nodes[i]) & (y == nodes[j]), bad, 1.0 + x * x + y)

        for boxes in NONFINITE_2D_CALLS:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                [entries], _ = _panels_2d(f, [(boxes, (rule, identity_chart))])
            for box, (value, err, axis, _) in zip(boxes, entries):
                if box == (-1.0, 1.0, -1.0, 1.0):
                    assert value == bad or math.isnan(bad) and math.isnan(value)
                    assert err == math.inf
                    # one line sum along each axis is non-finite; u wins the tie
                    assert axis == 0
                    assert repr((value, err, axis)) == repr(reference_panel_2d(f, box, triple))
                else:
                    assert math.isfinite(value) and math.isfinite(err)


@TENSOR_RULES
@pytest.mark.parametrize("bad", (math.inf, -math.inf, math.nan))
@pytest.mark.parametrize("line_axis", (0, 1))
def test_panel_rule_2d_splits_across_a_singular_line(bad, line_axis, rule, triple):
    # a whole line of non-finite nodes, at one u node (axis 0) or at one v
    # node (axis 1): the box is split along that axis, so the cut runs
    # parallel to the line and cuts it off
    index = 4

    def f(x, y):
        on_line = (x if line_axis == 0 else y) == triple[0][index]
        return np.where(on_line, bad, np.cos(x + 2.0 * y))

    for boxes in NONFINITE_2D_CALLS:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            [entries], _ = _panels_2d(f, [(boxes, (rule, identity_chart))])
        for box, (value, err, axis, _) in zip(boxes, entries):
            # the line crosses every box whose range on its axis is (-1, 1)
            if box[2 * line_axis:2 * line_axis + 2] == (-1.0, 1.0):
                assert err == math.inf and axis == line_axis
                assert repr((value, err, axis)) == repr(reference_panel_2d(f, box, triple))
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

# --- 2d calibration ---

UNIT_SQUARE = ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
# the unit triangle fanned from (0, 1): its edge x = 0 is the edge v = 0 of
# the Duffy square, where x = u v, so no node rounds onto it
TRIANGLE_FROM_TOP = ConvexPolygon(((0.0, 1.0), (0.0, 0.0), (1.0, 0.0)))


def about_the_apex(radial):
    """An integral over the unit triangle of a function of r = |p|, in polar
    coordinates about its fan apex (0, 0): the integral over 0 < theta <
    pi/2 of radial(R), the radial integral out to the edge x + y = 1 at
    R = 1 / (cos theta + sin theta)."""
    with mpmath.workdps(30):
        edge = lambda theta: 1 / (mpmath.cos(theta) + mpmath.sin(theta))
        return float(mpmath.quad(lambda theta: radial(edge(theta)), [0, mpmath.pi / 2]))


def kink_on_the_unit_triangle(a=Fraction(3, 10)):
    """The integral of |x - a| + y over the unit triangle: the kink over
    x < a and over x > a, weighted by the height 1 - x, and 1/6 for y."""
    return float(a * a - (a + 1) * a * a / 2 + a**3 / 3 + (1 - a) ** 3 / 6 + Fraction(1, 6))


def ridge_on_the_unit_square():
    """The integral of log1p(e^(-40 |x - y|)) over the unit square, by the
    density 2 (1 - s) of s = |x - y|."""
    with mpmath.workdps(30):
        return float(mpmath.quad(lambda s: 2 * (1 - s) * mpmath.log1p(mpmath.exp(-40 * s)), [0, 1]))


# the polygon part of the calibration suite: point singularities at the fan
# apex, a kink across the fan, a ridge of width 1/40 along the square's
# diagonal, a peak of width 1e-2 inside the square, whose tails past its
# edges are below e^-900, and an edge singularity, each with its integral
CALIBRATION_2D = {
    "inverse-1.5-power-at-the-apex": (
        lambda x, y: (x * x + y * y) ** -0.75,
        TRIANGLE,
        lambda: about_the_apex(lambda edge: 2 * mpmath.sqrt(edge)),
    ),
    "log-at-the-apex": (
        lambda x, y: 0.5 * np.log(x * x + y * y),
        TRIANGLE,
        lambda: about_the_apex(lambda edge: edge**2 * (2 * mpmath.log(edge) - 1) / 4),
    ),
    "kink": (lambda x, y: np.abs(x - 0.3) + y, TRIANGLE, kink_on_the_unit_triangle),
    "softplus-ridge": (
        lambda x, y: np.log1p(np.exp(-40.0 * np.abs(x - y))),
        UNIT_SQUARE,
        ridge_on_the_unit_square,
    ),
    "gaussian-peak": (
        lambda x, y: np.exp(-((x - 0.3) ** 2 + (y - 0.4) ** 2) / 1e-4),
        UNIT_SQUARE,
        lambda: math.pi * 1e-4,
    ),
    # 4/3 + 8/15 by two Beta integrals
    "inverse-sqrt-along-an-edge": (lambda x, y: x**-0.5 * (1.0 + y), TRIANGLE_FROM_TOP, lambda: 28 / 15),
}


@functools.cache
def calibration_reference(name):
    return CALIBRATION_2D[name][2]()


@pytest.mark.parametrize("tol", (1e-5, 1e-7, 1e-9))
@pytest.mark.parametrize("name", CALIBRATION_2D)
@pytest.mark.parametrize("integrate", (integrate_2d, integrate_fejer), ids=["gauss-kronrod", "fejer"])
def test_a_converged_polygon_integral_is_within_its_estimate(integrate, name, tol):
    # a result that reports converged is within its error estimate of the
    # integral, under the polygon's rule and under Fejer's, the sphere's.
    # Every case converges today: 1,182,150 evaluations in all under
    # Gauss-Kronrod and 1,482,300 under Fejer's
    f, polygon, _ = CALIBRATION_2D[name]
    result = integrate(f, polygon, QuadratureConfig(tol, tol))
    if result.converged:
        assert abs(result.value - calibration_reference(name)) <= result.error_estimate


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
    # a NaN t passes the range check, and lstsq does not reject NaN values
    for bad in ((math.nan, 1.0), (1e-3, math.nan), (1e-3, math.inf), (1e-3, -math.inf)):
        with pytest.raises(ValueError, match="finite"):
            fit_asymptotic(samples + [bad], powers=(1, 0))


@pytest.mark.parametrize(
    "bad", (True, False, np.True_, np.False_), ids=["True", "False", "numpy-True", "numpy-False"]
)
def test_fit_rejects_a_bool_sample(bad):
    # a float array reads True as 1.0: a constant fit to bool values gave 1.0
    ts = sample_grid()
    with pytest.raises(ValueError, match="bool"):
        fit_asymptotic([(t, bad) for t in ts], powers=(0,))
    samples = [(t, -math.log(t)) for t in ts]
    for sample in ((bad, 1.0), (ts[0], bad)):
        with pytest.raises(ValueError, match="bool"):
            fit_asymptotic(samples + [sample], powers=(1, 0))


@pytest.mark.parametrize(
    "bad", ("0.5", b"0.5", None, 1j), ids=["str", "bytes", "None", "complex"]
)
def test_fit_rejects_a_sample_that_is_no_real_number(bad):
    # a float array parsed a string: string t's and values both fit L as 9
    ts = sample_grid()
    for samples in (
        [(str(t), 9.0 * -math.log(t)) for t in ts],
        [(t, str(9.0 * -math.log(t))) for t in ts],
    ):
        with pytest.raises(ValueError, match="real numbers"):
            fit_asymptotic(samples, powers=(1,))
    samples = [(t, -math.log(t)) for t in ts]
    for sample in ((bad, 1.0), (ts[0], bad)):
        with pytest.raises(ValueError, match="real numbers"):
            fit_asymptotic(samples + [sample], powers=(1, 0))


def test_fit_rejects_a_bool_power():
    # True fitted L^1 under the key True
    samples = [(t, -math.log(t)) for t in sample_grid()]
    for powers in ((True,), (False, 1), (np.True_,)):
        with pytest.raises(ValueError, match="powers must be ints"):
            fit_asymptotic(samples, powers=powers)


def test_fit_rejects_a_power_that_is_no_int():
    # 1.5 fitted L^1.5, which is no term of sum c_k L^k; negative powers stay
    samples = [(t, -math.log(t) + 2.0 / -math.log(t)) for t in sample_grid()]
    for powers in ((1.5,), (1, 0.0), ("1",), (Fraction(1),)):
        with pytest.raises(ValueError, match="powers must be ints"):
            fit_asymptotic(samples, powers=powers)
    fit = fit_asymptotic(samples, powers=(1, -1))
    assert fit.coefficients[-1] == pytest.approx(2.0, rel=1e-12)


def test_fit_result_shape():
    samples = [(t, -math.log(t)) for t in sample_grid()]
    fit = fit_asymptotic(samples, powers=(1, 0))
    assert isinstance(fit, AsymptoticFit)
    assert fit.sample_count == len(samples)
    assert set(fit.coefficients) == {1, 0}

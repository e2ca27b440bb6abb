"""Deterministic adaptive quadrature and asymptotic fitting.

One fixed nested interpolatory rule pair per config (open rules, so
integrable endpoint singularities never get evaluated at the endpoint),
bisection of the worst panel, and a reduction order that does not depend
on scheduling.  Rerunning with the same config is bit-identical.

Integrands must be elementwise: each value depends only on the arguments
at its own node.  The adaptive loop is a coroutine that asks for nodes,
and `_lockstep` joins the requests of many integrals into one integrand
call, so one call may cover many panels and, in `integrate_2d`, many
sections.  Planar integrands get y as an array of x's shape, not a
scalar.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import ConditioningError

__all__ = [
    "QuadratureConfig",
    "IntegrationResult",
    "Rectangle",
    "ConvexPolygon",
    "Sphere",
    "AsymptoticFit",
    "integrate_1d",
    "integrate_2d",
    "fit_asymptotic",
]


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    rule_order: int = 15           # nodes of the fine rule; must be odd
    max_subdivisions: int = 2000
    tail_cutoff: float = 1e-30     # |f| below this truncates unbounded tails

    def __post_init__(self):
        if self.rule_order < 3 or self.rule_order % 2 == 0:
            raise ValueError("rule_order must be an odd integer >= 3")
        if self.abs_tol <= 0 or self.rel_tol < 0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")

    @classmethod
    def from_json_dict(cls, data: dict) -> "QuadratureConfig":
        kwargs = {}
        for key in ("abs_tol", "rel_tol", "tail_cutoff"):
            if key in data:
                kwargs[key] = float(data[key])
        for key in ("rule_order", "max_subdivisions"):
            if key in data:
                kwargs[key] = int(data[key])
        return cls(**kwargs)


@dataclass(frozen=True)
class IntegrationResult:
    value: float
    error_estimate: float
    evaluations: int
    converged: bool


_RULE_CACHE: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _interior_cosine_rule(panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Interpolatory rule on the interior cosine nodes cos(j pi/panels).

    Weights by the closed-form sine sum; the rule is open (no endpoint
    nodes) and the node set for `panels` is contained in the one for
    2*panels, which gives the nested error estimate for free.
    """
    j = np.arange(1, panels)
    theta = j * np.pi / panels
    m = np.arange(1, panels // 2 + 1)
    s = np.sin((2 * m[None, :] - 1) * theta[:, None]) / (2 * m - 1)
    w = 4.0 / panels * np.sin(theta) * s.sum(axis=1)
    return np.cos(theta), w


def _rule(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fine nodes, fine weights, and coarse weights on every other node."""
    if order not in _RULE_CACHE:
        nodes, weights = _interior_cosine_rule(order + 1)
        _, coarse = _interior_cosine_rule((order + 1) // 2)
        _RULE_CACHE[order] = (nodes, weights, coarse)
    return _RULE_CACHE[order]


def _panel_nodes(a: float, b: float, order: int) -> np.ndarray:
    """Fine-rule nodes of the panel [a, b]."""
    nodes = _rule(order)[0]
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return mid + half * nodes


def _panel_sums(y: np.ndarray, a: float, b: float, order: int) -> tuple[float, float]:
    """Fine-rule integral and nested error estimate from the node values."""
    _, weights, coarse = _rule(order)
    half = 0.5 * (b - a)
    fine = half * float(weights @ y)
    # coarse rule lives on the odd-indexed fine nodes
    crs = half * float(coarse @ y[1::2])
    # the difference estimates the coarse error; the 1.5 margin keeps it
    # an upper bound for the fine rule even on singular panels
    err = 1.5 * abs(fine - crs)
    if not np.isfinite(y).all():
        err = math.inf
    return fine, err


def _values(y, size: int) -> np.ndarray:
    """Integrand output as a float array of `size` values.

    A 0-d result is a constant and is broadcast; any other shape that is
    not (size,) raises, because in a batch it would shift the values of
    every later request.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim == 0:
        return np.full(size, float(y))
    if y.shape != (size,):
        raise ValueError(
            f"integrand returned shape {y.shape} for {size} nodes; "
            "it must be elementwise"
        )
    return y


def _eval_panel(f, a: float, b: float, order: int) -> tuple[float, float]:
    """Fine-rule integral over [a, b] and the nested error estimate."""
    return _panel_sums(_values(f(_panel_nodes(a, b, order)), order), a, b, order)


def _find_tail_cutoff(start: float, direction: int, cfg: QuadratureConfig):
    """Truncation point for an unbounded tail, plus a bound on what is cut.

    A coroutine: yields each one-point probe and receives the integrand
    value there.  Probes at geometrically growing offsets until |f| stays
    below tail_cutoff twice in a row.  The discarded mass is bounded using
    the decay rate observed between the last two probes.  The probe
    points are also returned: they seed the initial panels, so mass far
    from the finite endpoint cannot hide between rule nodes.
    """
    offset = 1.0
    prev_point = start
    prev_mag = None
    below = 0
    point = start
    mag = 0.0
    probes: list[float] = []
    for _ in range(80):
        point = start + direction * offset
        probes.append(point)
        mag = abs(float((yield np.array([point]))[0]))
        if mag < cfg.tail_cutoff:
            below += 1
            if below >= 2:
                break
        else:
            below = 0
        if prev_mag is not None and 0.0 < mag < prev_mag:
            decay = math.log(prev_mag / mag) / abs(point - prev_point)
        else:
            decay = None
        prev_point, prev_mag = point, mag
        offset *= 2.0
    else:
        decay = None
    if mag == 0.0:
        bound = 0.0
    else:
        if prev_mag is not None and 0.0 < mag < prev_mag:
            decay = math.log(prev_mag / mag) / abs(point - prev_point)
        if decay is not None and decay > 0.0:
            bound = 4.0 * mag / decay
        else:
            bound = 4.0 * mag * max(abs(point - prev_point), 1.0)
    return point, bound, probes


def _adaptive(a: float, b: float, cfg: QuadratureConfig):
    """The adaptive panel loop of one integral over [a, b], as a coroutine.

    Yields each array of nodes it needs and receives the integrand values
    at those nodes; returns the IntegrationResult.  All initial panels are
    asked for in one request, and both children of a split in one.  Every
    decision depends only on this coroutine's own values, so running it
    alone or in lockstep with others gives the same bits.
    """
    a, b = float(a), float(b)
    if not a < b:
        raise ValueError(f"interval must satisfy a < b, got ({a}, {b})")
    if math.isinf(a) and math.isinf(b):
        left = yield from _adaptive(a, 0.0, cfg)
        right = yield from _adaptive(0.0, b, cfg)
        return IntegrationResult(
            left.value + right.value,
            left.error_estimate + right.error_estimate,
            left.evaluations + right.evaluations,
            left.converged and right.converged,
        )
    evaluations = 0
    tail_bound = 0.0
    boundaries = [a, b]
    if math.isinf(b):
        b, bound, probes = yield from _find_tail_cutoff(a, +1, cfg)
        tail_bound += bound
        evaluations += len(probes)
        boundaries = [a] + [p for p in probes if a < p < b] + [b]
    if math.isinf(a):
        a, bound, probes = yield from _find_tail_cutoff(b, -1, cfg)
        tail_bound += bound
        evaluations += len(probes)
        boundaries = [a] + sorted(p for p in probes if a < p < b) + boundaries[1:]
    if not a < b:
        return IntegrationResult(0.0, tail_bound, evaluations, True)
    boundaries[0], boundaries[-1] = a, b

    order = cfg.rule_order

    def evaluate(panels):
        # one request for all panels; (value, err) of each from its slice
        values = yield np.concatenate([_panel_nodes(pa, pb, order) for pa, pb in panels])
        return [
            _panel_sums(values[k * order:(k + 1) * order], pa, pb, order)
            for k, (pa, pb) in enumerate(panels)
        ]

    counter = 0
    heap = []  # entries: (-err, tie_breaker, a, b, value, err)
    total_err = 0.0
    total_val = 0.0
    initial = list(zip(boundaries, boundaries[1:]))
    sums = yield from evaluate(initial)
    for (pa, pb), (value, err) in zip(initial, sums):
        evaluations += order
        total_val += value
        total_err += err
        heapq.heappush(heap, (-err, counter, pa, pb, value, err))
        counter += 1
    finished: list[tuple[float, float, float, float]] = []
    splits = 0
    while heap and splits < cfg.max_subdivisions:
        target = max(cfg.abs_tol, cfg.rel_tol * abs(total_val))
        if total_err + tail_bound <= target:
            break
        neg_err, _, pa, pb, pval, perr = heapq.heappop(heap)
        if pb - pa <= 1e-15 * max(abs(pa), abs(pb), 1e-300):
            # width at float resolution; keep the panel as is
            finished.append((pa, pb, pval, perr))
            continue
        mid = 0.5 * (pa + pb)
        (lv, le), (rv, re) = yield from evaluate([(pa, mid), (mid, pb)])
        evaluations += 2 * order
        splits += 1
        total_val += lv + rv - pval
        total_err += le + re - perr
        counter += 1
        heapq.heappush(heap, (-le, counter, pa, mid, lv, le))
        counter += 1
        heapq.heappush(heap, (-re, counter, mid, pb, rv, re))
    panels = finished + [(pa, pb, pv, pe) for _, _, pa, pb, pv, pe in heap]
    panels.sort()
    value = math.fsum(p[2] for p in panels)
    error = math.fsum(p[3] for p in panels) + tail_bound
    converged = error <= max(cfg.abs_tol, cfg.rel_tol * abs(value))
    return IntegrationResult(value, error, evaluations, converged)


def _lockstep(f: Callable, routines: list) -> list[IntegrationResult]:
    """Run adaptive coroutines together, one integrand call per round.

    `routines` holds (coroutine, to_args) pairs; to_args turns the nodes a
    coroutine asks for into the integrand's arguments.  Each round joins
    every pending request argument by argument, calls f once, and hands
    each coroutine its slice of the values.
    """
    results: list = [None] * len(routines)
    requests: dict[int, np.ndarray] = {}

    def advance(i, values):
        try:
            requests[i] = routines[i][0].send(values)
        except StopIteration as stop:
            results[i] = stop.value

    for i in range(len(routines)):
        advance(i, None)
    while requests:
        pending = list(requests.items())
        requests.clear()
        if len(pending) == 1:
            # a lone request needs no joining
            (i, nodes), = pending
            advance(i, _values(f(*routines[i][1](nodes)), len(nodes)))
            continue
        columns = zip(*(routines[i][1](nodes) for i, nodes in pending))
        sizes = [len(nodes) for _, nodes in pending]
        values = _values(f(*(np.concatenate(c) for c in columns)), sum(sizes))
        start = 0
        for (i, _), size in zip(pending, sizes):
            advance(i, values[start:start + size])
            start += size
    return results


def _single(x: np.ndarray) -> tuple[np.ndarray]:
    return (x,)


def integrate_1d(
    f: Callable[[np.ndarray], np.ndarray],
    interval: tuple[float, float],
    config: QuadratureConfig | None = None,
) -> IntegrationResult:
    """Adaptive integral of a vectorized integrand over an interval.

    The integrand must be elementwise: it maps a 1d array of nodes to the
    array of its values there, and each value depends only on its own
    node.  One call may cover many panels.  Endpoints may be infinite;
    tails are truncated where the integrand magnitude falls below
    config.tail_cutoff and the truncated mass is added to the error
    estimate.  The reported error estimate is the sum of per-panel
    nested-rule differences plus tail bounds.
    """
    cfg = config or QuadratureConfig()
    return _lockstep(f, [(_adaptive(*interval, cfg), _single)])[0]


# --- 2d domains ----------------------------------------------------------


@dataclass(frozen=True)
class Rectangle:
    x_range: tuple[float, float]
    y_range: tuple[float, float]


class ConvexPolygon:
    """Convex polygon given by its vertices (any order)."""

    def __init__(self, vertices: Sequence[tuple[float, float]]):
        pts = [(float(x), float(y)) for x, y in vertices]
        if len(pts) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        cx = sum(p[0] for p in pts) / len(pts)
        cy = sum(p[1] for p in pts) / len(pts)
        pts.sort(key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
        self.vertices = pts

    def x_section(self, y: float) -> tuple[float, float] | None:
        """x-interval of the horizontal section at height y."""
        xs = []
        n = len(self.vertices)
        for i in range(n):
            (x0, y0), (x1, y1) = self.vertices[i], self.vertices[(i + 1) % n]
            if y0 == y1:
                if y0 == y:
                    xs.extend([x0, x1])
                continue
            lo, hi = min(y0, y1), max(y0, y1)
            if lo <= y <= hi:
                s = (y - y0) / (y1 - y0)
                xs.append(x0 + s * (x1 - x0))
        if not xs:
            return None
        return min(xs), max(xs)


@dataclass(frozen=True)
class Sphere:
    """Unit sphere with its surface measure; integrands take (nx, ny, nz)."""

    radius: float = 1.0


def integrate_2d(
    f: Callable,
    domain,
    config: QuadratureConfig | None = None,
) -> IntegrationResult:
    """Iterated adaptive integral over a rectangle, polygon, or sphere.

    The integrand must be elementwise, and it receives 1d arrays of equal
    shape: f(x, y) for planar domains, where y is an array of x's shape
    (not a scalar), and f(nx, ny, nz) for the sphere.  One call covers
    the inner nodes of many sections: the inner integrals of an outer
    panel run in lockstep, one integrand call per round.  Inner integrals
    run at a tightened tolerance; their error estimates are folded into
    the total.
    """
    cfg = config or QuadratureConfig()
    inner_cfg = replace(cfg, abs_tol=cfg.abs_tol / 8.0, rel_tol=cfg.rel_tol / 8.0)

    # each domain is an outer interval plus a section map y -> (inner
    # nodes -> integrand arguments, inner interval, weight), None where empty
    if isinstance(domain, Rectangle):
        x_range, outer_interval = domain.x_range, domain.y_range

        def section(y):
            return (lambda x: (x, np.full_like(x, y))), x_range, 1.0

    elif isinstance(domain, ConvexPolygon):
        outer_interval = (
            min(p[1] for p in domain.vertices),
            max(p[1] for p in domain.vertices),
        )

        def section(y):
            xs = domain.x_section(y)
            if xs is None or xs[0] >= xs[1]:
                return None
            return (lambda x: (x, np.full_like(x, y))), xs, 1.0

    elif isinstance(domain, Sphere):
        r = domain.radius
        outer_interval = (0.0, math.pi)

        def section(theta):
            st, ct = math.sin(theta), math.cos(theta)

            def ring(phi):
                return (r * st * np.cos(phi), r * st * np.sin(phi),
                        np.full_like(phi, r * ct))

            return ring, (0.0, 2.0 * math.pi), st * r * r

    else:
        raise ValueError(f"unsupported 2d domain: {domain!r}")

    evals = 0
    inner_err = 0.0
    inner_ok = True

    def outer(ys):
        nonlocal evals, inner_err, inner_ok
        out = np.zeros(len(ys))
        cuts = [(i, cut) for i, cut in enumerate(map(section, ys)) if cut is not None]
        results = _lockstep(f, [
            (_adaptive(*interval, inner_cfg), to_args)
            for _, (to_args, interval, _) in cuts
        ])
        for (i, (_, _, weight)), res in zip(cuts, results):
            evals += res.evaluations
            inner_err = max(inner_err, res.error_estimate)
            inner_ok = inner_ok and res.converged
            out[i] = res.value * weight
        return out

    res = integrate_1d(outer, outer_interval, cfg)
    error = res.error_estimate + inner_err * (outer_interval[1] - outer_interval[0])
    return IntegrationResult(res.value, error, evals, res.converged and inner_ok)


# --- asymptotic fits -----------------------------------------------------


@dataclass(frozen=True)
class AsymptoticFit:
    """Least-squares fit of samples (t, value) to sum_k c_k L^k, L = -log t."""

    powers: tuple[int, ...]
    coefficients: dict[int, float]
    residual_rms: float
    sample_count: int = field(default=0)

    def predict(self, t: float) -> float:
        big_l = -math.log(t)
        return sum(c * big_l**k for k, c in self.coefficients.items())


def fit_asymptotic(
    samples: Sequence[tuple[float, float]],
    powers: Sequence[int],
    fixed: dict[int, float] | None = None,
) -> AsymptoticFit:
    """Fit sampled values against powers of L = -log t.

    fixed pins selected coefficients; only the remaining ones are free.
    Requires more samples than powers and a decently spread t-grid
    (max L / min L >= 1.5), otherwise the normal equations are too close
    to degenerate to trust.
    """
    powers = list(powers)
    if len(set(powers)) != len(powers):
        raise ValueError("powers must be distinct")
    fixed = dict(fixed or {})
    for k in fixed:
        if k not in powers:
            raise ValueError(f"fixed power {k} not among powers {powers}")
    if len(samples) < len(powers) + 1:
        raise ConditioningError(
            f"need at least {len(powers) + 1} samples for {len(powers)} powers, "
            f"got {len(samples)}"
        )
    ts = np.array([s[0] for s in samples], dtype=float)
    vals = np.array([s[1] for s in samples], dtype=float)
    if np.any(ts <= 0.0) or np.any(ts >= 1.0):
        raise ValueError("samples need t in (0, 1)")
    big_l = -np.log(ts)
    if big_l.max() / big_l.min() < 1.5:
        raise ConditioningError(
            "t-grid spread too narrow: max L / min L = "
            f"{big_l.max() / big_l.min():.3f} < 1.5"
        )
    residual = vals.copy()
    for k, c in fixed.items():
        residual -= c * big_l**k
    free = [k for k in powers if k not in fixed]
    coeffs = dict(fixed)
    if free:
        design = np.column_stack([big_l**k for k in free])
        scale = np.abs(design).max(axis=0)
        solution, _, rank, _ = np.linalg.lstsq(design / scale, residual, rcond=None)
        if rank < len(free):
            raise ConditioningError("degenerate design matrix")
        for k, c in zip(free, solution / scale):
            coeffs[k] = float(c)
    model = np.zeros_like(vals)
    for k, c in coeffs.items():
        model += c * big_l**k
    rms = float(np.sqrt(np.mean((model - vals) ** 2)))
    return AsymptoticFit(tuple(powers), coeffs, rms, len(samples))

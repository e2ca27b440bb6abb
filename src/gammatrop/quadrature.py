"""Deterministic adaptive quadrature and asymptotic fitting.

One fixed nested interpolatory rule pair per config (open rules, so
integrable endpoint singularities never get evaluated at the endpoint),
bisection of the worst panel, and a reduction order that does not depend
on scheduling.  Rerunning with the same config is bit-identical.

One adaptive loop serves 1d and 2d: a heap of panels, each a box with
its value and error, of which each round bisects the worst and evaluates
both children in one integrand call.  A box is an interval (a, b) in 1d,
whose panel rule is the fine rule with an error of 1.5 times its
difference to the coarse rule.  In 2d the domain is a list of patches,
(u, v) boxes (u0, u1, v0, v1) with a map to the integrand's arguments and
a jacobian: the identity for a rectangle, (theta, phi) with
r^2 sin(theta) for the sphere, and a fan of Duffy-mapped unit squares for
a convex polygon.  A 2d panel takes the tensor product of the fine rule
and an error from the coarse rule along each axis.  Every weight of both
rules is positive, so a non-finite node makes the panel's value
non-finite; such a panel gets error inf.

Integrands must be elementwise: each value depends only on the arguments
at its own node, and one call may cover many panels.  Planar integrands
get y as an array of x's shape, not a scalar.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
import math
from dataclasses import dataclass, field
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
    max_subdivisions: int = 2000   # splits per panel heap: one heap per 1d
                                   # interval or half-line, one per 2d integral
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
    if not math.isfinite(err):
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


def _panels_1d(f, boxes, to_args, order: int):
    """The intervals `boxes`, in one integrand call, as heap entries.

    Returns the (value, error, axis, box) of each interval and the number
    of evaluations.  `to_args` is unused: the nodes are the arguments.
    """
    nodes = _rule(order)[0]
    x = np.concatenate([0.5 * (a + b) + 0.5 * (b - a) * nodes for a, b in boxes])
    y = _values(f(x), x.size)
    entries = [
        (*_panel_sums(y[k * order:(k + 1) * order], a, b, order), 0, (a, b))
        for k, (a, b) in enumerate(boxes)
    ]
    return entries, x.size


def _find_tail_cutoff(f, start: float, direction: int, cfg: QuadratureConfig):
    """Truncation point for an unbounded tail, plus a bound on what is cut.

    Probes f one point at a time at geometrically growing offsets until
    |f| stays below tail_cutoff twice in a row.  The discarded mass is
    bounded using the decay rate observed between the last two probes;
    if |f| did not fall between them, by |f| times their distance.
    The probe points are also returned: they seed the initial panels, so
    mass far from the finite endpoint cannot hide between rule nodes.
    """
    offset = 1.0
    below = 0
    probes: list[float] = []
    mags: list[float] = []
    for _ in range(80):
        point = start + direction * offset
        probes.append(point)
        mags.append(abs(float(_values(f(np.array([point])), 1)[0])))
        if mags[-1] < cfg.tail_cutoff:
            below += 1
            if below >= 2:
                break
        else:
            below = 0
        offset *= 2.0
    (prev_point, point), (prev_mag, mag) = probes[-2:], mags[-2:]
    if mag == 0.0:
        bound = 0.0
    elif mag < prev_mag:
        decay = math.log(prev_mag / mag) / abs(point - prev_point)
        bound = 4.0 * mag / decay
    else:
        bound = 4.0 * mag * max(abs(point - prev_point), 1.0)
    return point, bound, probes


def _meets_tolerance(error: float, value: float, cfg: QuadratureConfig) -> bool:
    """Whether error is within the target; a non-finite value never is."""
    return math.isfinite(value) and error <= max(cfg.abs_tol, cfg.rel_tol * abs(value))


def _at_float_width(a: float, b: float) -> bool:
    """Whether [a, b] is too narrow to bisect; such a panel is kept as is."""
    return b - a <= 1e-15 * max(abs(a), abs(b), 1e-300)


def _cubature(f, rule, patches, cfg: QuadratureConfig, tail_bound=0.0, evaluations=0):
    """The adaptive panel loop of one integral, in 1d and 2d alike.

    `patches` is a list of (boxes, to_args); `rule(f, boxes, to_args,
    order)` evaluates the boxes in one integrand call and returns their
    (value, error, axis, box) entries and the evaluation count.  Each round
    bisects the worst panel along its axis, for at most max_subdivisions
    rounds.  A panel whose error is inf is left out of the running totals
    and counted instead; the loop does not stop while any is left.  Value
    and error are each summed over all panels at the end, and tail_bound
    is added to the error.
    """
    heap = []  # entries: (-err, tie_breaker, value, err, axis, box, to_args)
    tie = itertools.count()
    total_val = total_err = 0.0
    infinite = 0

    def push(boxes, to_args):
        nonlocal total_val, total_err, infinite, evaluations
        entries, count = rule(f, boxes, to_args, cfg.rule_order)
        evaluations += count
        for value, err, axis, box in entries:
            if err == math.inf:
                infinite += 1
            else:
                total_val += value
                total_err += err
            heapq.heappush(heap, (-err, next(tie), value, err, axis, box, to_args))

    for boxes, to_args in patches:
        push(boxes, to_args)
    finished: list[tuple[float, float]] = []
    splits = 0
    while heap and splits < cfg.max_subdivisions:
        if not infinite and _meets_tolerance(total_err + tail_bound, total_val, cfg):
            break
        _, _, value, err, axis, box, to_args = heapq.heappop(heap)
        i = 2 * axis  # the axis's (lo, hi) in the box
        lo, hi = box[i:i + 2]
        if _at_float_width(lo, hi):
            finished.append((value, err))
            continue
        splits += 1
        if err == math.inf:
            infinite -= 1
        else:
            total_val -= value
            total_err -= err
        mid = 0.5 * (lo + hi)
        push([box[:i + 1] + (mid,) + box[i + 2:], box[:i] + (mid,) + box[i + 1:]], to_args)
    panels = finished + [entry[2:4] for entry in heap]
    value = math.fsum(v for v, _ in panels)
    error = math.fsum(e for _, e in panels) + tail_bound
    return IntegrationResult(value, error, evaluations, _meets_tolerance(error, value, cfg))


def _integrate_interval(f, a: float, b: float, cfg: QuadratureConfig) -> IntegrationResult:
    """One run of the panel loop over [a, b], of which one end may be infinite."""
    tail_bound = 0.0
    probes: list[float] = []
    if math.isinf(b):
        b, tail_bound, probes = _find_tail_cutoff(f, a, +1, cfg)
    elif math.isinf(a):
        a, tail_bound, probes = _find_tail_cutoff(f, b, -1, cfg)
    if not a < b:
        return IntegrationResult(0.0, tail_bound, len(probes), True)
    boundaries = [a] + sorted(p for p in probes if a < p < b) + [b]
    initial = list(zip(boundaries, boundaries[1:]))
    return _cubature(f, _panels_1d, [(initial, None)], cfg, tail_bound, len(probes))


def integrate_1d(
    f: Callable[[np.ndarray], np.ndarray],
    interval: tuple[float, float],
    config: QuadratureConfig | None = None,
) -> IntegrationResult:
    """Adaptive integral of a vectorized integrand over an interval.

    The integrand must be elementwise: it maps a 1d array of nodes to the
    array of its values there, and each value depends only on its own
    node.  One call covers all initial panels, or both children of a
    split.  Endpoints may be infinite; tails are truncated where the
    integrand magnitude falls below config.tail_cutoff and the truncated
    mass is added to the error estimate.  The whole real line is the sum
    of two half-line runs.  The reported error estimate is the sum of
    per-panel nested-rule differences plus tail bounds.
    """
    cfg = config or QuadratureConfig()
    a, b = (float(end) for end in interval)
    if not a < b:
        raise ValueError(f"interval must satisfy a < b, got ({a}, {b})")
    if not (math.isinf(a) and math.isinf(b)):
        return _integrate_interval(f, a, b, cfg)
    left = _integrate_interval(f, a, 0.0, cfg)
    right = _integrate_interval(f, 0.0, b, cfg)
    return IntegrationResult(
        left.value + right.value,
        left.error_estimate + right.error_estimate,
        left.evaluations + right.evaluations,
        left.converged and right.converged,
    )


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


@dataclass(frozen=True)
class Sphere:
    """Unit sphere with its surface measure; integrands take (nx, ny, nz)."""

    radius: float = 1.0


def _patches(domain) -> list[tuple[tuple[float, float, float, float], Callable]]:
    """The domain as (u, v) boxes, each with a map to (arguments, jacobian)."""
    if isinstance(domain, Rectangle):
        (x0, x1), (y0, y1) = domain.x_range, domain.y_range
        if not (-math.inf < x0 < x1 < math.inf and -math.inf < y0 < y1 < math.inf):
            raise ValueError(f"rectangle sides must be finite with a < b, got {domain}")
        return [((x0, x1, y0, y1), lambda u, v: ((u, v), 1.0))]
    if isinstance(domain, Sphere):
        r = domain.radius

        def sphere(theta, phi):
            ring = r * np.sin(theta)
            return (ring * np.cos(phi), ring * np.sin(phi), r * np.cos(theta)), r * ring

        return [((0.0, math.pi, 0.0, 2.0 * math.pi), sphere)]
    if isinstance(domain, ConvexPolygon):
        (x0, y0), *rest = domain.vertices
        patches = []
        for (x1, y1), (x2, y2) in zip(rest, rest[1:]):
            ax, ay, bx, by = x1 - x0, y1 - y0, x2 - x0, y2 - y0
            det = abs(ax * by - ay * bx)
            if det == 0.0:
                # collinear vertices: the fan triangle has no area
                continue

            def duffy(u, v, ax=ax, ay=ay, bx=bx, by=by, det=det):
                # the edge u = 0 collapses onto vertex 0
                s = 1.0 - v
                return (x0 + u * (s * ax + v * bx), y0 + u * (s * ay + v * by)), u * det

            patches.append(((0.0, 1.0, 0.0, 1.0), duffy))
        return patches
    raise ValueError(f"unsupported 2d domain: {domain!r}")


def _panels_2d(f, boxes, to_args, order: int):
    """The (u, v) boxes of one patch, in one integrand call, as heap entries.

    Each box takes the tensor product of the fine rule.  Its error is 1.5
    times the sum, over both axes, of its difference to the rule that is
    coarse along that axis, and it splits along the axis with the larger
    difference.  A box with a non-finite value splits across the axis with
    fewer non-finite line sums, so a singular line is cut off, not along.
    Returns the (value, error, axis, box) of each box, axis 0 for u and 1
    for v, and the number of evaluations.
    """
    nodes, weights, coarse = _rule(order)
    box = np.array(boxes)
    hu = 0.5 * (box[:, 1] - box[:, 0])
    hv = 0.5 * (box[:, 3] - box[:, 2])
    u = 0.5 * (box[:, :1] + box[:, 1:2]) + hu[:, None] * nodes
    v = 0.5 * (box[:, 2:3] + box[:, 3:]) + hv[:, None] * nodes
    u, v = np.broadcast_arrays(u[:, :, None], v[:, None, :])
    args, jacobian = to_args(u.ravel(), v.ravel())
    y = (_values(f(*args), u.size) * jacobian).reshape(u.shape)
    along_v = y @ weights
    along_u = weights @ y
    area = hu * hv
    fine = area * (along_v @ weights)
    # the weights are positive, so a non-finite node makes fine non-finite;
    # its differences below may be -inf - -inf, a nan that must not warn,
    # and the branch after them replaces its error and split axis
    bad = ~np.isfinite(fine)
    nonfinite = bad.any()
    with np.errstate(invalid="ignore") if nonfinite else contextlib.nullcontext():
        err_u = np.abs(fine - area * (along_v[:, 1::2] @ coarse))
        err_v = np.abs(fine - area * (along_u[:, 1::2] @ coarse))
    err = 1.5 * (err_u + err_v)
    split_v = err_v > err_u
    if nonfinite:
        err[bad] = math.inf
        # line sums along v at each u node, against along u at each v node
        split_v[bad] = (
            (~np.isfinite(along_v[bad])).sum(axis=1) > (~np.isfinite(along_u[bad])).sum(axis=1)
        )
    # False and True index the box as axes 0 (u) and 1 (v)
    return list(zip(fine.tolist(), err.tolist(), split_v.tolist(), boxes)), u.size


def integrate_2d(
    f: Callable,
    domain,
    config: QuadratureConfig | None = None,
) -> IntegrationResult:
    """Global adaptive integral over a rectangle, polygon, or sphere.

    The integrand must be elementwise, and it receives 1d arrays of equal
    shape: f(x, y) for planar domains and f(nx, ny, nz) for the sphere.
    The domain is cut into patches, each a (u, v) box with a map to the
    integrand's arguments and its jacobian: the identity for a rectangle,
    (theta, phi) with weight r^2 sin(theta) for the sphere, and for a
    polygon the fan of triangles from vertex 0, each the unit square under
    the Duffy map with jacobian u |det|.

    Every box is a panel of one heap, evaluated by the tensor product of
    the fine rule in one integrand call per patch.  Each round bisects the
    worst panel along its worse axis and evaluates both children in one
    call, for at most config.max_subdivisions rounds.  Value and error are
    the sums over all panels, and `converged` compares that error with the
    tolerance.
    """
    cfg = config or QuadratureConfig()
    patches = [([box], to_args) for box, to_args in _patches(domain)]
    return _cubature(f, _panels_2d, patches, cfg)


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

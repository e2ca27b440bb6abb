"""Deterministic adaptive quadrature and asymptotic fitting.

Two fixed nested rule pairs of 15 interior nodes, each with a coarse
rule on every other node: Fejer's, the interior cosine nodes with the
7-node cosine rule, and Gauss-Kronrod 15/7, the Kronrod nodes with the
Gauss-7 rule.  Both are open rules, so integrable endpoint singularities
never get evaluated at the endpoint.  Then bisection of the worst panels,
and a reduction order that does not depend on scheduling.  Rerunning
with the same config is bit-identical.

One adaptive loop serves 1d and 2d: a heap of panels, each a box with
its value and error.  Each round bisects the worst panels, every one
that a loop splitting only the worst panel per round would have to split
before it could stop, and evaluates all their children, of every patch,
in one integrand call per round.  A box is an interval (a, b) in 1d.
The 1d panel rule is Fejer's pair as one (2, 15) rule matrix, of the
fine weights and of the fine plus the coarse weights: this matrix times
the node values of all boxes of a call, one column per box, gives every
fine and coarse sum in one product.  A panel's value is its fine sum,
and its error is 1.5 times the difference to the coarse one.  In 2d the
domain is a list of patches, each a list of (u, v) boxes
(u0, u1, v0, v1) with a tensor rule and a map to the integrand's
arguments and a jacobian.  Every patch is a triangle under the Duffy map
of the unit square, and the integrand takes its point p: for a convex
polygon the fan of triangles from its first vertex, and for a `Sphere`
its facets, in the cone measure from the origin.
A 2d panel takes the tensor product of the fine rule and an error from
the coarse rule along each axis.  Its tensor rule is one (3, 225) matrix
on the 15 x 15 node values, u major, of outer products of a pair's 1d
rows: fine by fine, fine plus coarse along u by fine, and fine by fine
plus coarse along v.  This matrix times the node values of all boxes of
a patch gives every box's three sums in one product per patch.
A convex polygon takes Gauss-Kronrod's pair.  Its coarse rule is exact
to degree 13, against 7 for Fejer's, so the error estimate, which is
the coarse rule's error, is tight where the integrand is analytic, and
the loop stops splitting panels that are already exact: the zeta(3)
error integral of `periods.error_integral_dim2_b` takes a quarter of the
evaluations.  The 1d rule keeps Fejer's pair, since Gauss-Kronrod's
estimate under-counts the integral of x^-0.9 or x^-0.95 over (0, 1) at
tol 1e-8 and 1e-10, where Fejer's holds.  A `Sphere` keeps it too for
now, so the K3 period's numbers stay as they are; the two tensor rules
become one when it switches.  Every weight of every rule is positive, so
a non-finite node makes the panel's value non-finite; such a panel gets
error inf, and so does a 1d panel so narrow that two of its nodes round
onto one float.

Integrands must be elementwise: each value depends only on the arguments
at its own node, and one call may cover many panels.  Planar integrands
get y as an array of x's shape, not a scalar.
"""

from __future__ import annotations

import collections
import heapq
import itertools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConditioningError

__all__ = [
    "QuadratureConfig",
    "IntegrationResult",
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

    def __post_init__(self):
        for tol in (self.abs_tol, self.rel_tol):
            if isinstance(tol, bool):
                raise TypeError(f"tolerances must be numbers, got {tol!r}")
        # written as negations so that NaN fails them too; an infinite
        # tolerance would accept the first panels of any integral
        if not (0 < self.abs_tol < math.inf and 0 <= self.rel_tol < math.inf):
            raise ValueError("tolerances must be finite, abs_tol > 0 and rel_tol >= 0")

    @classmethod
    def from_json_dict(cls, data: dict) -> "QuadratureConfig":
        unknown = sorted(set(data) - {"abs_tol", "rel_tol"})
        if unknown:
            raise ValueError(f"unknown QuadratureConfig keys: {unknown}")
        # a string is parsed; any other value is checked by the constructor,
        # so a bool is rejected instead of read as 0 or 1
        return cls(**{
            key: float(value) if isinstance(value, str) else value
            for key, value in data.items()
        })


# what integrate_1d and integrate_2d run at when given no config
_DEFAULT_CONFIG = QuadratureConfig()


@dataclass(frozen=True)
class IntegrationResult:
    value: float
    error_estimate: float
    evaluations: int
    converged: bool


_RULE_ORDER = 15        # nodes of the fine rule; odd, so the coarse rule nests
_TAIL_CUTOFF = 1e-30    # |f| below this truncates unbounded tails
_MAX_SUBDIVISIONS = 2000  # splits per panel heap, one heap per 1d or 2d integral


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


def _rule_rows(weights: np.ndarray, coarse: np.ndarray) -> np.ndarray:
    """The (2, 15) rule matrix of a nested pair: the fine weights, and the
    fine plus the coarse weights, the coarse ones on every other node.
    Every entry is positive, so a non-finite node makes both sums
    non-finite and never meets a zero weight, where 0 * inf warns."""
    rows = np.vstack((weights, weights))
    rows[1, 1::2] += coarse
    return rows


@dataclass(frozen=True, eq=False)
class _TensorRule:
    """A 2d panel rule: the 1d nodes and fine weights of its pair, and the
    (3, 225) matrix on a box's 15 x 15 node values, u major, of the fine
    rule on both axes, and the fine plus the coarse rule along u, then
    along v, with the fine rule on the other axis.  Its entries are
    products of positive ones, so no node meets a zero weight.  Compared
    by identity, so a 2d patch's chart, (rule, to_args), is a dict key."""

    nodes: np.ndarray
    weights: np.ndarray
    matrix: np.ndarray


def _tensor_rule(nodes: np.ndarray, weights: np.ndarray, coarse: np.ndarray) -> _TensorRule:
    """The tensor rule of a 1d (nodes, fine weights, coarse weights) triple."""
    fine, both = _rule_rows(weights, coarse)
    matrix = np.stack((np.outer(fine, fine), np.outer(both, fine), np.outer(fine, both)))
    return _TensorRule(nodes, weights, matrix.reshape(3, -1))


def _mirrored(half: Sequence[float], sign: float = 1.0) -> np.ndarray:
    """A symmetric rule's values at all its nodes, from those at its first
    node to its middle one; sign -1 mirrors the nodes, odd about the middle."""
    half = np.array(half)
    return np.concatenate((half, sign * half[-2::-1]))


# Fejer's pair: the 15 interior cosine nodes, and the coarse weights on
# every other fine node
_NODES, _WEIGHTS = _interior_cosine_rule(_RULE_ORDER + 1)
_COARSE = _interior_cosine_rule((_RULE_ORDER + 1) // 2)[1]
# the 1d rule matrix
_RULE_1D = _rule_rows(_WEIGHTS, _COARSE)
# Gauss-Kronrod 15/7 (Kronrod 1965; QUADPACK's qk15): the Kronrod nodes,
# descending like the cosine nodes, with the Gauss-7 rule on every other
# one.  Kronrod is exact to degree 22 and Gauss to 13, against 15 and 7
# for Fejer's pair, so on an analytic panel the difference is tight.
_KRONROD_NODES = _mirrored((
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
), sign=-1.0)
_KRONROD_WEIGHTS = _mirrored((
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
))
_GAUSS_WEIGHTS = _mirrored((
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
))
# a `Sphere` takes Fejer's tensor rule and a convex polygon Gauss-Kronrod's
_FEJER_2D = _tensor_rule(_NODES, _WEIGHTS, _COARSE)
_KRONROD_2D = _tensor_rule(_KRONROD_NODES, _KRONROD_WEIGHTS, _GAUSS_WEIGHTS)


_FLOAT = np.dtype(float)


def _values(y, size: int) -> np.ndarray:
    """Integrand output as a float array of `size` values.

    A 0-d result is a constant and is broadcast; any other shape that is
    not (size,) raises, because in a batch it would shift the values of
    every later request.  A complex result raises TypeError, since the
    cast to float would drop its imaginary part.
    """
    y = np.asarray(y)
    # float64 output, the usual case, passes on one identity test
    if y.dtype is not _FLOAT:
        if y.dtype.kind == "c":
            raise TypeError(
                f"integrand returned {y.dtype} values; integrate the real "
                "and imaginary parts separately"
            )
        y = y.astype(float)
    if y.ndim == 0:
        return np.full(size, float(y))
    if y.shape != (size,):
        raise ValueError(
            f"integrand returned shape {y.shape} for {size} nodes; "
            "it must be elementwise"
        )
    return y


def _panels_1d(f, patches):
    """The intervals of a 1d round, in one integrand call, as heap entries.

    A 1d integral has one patch, (boxes, chart), and `chart` is unused:
    the nodes are the arguments.  The nodes of all boxes are one
    broadcast, one row per box, and _RULE_1D times their values gives
    every box's fine sum and fine plus coarse sum in one product; the rest
    is arithmetic on Python floats.  Returns a one-item list of the
    (value, error, axis, box) of each interval, and the number of
    evaluations.
    """
    [(boxes, _)] = patches
    mid_half = np.array([(0.5 * (a + b), 0.5 * (b - a)) for a, b in boxes])
    nodes = mid_half[:, :1] + mid_half[:, 1:] * _NODES
    y = _values(f(nodes.ravel()), nodes.size)
    # the rule is the left operand: with the node values on the left,
    # OpenBLAS's AVX-512 kernels warn "invalid value" on any non-finite
    # node, as if it met a zero; ndarray.dot skips the ufunc dispatch of @
    fine_sums, both_sums = _RULE_1D.dot(y.reshape(-1, _RULE_ORDER).T).tolist()
    entries = []
    for k, (box, fine, both) in enumerate(zip(boxes, fine_sums, both_sums)):
        a, b = box
        half = 0.5 * (b - a)
        value = half * fine
        # the difference to the coarse rule estimates its error; the 1.5
        # margin keeps it an upper bound for the fine rule even on
        # singular panels
        err = 1.5 * abs(value - half * (both - fine))
        # two adjacent nodes on one float leave both rules fewer points
        # than they weigh, and their agreement proves nothing
        if not err < math.inf or (_narrow(a, b) and not np.diff(nodes[k]).all()):
            err = math.inf
        entries.append((value, err, 0, box))
    return [entries], nodes.size


def _narrow(a: float, b: float) -> bool:
    """Whether two nodes of [a, b] may round onto one float.

    The nodes are 0.057 half apart, so that needs half < 4e-15 |a + b|;
    below 1e-13 |a + b| `_panels_1d` compares its nodes.
    """
    return 0.5 * (b - a) < 1e-13 * abs(a + b)


def _probe_points(start: float, direction: int):
    """The probe points of one tail: start + direction 2^k for k = 0..79,
    skipping any offset that rounds back onto the start or the last probe."""
    last = start
    offset = 0.5
    for _ in range(80):
        offset *= 2.0
        point = start + direction * offset
        if point != last:
            yield point
            last = point


def _find_tail_cutoffs(f, tails):
    """Truncation points for unbounded tails, plus bounds on what is cut.

    `tails` lists (start, direction) pairs.  Each tail probes f at
    geometrically growing offsets until |f| stays below _TAIL_CUTOFF
    twice in a row, and one integrand call carries the next probe of
    every tail still probing.  A tail's probes, stop, cutoff and bound do
    not depend on the other tails: they are those of probing it alone.
    Its discarded mass is bounded using the decay rate observed between
    its last two probes; if |f| did not fall between them, by |f| times
    their distance.  Returns one (cutoff, bound, probes) per tail.  The
    probe points seed the initial panels, so mass far from the finite
    endpoint cannot hide between rule nodes.  An offset that rounds back
    onto the start or the last probe is skipped; a tail probed fewer than
    two times is not cut at all, and its bound is inf.
    """
    points = [_probe_points(start, direction) for start, direction in tails]
    probes: list[list[float]] = [[] for _ in tails]
    mags: list[list[float]] = [[] for _ in tails]
    below = [0] * len(tails)
    live = list(range(len(tails)))
    while live:
        step = [(i, point) for i in live if (point := next(points[i], None)) is not None]
        if not step:
            break
        values = _values(f(np.array([point for _, point in step])), len(step)).tolist()
        live = []
        for (i, point), value in zip(step, values):
            probes[i].append(point)
            mags[i].append(abs(value))
            below[i] = below[i] + 1 if mags[i][-1] < _TAIL_CUTOFF else 0
            if below[i] < 2:
                live.append(i)
    return [
        _tail_cut(start, tail_probes, tail_mags)
        for (start, _), tail_probes, tail_mags in zip(tails, probes, mags)
    ]


def _tail_cut(start: float, probes: list[float], mags: list[float]):
    """The (cutoff, bound, probes) of one tail from its probes' |f|."""
    if len(probes) < 2:
        return start, math.inf, probes
    (prev_point, point), (prev_mag, mag) = probes[-2:], mags[-2:]
    if mag == 0.0:
        bound = 0.0
    elif mag < prev_mag:
        decay = math.log(prev_mag / mag) / abs(point - prev_point)
        bound = 4.0 * mag / decay
    else:
        bound = 4.0 * mag * max(abs(point - prev_point), 1.0)
    return point, bound, probes


def _target(value: float, cfg: QuadratureConfig) -> float:
    """The error that value meets cfg's tolerance within; -inf for a
    non-finite value, which no sum of errors meets."""
    if not math.isfinite(value):
        return -math.inf
    return max(cfg.abs_tol, cfg.rel_tol * abs(value))


def _meets_tolerance(error: float, value: float, cfg: QuadratureConfig) -> bool:
    """Whether error is within the target; a non-finite value never is."""
    return error <= _target(value, cfg)


def _at_float_width(a: float, b: float) -> bool:
    """Whether [a, b] is too narrow to bisect; such a panel is kept as is."""
    return b - a <= 1e-15 * max(abs(a), abs(b), 1e-300)


def _panel_sums(finished, heap) -> tuple[float, float]:
    """The fsum of the values and of the errors of all panels, finished
    (value, error) pairs and `_cubature` heap entries alike."""
    panels = finished + [entry[2:4] for entry in heap]
    return math.fsum(v for v, _ in panels), math.fsum(e for _, e in panels)


def _cubature(f, rule, patches, cfg: QuadratureConfig, tail_bound=0.0, evaluations=0):
    """The adaptive panel loop of one integral, in 1d and 2d alike.

    `patches` is a list of (boxes, chart), the chart a dict key: None in
    1d and a (tensor rule, to_args) pair in 2d.  `rule(f, patches)` evaluates
    the boxes of every patch given in one integrand call and returns one
    list of (value, error, axis, box) entries per patch, and the
    evaluation count.  The initial patches are one such call.

    Each round bisects, along its axis, every panel that a loop splitting
    only the worst panel per round would have to split before its
    tolerance test could pass, and evaluates all their children, of every
    patch, in one call per round.  With the target fixed at the round's
    start, the round pops panels in heap order while the running error,
    less the panels popped so far, plus tail_bound still misses it:
    children only add error, and every panel below the popped one stays
    in the heap.  So wherever neither the cap nor a panel too narrow to
    split stops the loop, the final panel set, value, error and
    evaluation count are those of one split per round, up to the rounding
    of the running totals and a relative target that moves with the
    value.  Two cases split one panel per round, since there one split
    per round can stop early at a panel with inf error that is too narrow
    to split: every round once any panel has had error inf, and a panel
    whose children are narrow enough for `_panels_1d`'s exact node test
    (`_narrow`).  No round splits past _MAX_SUBDIVISIONS in all.

    A panel whose error is inf is left out of the running totals and
    counted instead; the loop does not stop on tolerance while any is
    left, and it stops at once when one of them is too narrow to split.
    Whenever the running totals meet the target, value and error are
    summed again over all panels by `_panel_sums`, and the loop stops
    only if those sums meet it too; otherwise they become the running
    totals.  So a loop that stops on tolerance reports converged.  The
    result is `_panel_sums` of the final panels, with tail_bound added
    to the error.
    """
    heap = []  # entries: (-err, tie_breaker, value, err, axis, box, chart)
    tie = itertools.count()
    total_val = total_err = 0.0
    infinite = 0
    had_inf = False

    def push(round_patches):
        nonlocal total_val, total_err, infinite, had_inf, evaluations
        if not round_patches:
            return
        entries, count = rule(f, round_patches)
        evaluations += count
        for (_, chart), patch_entries in zip(round_patches, entries):
            for value, err, axis, box in patch_entries:
                if err == math.inf:
                    infinite += 1
                    had_inf = True
                else:
                    total_val += value
                    total_err += err
                heapq.heappush(heap, (-err, next(tie), value, err, axis, box, chart))

    push(patches)
    finished: list[tuple[float, float]] = []
    splits = 0
    stuck = False
    while heap and splits < _MAX_SUBDIVISIONS and not stuck:
        if not infinite and _meets_tolerance(total_err + tail_bound, total_val, cfg):
            # the running totals drift by rounding; the stop is the fsum's
            total_val, total_err = _panel_sums(finished, heap)
            if _meets_tolerance(total_err + tail_bound, total_val, cfg):
                break
        target = _target(total_val, cfg)
        children = {}  # chart -> the children's boxes, in pop order
        while heap and splits < _MAX_SUBDIVISIONS:
            _, _, value, err, axis, box, chart = heap[0]
            i = 2 * axis  # the axis's (lo, hi) in the box
            lo, hi = box[i:i + 2]
            mid = 0.5 * (lo + hi)
            narrow = _narrow(lo, mid) or _narrow(mid, hi)
            if children and (narrow or total_err + tail_bound <= target):
                break
            heapq.heappop(heap)
            if _at_float_width(lo, hi):
                finished.append((value, err))
                # a panel that cannot be split keeps its inf error: the
                # integral cannot converge, and more splits cannot change that
                stuck = err == math.inf
                if stuck:
                    break
                continue
            splits += 1
            if err == math.inf:
                infinite -= 1
            else:
                total_val -= value
                total_err -= err
            children.setdefault(chart, []).extend(
                (box[:i + 1] + (mid,) + box[i + 2:], box[:i] + (mid,) + box[i + 1:])
            )
            if had_inf or narrow:
                break
        push([(boxes, chart) for chart, boxes in children.items()])
    else:  # no stop on tolerance, whose break leaves the final sums
        total_val, total_err = _panel_sums(finished, heap)
    error = total_err + tail_bound
    return IntegrationResult(total_val, error, evaluations, _meets_tolerance(error, total_val, cfg))


def integrate_1d(
    f: Callable[[np.ndarray], np.ndarray],
    interval: tuple[float, float],
    config: QuadratureConfig | None = None,
) -> IntegrationResult:
    """Adaptive integral of a vectorized integrand over an interval.

    The integrand must be elementwise: it maps a 1d array of nodes to the
    array of its values there, and each value depends only on its own
    node.  One call covers all initial panels, or the children of every
    panel that one round of the adaptive loop splits (see `_cubature`).
    Endpoints may be infinite; tails are truncated where the
    integrand magnitude falls below 1e-30 and the truncated
    mass is added to the error estimate.  Each infinite tail is probed
    one point per integrand call, and one call carries the next probe of
    every tail still probing, so both tails of the whole real line, split
    at 0 and probed from there, share their calls; one panel heap runs
    over both halves.  The reported error estimate is the sum of
    per-panel nested-rule differences plus tail bounds.
    """
    a, b = (float(end) for end in interval)
    if not a < b:
        raise ValueError(f"interval must satisfy a < b, got ({a}, {b})")
    # the whole line is split at 0, and both its tails are probed from there
    split = [0.0] if math.isinf(a) and math.isinf(b) else []
    ends = [a, b]
    tails = {  # the side of each infinite end, 0 for a and 1 for b
        side: (split[0] if split else start, direction)
        for side, start, direction in ((0, b, -1), (1, a, +1))
        if math.isinf(ends[side])
    }
    tail_bound = 0.0
    probes: list[float] = []
    cuts = _find_tail_cutoffs(f, list(tails.values()))
    for side, (end, bound, found) in zip(tails, cuts):
        ends[side] = end
        tail_bound += bound
        probes += found
    a, b = ends
    boundaries = [a] + sorted(p for p in probes + split if a < p < b) + [b]
    initial = list(zip(boundaries, boundaries[1:]))
    # only a tail that cannot move from its start leaves a >= b; it has
    # no panel, and its bound is inf
    patches = [(initial, None)] if a < b else []
    return _cubature(f, _panels_1d, patches, config or _DEFAULT_CONFIG, tail_bound, len(probes))


# --- 2d domains ----------------------------------------------------------


class ConvexPolygon:
    """Convex polygon given by its vertices, the fan apex first.

    The vertices are ordered by angle about their centroid, and the cycle
    is then rotated to start at the first vertex given, which becomes
    `vertices[0]`, the apex of the fan that `integrate_2d` integrates
    over.  The rest may come in any order: two lists with the same first
    vertex give the same cycle, however the float centroid rounds.
    Points on an edge are allowed; a non-finite vertex, or one strictly
    inside the hull of the others, raises ValueError.
    """

    def __init__(self, vertices: Sequence[tuple[float, float]]):
        pts = [(float(x), float(y)) for x, y in vertices]
        if len(pts) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        if not all(math.isfinite(c) for p in pts for c in p):
            raise ValueError(f"polygon vertices must be finite, got {pts}")
        cx = sum(p[0] for p in pts) / len(pts)
        cy = sum(p[1] for p in pts) / len(pts)
        apex = pts[0]
        pts.sort(key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
        # the rounding of the centroid can only move the cycle's start
        # (an angle of pi read as -pi), which this rotation fixes
        k = pts.index(apex)
        pts = pts[k:] + pts[:k]
        # sorted by angle about the centroid, a convex polygon turns left or
        # goes straight at every vertex; a right turn is a dent, whose fan
        # triangles from vertex 0 would overlap or leave the polygon
        for (x0, y0), (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1], pts[2:] + pts[:2]):
            if (x1 - x0) * (y2 - y1) - (y1 - y0) * (x2 - x1) < 0:
                raise ValueError(f"polygon vertices are not in convex position: {pts}")
        self.vertices = pts


class Sphere:
    """The unit sphere as the cones from the origin of facet triangles.

    `facets` are triangles (a, b, c) in 3-space whose cones from the
    origin tile space, such as the faces of a polytope around the origin.
    Integrands take the facet point p = a + x (b - a) + y (c - a) in the
    cone measure |det(a, b, c)| dx dy, which integrates a g homogeneous of
    degree -3, such as g(p / |p|) / |p|^3, as the unit sphere's area
    measure does.  A non-finite vertex, a facet whose plane passes through
    the origin, facets whose solid angles do not sum to 4 pi, or an edge
    (an unordered pair of vertices) that is not shared by exactly two
    facets raise ValueError.
    """

    def __init__(self, facets: Sequence[Sequence[tuple[float, float, float]]]):
        tris = [tuple(tuple(float(c) for c in p) for p in facet) for facet in facets]
        if not tris or any(len(tri) != 3 or any(len(p) != 3 for p in tri) for tri in tris):
            raise ValueError(f"facets must be triangles in 3-space, got {tris}")
        if not all(math.isfinite(c) for tri in tris for p in tri for c in p):
            raise ValueError(f"facet vertices must be finite, got {tris}")
        solid_angle = []
        for a, b, c in tris:
            det = _det3(a, b, c)
            if det == 0.0:
                raise ValueError(f"facet {(a, b, c)} lies in a plane through the origin")
            # Van Oosterom and Strackee: tan(omega / 2) = |det| / this
            na, nb, nc = (math.hypot(*p) for p in (a, b, c))
            denominator = na * nb * nc + _dot(a, b) * nc + _dot(a, c) * nb + _dot(b, c) * na
            solid_angle.append(2.0 * math.atan2(abs(det), denominator))
        # overlapping cones, or a gap between them, change the total
        total = math.fsum(solid_angle)
        if not math.isclose(total, 4.0 * math.pi, rel_tol=1e-9):
            raise ValueError(f"facet cones cover a solid angle of {total}, not 4 pi")
        # a double cover of half the sphere has the right total; its edges
        # through the doubled region belong to four facets
        edges = collections.Counter(
            frozenset(pair) for tri in tris for pair in itertools.combinations(tri, 2)
        )
        loose = sorted(tuple(sorted(edge)) for edge, count in edges.items() if count != 2)
        if loose:
            raise ValueError(f"facet edges not shared by exactly two facets: {loose}")
        self.facets = tris


def _dot(p, q) -> float:
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]


def _det3(a, b, c) -> float:
    """det(a, b, c) = a . (b x c)."""
    cross = (b[1] * c[2] - b[2] * c[1], b[2] * c[0] - b[0] * c[2], b[0] * c[1] - b[1] * c[0])
    return _dot(a, cross)


# Each sphere facet starts as 6 boxes, cut at u = 3/4 and v = 1/4, 3/4, so
# that every facet edge (u = 1, v = 0, v = 1) lies in a thin panel.  A band
# along an edge that is narrower than the gap between a box's edge and its
# outermost node is otherwise missed by both rules, and the loop stops on
# their false agreement (K3 at t = 1e-30 with one box per facet).
_FACET_BOXES = tuple(
    (u0, u1, v0, v1)
    for u0, u1 in itertools.pairwise((0.0, 0.75, 1.0))
    for v0, v1 in itertools.pairwise((0.0, 0.25, 0.75, 1.0))
)


def _patches(
    domain,
) -> list[tuple[Sequence[tuple[float, float, float, float]], tuple[_TensorRule, Callable]]]:
    """The domain as lists of (u, v) boxes, each with a chart: its tensor
    rule and a map to (arguments, jacobian), a Duffy triangle's point p,
    and u |det(b - a, c - a)| on a fan triangle or the cone measure
    u |det(a, b, c)| on a `Sphere` facet."""
    if isinstance(domain, Sphere):
        boxes, triangles, rule = _FACET_BOXES, domain.facets, _FEJER_2D
    elif isinstance(domain, ConvexPolygon):
        a, *rest = domain.vertices
        boxes, triangles = [(0.0, 1.0, 0.0, 1.0)], [(a, b, c) for b, c in zip(rest, rest[1:])]
        rule = _KRONROD_2D
    else:
        raise ValueError(f"unsupported 2d domain: {domain!r}")
    patches = []
    for a, b, c in triangles:
        e1 = tuple(q - p for p, q in zip(a, b))
        e2 = tuple(q - p for p, q in zip(a, c))
        w = abs(_det3(a, b, c) if len(a) == 3 else e1[0] * e2[1] - e1[1] * e2[0])
        if w == 0.0:  # collinear fan vertices
            continue

        def to_args(u, v, a=a, e1=e1, e2=e2, w=w):
            s = 1.0 - v
            return tuple(o + u * (s * x + v * y) for o, x, y in zip(a, e1, e2)), u * w

        patches.append((boxes, (rule, to_args)))
    return patches


def _panels_2d(f, patches):
    """The (u, v) boxes of a round's patches, in one integrand call, as heap entries.

    Each patch (boxes, (rule, to_args)) places its boxes' nodes by its
    `_TensorRule` and maps them through its own chart; the arguments of
    all patches are joined for one integrand call, and the values split
    back per patch and weighted by its jacobian.  Each box takes the
    tensor product of the fine rule.  The rule's matrix times the node
    values of a patch's boxes, one column per box, gives each box's fine
    sum and its sums under the rule that is coarse along u and along v,
    each plus the fine sum, in one product per patch, so that a box's
    sums round as with its patch alone; the rest is arithmetic on Python
    floats.  A box's error is 1.5 times the sum, over both axes, of its
    difference to the coarse rule along that axis, and it splits along
    the axis with the larger difference.  A box with a non-finite value
    splits across the axis with fewer non-finite line sums, so a singular
    line is cut off, not along.  Returns, per patch, the (value, error,
    axis, box) of each box, axis 0 for u and 1 for v, and the number of
    evaluations.
    """
    halves, charted = [], []
    for boxes, (rule, to_args) in patches:
        bounds = np.array(boxes)
        mid = 0.5 * (bounds[:, ::2] + bounds[:, 1::2])
        half = 0.5 * (bounds[:, 1::2] - bounds[:, ::2])
        # the u and the v nodes of each box, as (k, 2, 15)
        nodes = mid[:, :, None] + half[:, :, None] * rule.nodes
        # the (u, v) grid of each box, u major: each u node repeated and
        # the v nodes repeated as a block
        u = nodes[:, 0].repeat(_RULE_ORDER)
        v = nodes[:, 1:].repeat(_RULE_ORDER, axis=1).ravel()
        halves.append(half.tolist())
        charted.append(to_args(u, v))
    args = [np.concatenate(column) for column in zip(*(args for args, _ in charted))]
    count = args[0].size
    values = _values(f(*args), count)
    entries = []
    start = 0
    for (boxes, (rule, _)), half, (_, jacobian) in zip(patches, halves, charted):
        stop = start + len(boxes) * _RULE_ORDER * _RULE_ORDER
        y = (values[start:stop] * jacobian).reshape(-1, _RULE_ORDER * _RULE_ORDER)
        start = stop
        # the rule is the left operand, as in _panels_1d
        sums = rule.matrix.dot(y.T).tolist()
        patch_entries = []
        for k, (box, (hu, hv), fine, both_u, both_v) in enumerate(zip(boxes, half, *sums)):
            area = hu * hv
            value = area * fine
            err_u = abs(value - area * (both_u - fine))
            err_v = abs(value - area * (both_v - fine))
            err = 1.5 * (err_u + err_v)
            split_v = err_v > err_u
            if not err < math.inf:
                # the weights are positive, so a non-finite node makes the
                # value non-finite; split across the axis with fewer
                # non-finite line sums, along v at each u node against
                # along u at each v node
                err = math.inf
                grid = y[k].reshape(_RULE_ORDER, _RULE_ORDER)
                along_v = rule.weights.dot(grid.T)
                along_u = rule.weights.dot(grid)
                split_v = bool((~np.isfinite(along_v)).sum() > (~np.isfinite(along_u)).sum())
            # False and True index the box as axes 0 (u) and 1 (v)
            patch_entries.append((value, err, split_v, box))
        entries.append(patch_entries)
    return entries, count


def integrate_2d(
    f: Callable,
    domain,
    config: QuadratureConfig | None = None,
) -> IntegrationResult:
    """Global adaptive integral over a convex polygon or a `Sphere`.

    The integrand must be elementwise, and it receives 1d arrays of equal
    shape, the coordinates of the point p: f(x, y) for a `ConvexPolygon`
    and f(x, y, z) for a `Sphere`.  The domain is cut into patches, each a
    triangle (a, b, c) as the unit square under the Duffy map
    p = a + u ((1 - v) (b - a) + v (c - a)), with jacobian u w.  For a
    polygon the triangles are the fan from vertex 0, the first vertex its
    caller gave (see `ConvexPolygon`), with w = |det(b - a, c - a)|, so a
    peak or a point singularity at that vertex sits at the collapsed edge
    u = 0 of every triangle.  For a `Sphere` they are its facets, with
    w = |det(a, b, c)|: f is integrated in the facets' cone measure, which
    for f homogeneous of degree -3 is its integral over the unit sphere.
    Each facet starts as 6 boxes, so that its edges lie in thin panels.

    Every box is a panel of one heap, evaluated by the tensor product of
    the fine rule of its domain's pair: Gauss-Kronrod 15/7 on a polygon,
    whose estimate is tight on analytic panels, and Fejer's on a `Sphere`
    (see the module docstring); all initial boxes take one integrand
    call.  Each round
    bisects the worst panels along their worse axes, those that
    `_cubature` must split before it can stop, and evaluates their
    children, of every patch, in one call per round, for at most
    _MAX_SUBDIVISIONS splits in all.  Value and error are the sums over
    all panels, and `converged` compares that error with the tolerance.
    """
    return _cubature(f, _panels_2d, _patches(domain), config or _DEFAULT_CONFIG)


# --- asymptotic fits -----------------------------------------------------


def _is_real(x) -> bool:
    """Whether x is a real number; a float array would read a bool or parse a string."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


@dataclass(frozen=True)
class AsymptoticFit:
    """Least-squares fit of samples (t, value) to sum_k c_k L^k, L = -log t."""

    powers: tuple[int, ...]
    coefficients: dict[int, float]
    residual_rms: float
    sample_count: int = field(default=0)


def fit_asymptotic(
    samples: Sequence[tuple[float, float]],
    powers: Sequence[int],
) -> AsymptoticFit:
    """Fit sampled values against powers of L = -log t.

    powers are ints, not bools, and may be negative.  Each sample's t and
    value must be finite real numbers, not bools or strings.  Requires
    more samples than powers and a decently spread t-grid (max L / min L
    >= 1.5), otherwise the normal equations are too close to degenerate
    to trust.
    """
    powers = list(powers)
    if any(isinstance(k, bool) or not isinstance(k, int) for k in powers):
        raise ValueError(f"powers must be ints, got {powers}")
    if len(set(powers)) != len(powers):
        raise ValueError("powers must be distinct")
    if len(samples) < len(powers) + 1:
        raise ConditioningError(
            f"need at least {len(powers) + 1} samples for {len(powers)} powers, "
            f"got {len(samples)}"
        )
    # the float arrays below would read True as 1.0 and parse "0.5"
    if not all(_is_real(x) for s in samples for x in (s[0], s[1])):
        raise ValueError("samples must be real numbers, not bools or strings")
    ts = np.array([s[0] for s in samples], dtype=float)
    vals = np.array([s[1] for s in samples], dtype=float)
    # NaN passes the range check below, and lstsq would not reject it
    if not (np.isfinite(ts).all() and np.isfinite(vals).all()):
        raise ValueError("samples must be finite")
    if np.any(ts <= 0.0) or np.any(ts >= 1.0):
        raise ValueError("samples need t in (0, 1)")
    big_l = -np.log(ts)
    if big_l.max() / big_l.min() < 1.5:
        raise ConditioningError(
            "t-grid spread too narrow: max L / min L = "
            f"{big_l.max() / big_l.min():.3f} < 1.5"
        )
    coeffs = {}
    if powers:
        design = np.column_stack([big_l**k for k in powers])
        scale = np.abs(design).max(axis=0)
        solution, _, rank, _ = np.linalg.lstsq(design / scale, vals, rcond=None)
        if rank < len(powers):
            raise ConditioningError("degenerate design matrix")
        coeffs = {k: float(c) for k, c in zip(powers, solution / scale)}
    model = np.zeros_like(vals)
    for k, c in coeffs.items():
        model += c * big_l**k
    rms = float(np.sqrt(np.mean((model - vals) ** 2)))
    return AsymptoticFit(tuple(powers), coeffs, rms, len(samples))

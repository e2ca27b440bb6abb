"""Deterministic adaptive quadrature and asymptotic fitting.

One fixed nested interpolatory rule pair, 15 interior cosine nodes and
the 7-node rule on every other one (open rules, so integrable endpoint
singularities never get evaluated at the endpoint), bisection of the
worst panel, and a reduction order that does not depend on scheduling.
Rerunning with the same config is bit-identical.

One adaptive loop serves 1d and 2d: a heap of panels, each a box with
its value and error, of which each round bisects the worst and evaluates
both children in one integrand call.  A box is an interval (a, b) in 1d.
The 1d panel rule is one (2, 15) rule matrix, of the fine weights and of
the fine plus the coarse weights: this matrix times the node values of
all boxes of a call, one column per box, gives every fine and coarse sum
in one product.  A panel's value is its fine sum, and its error is 1.5
times the difference to the coarse one.  In 2d the domain is a list of
patches, each a list of (u, v) boxes (u0, u1, v0, v1) with a map to the
integrand's arguments and a jacobian.  Every patch is a triangle under
the Duffy map of the unit square: for a convex polygon the fan of
triangles from one vertex, and for the unit sphere the radial projection
of facet triangles whose cones from the origin tile space.  A 2d panel
takes the tensor product of the fine rule and an error from the coarse
rule along each axis.  Its rule is one (3, 225) matrix on the 15 x 15
node values, u major, of outer products of the 1d rows: fine by fine,
fine plus coarse along u by fine, and fine by fine plus coarse along v.
This matrix times the node values of all boxes of a call gives every
box's three sums in one product.  Every weight of both rules is
positive, so a non-finite node makes the panel's value non-finite; such
a panel gets error inf, and so does a 1d panel so narrow that two of its
nodes round onto one float.

Integrands must be elementwise: each value depends only on the arguments
at its own node, and one call may cover many panels.  Planar integrands
get y as an array of x's shape, not a scalar.
"""

from __future__ import annotations

import collections
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
    max_subdivisions: int = 2000   # splits per panel heap, one heap per
                                   # 1d or 2d integral

    def __post_init__(self):
        for tol in (self.abs_tol, self.rel_tol):
            if isinstance(tol, bool):
                raise TypeError(f"tolerances must be numbers, got {tol!r}")
        # written as negations so that NaN fails them too; an infinite
        # tolerance would accept the first panels of any integral
        if not (0 < self.abs_tol < math.inf and 0 <= self.rel_tol < math.inf):
            raise ValueError("tolerances must be finite, abs_tol > 0 and rel_tol >= 0")
        cap = self.max_subdivisions
        if type(cap) is bool or not isinstance(cap, int):
            raise TypeError(f"max_subdivisions must be an int, got {cap!r}")
        if cap < 1:
            raise ValueError("max_subdivisions must be >= 1")

    @classmethod
    def from_json_dict(cls, data: dict) -> "QuadratureConfig":
        parse = {"abs_tol": float, "rel_tol": float, "max_subdivisions": int}
        unknown = sorted(set(data) - set(parse))
        if unknown:
            raise ValueError(f"unknown QuadratureConfig keys: {unknown}")
        # a string is parsed; any other value is checked by the constructor,
        # so a bool is rejected instead of read as 0 or 1
        return cls(**{
            key: parse[key](value) if isinstance(value, str) else value
            for key, value in data.items()
        })


@dataclass(frozen=True)
class IntegrationResult:
    value: float
    error_estimate: float
    evaluations: int
    converged: bool


_RULE_ORDER = 15        # nodes of the fine rule; odd, so the coarse rule nests
_TAIL_CUTOFF = 1e-30    # |f| below this truncates unbounded tails


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


# fine nodes and weights, and the coarse weights on every other fine node
_NODES, _WEIGHTS = _interior_cosine_rule(_RULE_ORDER + 1)
_COARSE = _interior_cosine_rule((_RULE_ORDER + 1) // 2)[1]
# the 1d rule matrix, whose rows are the fine weights and the fine plus
# the coarse weights.  Every entry is positive, so a non-finite node makes
# both sums non-finite and never meets a zero weight, where 0 * inf warns.
_RULE_1D = np.vstack((_WEIGHTS, _WEIGHTS))
_RULE_1D[1, 1::2] += _COARSE
# the 2d rule matrix on a box's 15 x 15 node values, u major: the fine
# rule on both axes, and the fine plus the coarse rule along u, then
# along v, with the fine rule on the other axis.  Its entries are
# products of positive ones, so as in _RULE_1D no node meets a zero weight.
_RULE_2D = np.stack((
    np.outer(_RULE_1D[0], _RULE_1D[0]),
    np.outer(_RULE_1D[1], _RULE_1D[0]),
    np.outer(_RULE_1D[0], _RULE_1D[1]),
)).reshape(3, -1)


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


def _panels_1d(f, boxes, to_args):
    """The intervals `boxes`, in one integrand call, as heap entries.

    The nodes of all boxes are one broadcast, one row per box, and
    _RULE_1D times their values gives every box's fine sum and fine plus
    coarse sum in one product; the rest is arithmetic on Python floats.
    Returns the (value, error, axis, box) of each interval and the number
    of evaluations.  `to_args` is unused: the nodes are the arguments.
    """
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
        # than they weigh, and their agreement proves nothing; the nodes
        # are 0.057 half apart, so that needs half < 4e-15 |a + b|
        if not err < math.inf or (half < 1e-13 * abs(a + b) and not np.diff(nodes[k]).all()):
            err = math.inf
        entries.append((value, err, 0, box))
    return entries, nodes.size


def _find_tail_cutoff(f, start: float, direction: int):
    """Truncation point for an unbounded tail, plus a bound on what is cut.

    Probes f one point at a time at geometrically growing offsets until
    |f| stays below _TAIL_CUTOFF twice in a row.  The discarded mass is
    bounded using the decay rate observed between the last two probes;
    if |f| did not fall between them, by |f| times their distance.
    The probe points are also returned: they seed the initial panels, so
    mass far from the finite endpoint cannot hide between rule nodes.
    An offset that rounds back onto the start or the last probe is
    skipped; a tail probed fewer than two times is not cut at all, and
    its bound is inf.
    """
    offset = 0.5
    below = 0
    probes: list[float] = []
    mags: list[float] = []
    for _ in range(80):
        offset *= 2.0
        point = start + direction * offset
        if point == (probes[-1] if probes else start):
            continue
        probes.append(point)
        mags.append(abs(float(_values(f(np.array([point])), 1)[0])))
        if mags[-1] < _TAIL_CUTOFF:
            below += 1
            if below >= 2:
                break
        else:
            below = 0
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


def _meets_tolerance(error: float, value: float, cfg: QuadratureConfig) -> bool:
    """Whether error is within the target; a non-finite value never is."""
    return math.isfinite(value) and error <= max(cfg.abs_tol, cfg.rel_tol * abs(value))


def _at_float_width(a: float, b: float) -> bool:
    """Whether [a, b] is too narrow to bisect; such a panel is kept as is."""
    return b - a <= 1e-15 * max(abs(a), abs(b), 1e-300)


def _cubature(f, rule, patches, cfg: QuadratureConfig, tail_bound=0.0, evaluations=0):
    """The adaptive panel loop of one integral, in 1d and 2d alike.

    `patches` is a list of (boxes, to_args); `rule(f, boxes, to_args)`
    evaluates the boxes in one integrand call and returns their
    (value, error, axis, box) entries and the evaluation count.  Each round
    bisects the worst panel along its axis, for at most max_subdivisions
    rounds.  A panel whose error is inf is left out of the running totals
    and counted instead; the loop does not stop on tolerance while any is
    left, and it stops at once when one of them is too narrow to split.
    Value and error are each summed over all panels at the end, and
    tail_bound is added to the error.
    """
    heap = []  # entries: (-err, tie_breaker, value, err, axis, box, to_args)
    tie = itertools.count()
    total_val = total_err = 0.0
    infinite = 0

    def push(boxes, to_args):
        nonlocal total_val, total_err, infinite, evaluations
        entries, count = rule(f, boxes, to_args)
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
            if err == math.inf:
                # a panel that cannot be split keeps its inf error: the
                # integral cannot converge, and more splits cannot change that
                break
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
    integrand magnitude falls below 1e-30 and the truncated
    mass is added to the error estimate.  The whole real line is split
    at 0, each tail probed from there, and one panel heap runs over both
    halves.  The reported error estimate is the sum of per-panel
    nested-rule differences plus tail bounds.
    """
    cfg = config or QuadratureConfig()
    a, b = (float(end) for end in interval)
    if not a < b:
        raise ValueError(f"interval must satisfy a < b, got ({a}, {b})")
    # the whole line is split at 0, and both its tails are probed from there
    split = [0.0] if math.isinf(a) and math.isinf(b) else []
    tail_bound = 0.0
    probes: list[float] = []
    ends = []
    for end, start, direction in ((a, b, -1), (b, a, +1)):
        if math.isinf(end):
            end, bound, found = _find_tail_cutoff(f, split[0] if split else start, direction)
            tail_bound += bound
            probes += found
        ends.append(end)
    a, b = ends
    if not a < b:
        # only a tail that cannot move from its start ends here; its
        # bound is inf
        return IntegrationResult(0.0, tail_bound, len(probes), False)
    boundaries = [a] + sorted(p for p in probes + split if a < p < b) + [b]
    initial = list(zip(boundaries, boundaries[1:]))
    return _cubature(f, _panels_1d, [(initial, None)], cfg, tail_bound, len(probes))


# --- 2d domains ----------------------------------------------------------


class ConvexPolygon:
    """Convex polygon given by its vertices (any order).

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
        pts.sort(key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
        # sorted by angle about the centroid, a convex polygon turns left or
        # goes straight at every vertex; a right turn is a dent, whose fan
        # triangles from vertex 0 would overlap or leave the polygon
        for (x0, y0), (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1], pts[2:] + pts[:2]):
            if (x1 - x0) * (y2 - y1) - (y1 - y0) * (x2 - x1) < 0:
                raise ValueError(f"polygon vertices are not in convex position: {pts}")
        self.vertices = pts


class Sphere:
    """Unit sphere, charted by the radial projection of triangles.

    `facets` are triangles (a, b, c) in 3-space whose cones from the
    origin tile space, such as the faces of a polytope around the origin;
    integrands take the direction (nx, ny, nz).  A non-finite vertex, a
    facet whose plane passes through the origin, facets whose solid
    angles do not sum to 4 pi, or an edge (an unordered pair of vertices)
    that is not shared by exactly two facets raise ValueError.
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


def _duffy(corner, e1, e2, u, v):
    """The point corner + u ((1 - v) e1 + v e2); the edge u = 0 collapses onto corner."""
    s = 1.0 - v
    return tuple(o + u * (s * x + v * y) for o, x, y in zip(corner, e1, e2))


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


def _patches(domain) -> list[tuple[Sequence[tuple[float, float, float, float]], Callable]]:
    """The domain as lists of (u, v) boxes, each with a map to (arguments, jacobian)."""
    patches = []
    if isinstance(domain, Sphere):
        for a, b, c in domain.facets:
            e1 = tuple(q - p for p, q in zip(a, b))
            e2 = tuple(q - p for p, q in zip(a, c))
            det = abs(_det3(a, b, c))

            def radial(u, v, a=a, e1=e1, e2=e2, det=det):
                # the plane's area element u |e1 x e2| seen from the
                # origin is the solid angle u |det| / |p|^3
                x, y, z = _duffy(a, e1, e2, u, v)
                r2 = x * x + y * y + z * z
                r = np.sqrt(r2)
                return (x / r, y / r, z / r), u * det / (r2 * r)

            patches.append((_FACET_BOXES, radial))
        return patches
    if isinstance(domain, ConvexPolygon):
        (x0, y0), *rest = domain.vertices
        for (x1, y1), (x2, y2) in zip(rest, rest[1:]):
            ax, ay, bx, by = x1 - x0, y1 - y0, x2 - x0, y2 - y0
            det = abs(ax * by - ay * bx)
            if det == 0.0:
                # collinear vertices: the fan triangle has no area
                continue

            def duffy(u, v, ax=ax, ay=ay, bx=bx, by=by, det=det):
                return _duffy((x0, y0), (ax, ay), (bx, by), u, v), u * det

            patches.append(([(0.0, 1.0, 0.0, 1.0)], duffy))
        return patches
    raise ValueError(f"unsupported 2d domain: {domain!r}")


def _panels_2d(f, boxes, to_args):
    """The (u, v) boxes of one patch, in one integrand call, as heap entries.

    Each box takes the tensor product of the fine rule.  _RULE_2D times
    the node values of all boxes, one column per box, gives each box's
    fine sum and its sums under the rule that is coarse along u and along
    v, each plus the fine sum, in one product; the rest is arithmetic on
    Python floats.  A box's error is 1.5 times the sum, over both axes, of
    its difference to the coarse rule along that axis, and it splits along
    the axis with the larger difference.  A box with a non-finite value
    splits across the axis with fewer non-finite line sums, so a singular
    line is cut off, not along.  Returns the (value, error, axis, box) of
    each box, axis 0 for u and 1 for v, and the number of evaluations.
    """
    bounds = np.array(boxes)
    mid = 0.5 * (bounds[:, ::2] + bounds[:, 1::2])
    half = 0.5 * (bounds[:, 1::2] - bounds[:, ::2])
    # the u and the v nodes of each box, as (k, 2, 15)
    nodes = mid[:, :, None] + half[:, :, None] * _NODES
    # the (u, v) grid of each box, u major: each u node repeated and the
    # v nodes repeated as a block
    u = nodes[:, 0].repeat(_RULE_ORDER)
    v = nodes[:, 1:].repeat(_RULE_ORDER, axis=1).ravel()
    args, jacobian = to_args(u, v)
    y = (_values(f(*args), u.size) * jacobian).reshape(-1, _RULE_ORDER * _RULE_ORDER)
    # the rule is the left operand, as in _panels_1d
    sums = _RULE_2D.dot(y.T).tolist()
    entries = []
    for k, (box, (hu, hv), fine, both_u, both_v) in enumerate(zip(boxes, half.tolist(), *sums)):
        area = hu * hv
        value = area * fine
        err_u = abs(value - area * (both_u - fine))
        err_v = abs(value - area * (both_v - fine))
        err = 1.5 * (err_u + err_v)
        split_v = err_v > err_u
        if not err < math.inf:
            # the weights are positive, so a non-finite node makes the
            # value non-finite; split across the axis with fewer
            # non-finite line sums, along v at each u node against along
            # u at each v node
            err = math.inf
            grid = y[k].reshape(_RULE_ORDER, _RULE_ORDER)
            along_v = _WEIGHTS.dot(grid.T)
            along_u = _WEIGHTS.dot(grid)
            split_v = bool((~np.isfinite(along_v)).sum() > (~np.isfinite(along_u)).sum())
        # False and True index the box as axes 0 (u) and 1 (v)
        entries.append((value, err, split_v, box))
    return entries, u.size


def integrate_2d(
    f: Callable,
    domain,
    config: QuadratureConfig | None = None,
) -> IntegrationResult:
    """Global adaptive integral over a convex polygon or the unit sphere.

    The integrand must be elementwise, and it receives 1d arrays of equal
    shape: f(x, y) for a `ConvexPolygon` and f(nx, ny, nz) for the
    `Sphere`.  The domain is cut into patches, each a triangle (a, b, c)
    as the unit square under the Duffy map
    p = a + u ((1 - v) (b - a) + v (c - a)), with a map to the integrand's
    arguments and its jacobian.  For a polygon the triangles are the fan
    from vertex 0, with jacobian u |det(b - a, c - a)|.  For the sphere
    they are its facets, and the direction p / |p| has jacobian
    u |det(a, b, c)| / |p|^3; each facet starts as 6 boxes, so that its
    edges lie in thin panels.

    Every box is a panel of one heap, evaluated by the tensor product of
    the fine rule in one integrand call per patch.  Each round bisects the
    worst panel along its worse axis and evaluates both children in one
    call, for at most config.max_subdivisions rounds.  Value and error are
    the sums over all panels, and `converged` compares that error with the
    tolerance.
    """
    cfg = config or QuadratureConfig()
    return _cubature(f, _panels_2d, _patches(domain), cfg)


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

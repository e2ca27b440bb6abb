"""The error-of-tropicalization integrals.

Replacing a smooth phase log_t(1 + t^y + ...) by its tropical limit
min(0, y, ...) commits an error concentrated near the corner locus.
Rescaled by powers of L = -log t, the committed mass converges to zeta
values: zeta(2) per unit of transversal 1d crossing, zeta(3) per vertex.
The integrals here compute that mass honestly by quadrature, in forms
stable for large L.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from ..quadrature import ConvexPolygon, integrate_1d, integrate_2d
from ..tropical import AffineForm, corner_locus, halfplane_polygon, tropicalize
from .types import MirrorFamily, _big_l, _require_converged

# min(0, y1, y2) up to the order of its forms: the tropical line of 1 + X + Y
_PANTS_LINE = tropicalize(MirrorFamily("pair_of_pants").laurent_family())


def _softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + e^x) without overflow for large |x|."""
    return np.logaddexp(0.0, x)


def _scale(mode: str, t: float | None) -> float:
    """L = -log t for raw mode; reduced mode is raw mode at L = 1 and takes no t."""
    if mode == "reduced":
        if t is not None:
            raise ValueError("reduced mode takes no t")
        return 1.0
    if mode == "raw":
        if t is None:
            raise ValueError("raw mode needs t in (0, 1)")
        return _big_l(t)
    raise ValueError(f"mode must be 'reduced' or 'raw', got {mode!r}")


def error_integral_dim1(mode: str = "reduced", t: float | None = None) -> float:
    """The 1d tropicalization error; equals zeta(2) for every t.

    raw mode computes L^2 times the integral of (-log_t(1 + t^y) +
    min(0, y)) dy at the given t; the integrand telescopes to the stable
    symmetric form log(1 + e^-L|y|) / L.  reduced mode is the t-free
    substitution s = L y, which is the same integral at L = 1.  The
    quadrature runs at abs_tol = rel_tol = 1e-10 on that integral, before
    the L^2 scale.
    """
    big_l = _scale(mode, t)
    result = integrate_1d(
        lambda y: _softplus(-big_l * np.abs(y)) / big_l, (-math.inf, math.inf)
    )
    return _require_converged(result, f"dim-1 {mode} error integral", big_l**2)


def _positive_finite(value) -> bool:
    """Whether value is an int, a Fraction or a float, not a bool, in (0, inf)."""
    return (
        not isinstance(value, bool)
        and isinstance(value, (int, Fraction, float))
        and 0 < value < math.inf
    )


def local_model_region_period(a1: float, a2: float, b: float, t: float) -> float:
    """The 1d error over a finite range: the local model's region period.

    The model is the surface X1 X2 = 1 + Y.  Its region period integrates
    the holomorphic volume form over the chart x1 <= -a1, x2 <= -a2,
    |y| <= b in log_t coordinates, and reduces exactly to L^2 times the
    integral over [-b, b] of a1 + a2 + log_t(1 + t^y).
    log_t(1 + t^y) = min(0, y) - log(1 + e^(-L|y|))/L keeps the integrand
    stable for both signs of y.  The value approaches L^2 times the affine
    area 2(a1+a2)b - b^2/2 of the region's tropical polytope, minus
    zeta(2), with an O(t^b) residual.  a1, a2 and b are ints, Fractions
    or floats, not bools, finite and positive.  The quadrature runs at
    abs_tol = rel_tol = 1e-10 on the integral over [-b, b], before the
    L^2 scale.
    """
    if not all(map(_positive_finite, (a1, a2, b))):
        raise ValueError("a1, a2, b must be finite numbers > 0")
    big_l = _big_l(t)
    base = float(a1) + float(a2)

    def integrand(y):
        return base + np.minimum(0.0, y) - _softplus(-big_l * np.abs(y)) / big_l

    res = integrate_1d(integrand, (-float(b), float(b)))
    return _require_converged(res, "region-period quadrature", big_l * big_l)


def error_integral_dim2_a(mode: str = "reduced", t: float | None = None) -> float:
    """The squared-phase error along a 1d slice; equals zeta(3).

    raw mode evaluates (1/2) L^3 times the integral of ((log_t(1+t^y))^2
    - min(0, y)^2) dy at the given t, and reduced mode the same at L = 1.
    Writing log(1 + e^-s) = -min(0, s) + log(1 + e^-|s|) with s = L y
    cancels the quadratic growth:

        (phase)^2 - min^2 = -2 min(0, s) g(s) + g(s)^2,  g = log(1+e^-|s|),

    leaving an absolutely integrable integrand.  The quadrature runs at
    abs_tol = rel_tol = 1e-10 on the integral, before the L^2 / 2 scale.
    """
    big_l = _scale(mode, t)

    def integrand(y):
        g = _softplus(-big_l * np.abs(y))
        return -2.0 * np.minimum(0.0, y) * g + g * g / big_l

    result = integrate_1d(integrand, (-math.inf, math.inf))
    return _require_converged(result, f"dim-2 slice {mode} error integral", 0.5 * big_l**2)


def _check_transversal(complex_) -> None:
    """Reject rectangles whose boundary runs along or through the locus."""

    def walls(p) -> set[tuple[int, Fraction]]:
        """The rectangle's sides that p lies on, as (axis, bound) pairs."""
        return {(axis, p[axis]) for axis in range(2) if p[axis] in complex_.box[axis]}

    for cell in complex_.cells:
        ends = [walls(cell.vertices[0]), walls(cell.vertices[-1])]
        if cell.dim == 0 and ends[0]:
            raise ValueError("rectangle boundary passes through a vertex of the locus")
        if cell.dim == 1 and ends[0] & ends[1]:
            raise ValueError("rectangle boundary contains a segment of the locus")
        if cell.dim == 1 and any(len(w) == 2 for w in ends):
            raise ValueError("locus passes through a corner of the rectangle")


def _smooth_pieces(complex_) -> list[ConvexPolygon]:
    """Split the locus's rectangle along the line, one piece per ordering.

    On the piece where the forms of `_PANTS_LINE` run f <= g <= h, the
    minimum min(0, y1, y2) is the single affine form f, so the integrand
    is smooth there.  A piece lists `halfplane_polygon`'s sorted
    vertices, but the line's vertex, the 0-cell of the corner locus
    complex_ where all three forms tie, goes first: it is the apex of the
    piece's fan, and the zeta(3) mass sits there.  On a transversal
    rectangle the vertex is either inside, and then a corner of all six
    pieces, or outside the rectangle and of no piece.
    """
    (x0, x1), (y0, y1) = complex_.box
    apexes = {cell.vertices[0] for cell in complex_.cells_of_dim(0)}
    box = [
        ((Fraction(1), Fraction(0)), -x0),
        ((Fraction(-1), Fraction(0)), x1),
        ((Fraction(0), Fraction(1)), -y0),
        ((Fraction(0), Fraction(-1)), y1),
    ]
    pieces = []
    for f, g, h in itertools.permutations(_PANTS_LINE.forms):
        rows = box + [_excess(g, f), _excess(h, g)]
        vertices = halfplane_polygon(rows)
        if vertices:
            # the sort is stable: the vertex first, the rest as they were
            vertices.sort(key=lambda v: v not in apexes)
            pieces.append(
                ConvexPolygon([(float(x), float(y)) for x, y in vertices])
            )
    return pieces


def _excess(g: AffineForm, f: AffineForm) -> tuple[tuple[int, ...], Fraction]:
    """g - f as a `halfplane_polygon` row, so the row reads f <= g."""
    return tuple(a - b for a, b in zip(g.slope, f.slope)), g.offset - f.offset


def error_integral_dim2_b(u_rect, t: float) -> tuple[float, Fraction, int]:
    """2d tropicalization error over a rectangle: (value, length, chi).

    value = L^3 times the integral over U of (-log_t(1+t^y1+t^y2) +
    min(0, y1, y2)); its asymptotic is L * length * zeta(2) + chi *
    zeta(3) + O(1/L), where length is the lattice length of U cut with
    the tropical line and chi counts the line's vertices inside U.
    U is a `corner_locus` box: two (lo, hi) sides, or one (lo, hi) pair
    for both, as tuples or lists.  Its boundary must be transversal to
    the line.  Each piece is fanned from the line's vertex when it has
    it, so the zeta(3) mass there sits at the collapsed corner of every
    triangle.  Each piece's quadrature runs at abs_tol = rel_tol = 1e-10,
    before the L^3 scale, under the polygon rule of `integrate_2d`,
    Gauss-Kronrod 15/7: away from the band along the line the integrand
    is analytic, where that rule's estimate is tight, so at t = 1e-3 the
    pieces take a quarter of the evaluations of Fejer's rule.
    """
    big_l = _big_l(t)
    complex_ = corner_locus(_PANTS_LINE, u_rect)
    _check_transversal(complex_)
    length = sum(
        (c.affine_measure() for c in complex_.cells_of_dim(1)), Fraction(0)
    )
    chi = len(complex_.cells_of_dim(0))

    def integrand(ya, yb):
        # log(t^m (1 + t^y1 + t^y2)) / log t  with  m = min(0, y1, y2):
        # all three rescaled exponents are <= 0, so each term is in (0, 1]
        m = np.minimum(0.0, np.minimum(ya, yb))
        total = (
            np.exp(big_l * m)
            + np.exp(big_l * (m - ya))
            + np.exp(big_l * (m - yb))
        )
        return np.log(total) / big_l

    value = 0.0
    for piece in _smooth_pieces(complex_):
        result = integrate_2d(integrand, piece)
        value += _require_converged(result, "dim-2 rectangle error integral piece")
    return big_l**3 * value, length, chi

"""The benchmark's workloads: operations on gammatrop's public API, each with
a reference check computed before any timing starts.

One operation is one public call (or one short pipeline of calls) on one
input.  It fails when it raises, returns `converged=False`, or misses its
reference.  References are closed forms evaluated with mpmath, exact
invariants, or the tier-1 test bands in the range of t where they hold.

Functions are looked up on the gammatrop modules at call time, so the
traced run sees the rebound names.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Any, Callable, NamedTuple

import mpmath
import sympy

import gammatrop.cohomology as cohomology
import gammatrop.periods as periods
import gammatrop.quadrature as quadrature
import gammatrop.tropical as tropical

ZETA2 = float(mpmath.zeta(2))
ZETA3 = float(mpmath.zeta(3))
EULER_GAMMA = float(mpmath.euler)

# why each workload exists; BENCHMARK.json carries the same lines
WHY = {
    "k3_sphere": "K3 period on the Sphere domain at the tier-1 tolerance; ~97% "
    "of its time is the integrand's 60-step radial bisection",
    "planar_2d": "Fano n=2,3 and dim2_b over Rectangle and ConvexPolygon; "
    "cheap vectorised integrands, so the nested integrate_2d machinery "
    "itself is the work",
    "curves_1d": "thousands of short 1-D integrals at tol 1e-10 with infinite "
    "tails, 1/sqrt endpoints and scalar root bisection; no integrate_2d",
    "exact_invariants": "unimodular images through the exact Fraction "
    "tropical pipeline plus sympy Gamma polynomials; no float quadrature",
}

CURVES_T_COUNT = 200  # t values per curves_1d sweep, one per log-uniform stratum
IMAGE_COUNT = 80  # unimodular images of each family per exact_invariants sweep
CORNER_BOX = (-400, 400)  # as in the tier-1 unimodular corner-locus test


class Op(NamedTuple):
    """One operation; `run` gets the results of this sweep so far, by key."""

    key: str
    run: Callable[[dict], Any]
    check: Callable[[Any], str | None]  # a failure reason, or None


def _sample_check(ref: float, band: float, bound_by_estimate: bool = False):
    def check(sample) -> str | None:
        if not sample.converged:
            return "converged=False"
        gap = abs(sample.value - ref)
        if not gap <= band:
            return f"|value - ref| = {gap:.3g} > {band:.3g}"
        if bound_by_estimate and not gap <= sample.error_estimate:
            return f"|value - ref| = {gap:.3g} > error_estimate {sample.error_estimate:.3g}"
        return None

    return check


def _float_check(ref: float, band: float):
    def check(value) -> str | None:
        gap = abs(value - ref)
        return None if gap <= band else f"|value - ref| = {gap:.3g} > {band:.3g}"

    return check


def _rel_band(ref: float, rel: float) -> float:
    return rel * max(1.0, abs(ref))


# --- k3_sphere ------------------------------------------------------------


def _k3_sphere(rng: random.Random) -> list[Op]:
    t = 1e-2
    big_l = -math.log(t)
    cfg = quadrature.QuadratureConfig(abs_tol=1e-5, rel_tol=1e-5)
    # tier-1 band around the asymptotic 32 L^2 - 24 zeta(2)
    ref = 32.0 * big_l**2 - 24.0 * ZETA2
    return [
        Op("k3_period", lambda done: periods.k3_period(t, cfg), _sample_check(ref, 0.05))
    ]


# --- planar_2d ------------------------------------------------------------


def _fano_oracle(n: int, big_l: float) -> float:
    """Gamma-class prediction for P^2 and P^3 in closed form (tier-1 oracles)."""
    g = EULER_GAMMA
    if n == 2:
        return 4.5 * big_l**2 - 9.0 * g * big_l + 4.5 * g * g + 1.5 * ZETA2
    return (
        32.0 / 3.0 * big_l**3
        - 32.0 * g * big_l**2
        + (32.0 * g * g + 8.0 * ZETA2) * big_l
        - 32.0 / 3.0 * g**3
        - 8.0 * g * ZETA2
        - 4.0 / 3.0 * ZETA3
    )


def _fano_op(n: int, t: float) -> Op:
    oracle = _fano_oracle(n, -math.log(t))

    def run(done):
        return periods.exp_period_orthant(n, t), periods.fano_gamma_prediction(n, t)

    def check(result) -> str | None:
        sample, predicted = result
        gap = abs(predicted - oracle)
        if not gap <= _rel_band(oracle, 1e-10):
            return f"prediction off the closed form by {gap:.3g}"
        # tier-1 band: measured side within 1e-3 relative of the prediction
        return _sample_check(predicted, 1e-3 * abs(predicted))(sample)

    return Op(f"fano{n}@{t:g}", run, check)


def _dim2_b_op(t: float) -> Op:
    rect = ((-4, 2), (-2, 2))
    # tier-1 band around 6 zeta(2) L + zeta(3); it holds for t <= 1e-3 only
    ref = 6.0 * ZETA2 * -math.log(t) + ZETA3

    def check(result) -> str | None:
        value, length, chi = result
        if (length, chi) != (Fraction(6), 1):
            return f"(length, chi) = ({length}, {chi}), expected (6, 1)"
        return _float_check(ref, 1e-3)(value)

    return Op(
        f"dim2_b@{t:g}", lambda done: periods.error_integral_dim2_b(rect, t), check
    )


def _planar_2d(rng: random.Random) -> list[Op]:
    ops = [_fano_op(n, t) for n in (2, 3) for t in (1e-2, 1e-3, 1e-4)]
    ops += [_dim2_b_op(t) for t in (1e-3, 1e-4)]
    return ops


# --- curves_1d ------------------------------------------------------------


def _curves_ts(rng: random.Random) -> list[float]:
    """Log-uniform in [1e-8, 1e-2], one draw per equal stratum of log t."""
    lo, hi = -8.0, -2.0
    step = (hi - lo) / CURVES_T_COUNT
    return [10.0 ** (lo + step * (k + rng.random())) for k in range(CURVES_T_COUNT)]


def _curves_1d(rng: random.Random) -> list[Op]:
    a1, a2, b = 1.0, 1.0, 1.0  # local-model region, as in the tier-1 tests
    ops: list[Op] = []
    elliptic_keys, fano_keys = [], []
    for i, t in enumerate(_curves_ts(rng)):
        big_l = -math.log(t)
        # tier-1 band; the finite-t correction stays below it for t <= 1e-2
        ops.append(Op(
            f"elliptic@{i}",
            lambda done, t=t: periods.elliptic_period(t),
            _sample_check(9.0 * big_l, 1e-3),
        ))
        elliptic_keys.append(ops[-1].key)
        ops.append(Op(
            f"fano1@{i}",
            lambda done, t=t: periods.exp_period_orthant(1, t),
            _sample_check(2.0 * float(mpmath.besselk(0, 2 * t)), 1e-8, True),
        ))
        fano_keys.append(ops[-1].key)
        ops.append(Op(
            f"dim1@{i}",
            lambda done, t=t: periods.error_integral_dim1("raw", t),
            _float_check(ZETA2, 1e-6),
        ))
        ops.append(Op(
            f"dim2_a@{i}",
            lambda done, t=t: periods.error_integral_dim2_a("raw", t),
            _float_check(ZETA3, 1e-6),
        ))
        local_ref = float(
            big_l**2 * (2 * b * (a1 + a2) - b * b / 2)
            - ZETA2
            - 2 * mpmath.polylog(2, -mpmath.mpf(t) ** b)
        )
        ops.append(Op(
            f"local_model@{i}",
            lambda done, t=t: periods.local_model_region_period(a1, a2, b, t),
            _float_check(local_ref, _rel_band(local_ref, 1e-10)),
        ))
        x0 = rng.uniform(-2.0, 1.0)
        x1 = x0 + rng.uniform(0.1, 2.0)
        tt = mpmath.mpf(t)
        pants_ref = float(mpmath.log1p(tt ** (-x1)) - mpmath.log1p(tt ** (-x0)))
        ops.append(Op(
            f"pants@{i}",
            lambda done, t=t, x0=x0, x1=x1: periods.pants_section_integral(x0, x1, t),
            _float_check(pants_ref, _rel_band(pants_ref, 1e-10)),
        ))
    ops.append(_fit_op("fit_elliptic", elliptic_keys, {1: 9.0, 0: 0.0}))
    ops.append(_fit_op("fit_fano1", fano_keys, {1: 2.0, 0: -2.0 * EULER_GAMMA}))
    return ops


def _fit_op(key: str, sample_keys: list[str], expected: dict[int, float]) -> Op:
    def run(done):
        points = [
            (s.t, s.value)
            for s in (done.get(k) for k in sample_keys)
            if isinstance(s, periods.PeriodSample)
        ]
        return quadrature.fit_asymptotic(points, powers=(1, 0))

    def check(fit) -> str | None:
        # tier-1 band of the P^1 fit, used for both slopes and constants
        for k, want in expected.items():
            gap = abs(fit.coefficients[k] - want)
            if not gap <= 1e-3:
                return f"L^{k} coefficient off by {gap:.3g}"
        return None

    return Op(key, run, check)


# --- exact_invariants -------------------------------------------------------


def _random_unimodular(rng: random.Random, n: int) -> list[list[int]]:
    """A small-entry element of GL(n, Z) from six shears and swaps."""
    mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(6):
        op = rng.randrange(3)
        i, j = rng.sample(range(n), 2)
        if op == 0:
            mat[i] = [a + b for a, b in zip(mat[i], mat[j])]
        elif op == 1:
            mat[i] = [a - b for a, b in zip(mat[i], mat[j])]
        else:
            mat[i], mat[j] = mat[j], [-x for x in mat[i]]
    return mat


def _tropical_pipeline(family, matrix, with_edges: bool):
    image = tropical.monomial_substitution(family, matrix)
    trop = tropical.tropicalize(image)
    complex_ = tropical.corner_locus(trop, CORNER_BOX)
    chamber = tropical.compact_chamber(trop)
    area = tropical.boundary_affine_area(chamber)
    singular = tropical.edge_singularities(chamber) if with_edges else ()
    return complex_, area, singular


def _check_k3_image(result) -> str | None:
    complex_, area, singular = result
    if area != 32:
        return f"boundary area {area}, expected 32"
    if len(singular) != 24:
        return f"{len(singular)} edge singularities, expected 24"
    for dim, expected in ((1, [4] * 6), (2, [8] * 4)):
        measures = sorted(
            c.affine_measure() for c in complex_.cells_of_dim(dim) if c.bounded
        )
        if measures != expected:
            return f"bounded {dim}-cell measures {measures}, expected {expected}"
    return None


def _check_elliptic_image(result) -> str | None:
    _, area, _ = result
    return None if area == 9 else f"lattice perimeter {area}, expected 9"


def _gamma_op(model, omega: int) -> Op:
    top = sympy.Rational(omega**model.dim * (model.hypersurface_degree or 1),
                         math.factorial(model.dim))

    def check(poly) -> str | None:
        got = poly.coefficients[model.dim]
        return None if got == top else f"top coefficient {got}, expected {top}"

    return Op(
        f"gamma:{model.ambient_dim}:{model.hypersurface_degree}",
        lambda done: cohomology.gamma_period_polynomial(model, omega),
        check,
    )


def _exact_invariants(rng: random.Random) -> list[Op]:
    k3 = periods.MirrorFamily("quartic_k3").laurent_family()
    elliptic = periods.MirrorFamily("elliptic_cubic").laurent_family()
    ops = []
    for i in range(IMAGE_COUNT):
        mat3, mat2 = _random_unimodular(rng, 3), _random_unimodular(rng, 2)
        ops.append(Op(
            f"k3_image@{i}",
            lambda done, m=mat3: _tropical_pipeline(k3, m, True),
            _check_k3_image,
        ))
        ops.append(Op(
            f"elliptic_image@{i}",
            lambda done, m=mat2: _tropical_pipeline(elliptic, m, False),
            _check_elliptic_image,
        ))
    for n in range(1, 9):
        ops.append(_gamma_op(cohomology.ManifoldModel(n), n + 1))
    for n in range(2, 9):
        ops.append(_gamma_op(cohomology.ManifoldModel(n, n + 1), n + 1))
    return ops


BUILDERS = {
    "k3_sphere": _k3_sphere,
    "planar_2d": _planar_2d,
    "curves_1d": _curves_1d,
    "exact_invariants": _exact_invariants,
}


def build(workload: str, seed: int) -> list[Op]:
    """The operations of one sweep, with references, derived from the seed."""
    return BUILDERS[workload](random.Random(seed))

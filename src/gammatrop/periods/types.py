"""Shared types for period computations."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ..errors import NonConvergenceError
from ..tropical import LaurentFamily, LaurentTerm

FAMILY_KINDS = ("elliptic_cubic", "quartic_k3", "pair_of_pants")


@dataclass(frozen=True)
class PeriodSample:
    """One measured period value at a fixed t, with method metadata."""

    t: float
    value: float
    error_estimate: float
    evaluations: int
    parametrization: str
    converged: bool

    def __post_init__(self) -> None:
        _big_l(self.t)

    @property
    def big_l(self) -> float:
        return _big_l(self.t)


def _big_l(t: float, t_max: float = 1.0) -> float:
    """L = -log t; raises ValueError unless 0 < t < 1 and t <= t_max, so
    for NaN too, and for True, which is 1."""
    if not (0.0 < t < 1.0 and t <= t_max):
        raise ValueError(f"t must lie in (0, {t_max}]" if t_max < 1.0 else "t must lie in (0, 1)")
    return -math.log(t)


def _exp(x: np.ndarray) -> np.ndarray:
    """e^x with x capped at 709, short of where it overflows; a driver lets
    it bind only where its integrand is below the tail cutoff."""
    return np.exp(np.minimum(x, 709.0))


def _sample(t: float, parametrization: str, *results, scale: float = 1.0) -> PeriodSample:
    """The sum of quadrature results, in the order given, with value and
    error times scale; non-convergence is reported, not raised."""
    return PeriodSample(
        t=t,
        value=scale * sum(res.value for res in results),
        error_estimate=scale * sum(res.error_estimate for res in results),
        evaluations=sum(res.evaluations for res in results),
        parametrization=parametrization,
        converged=all(res.converged for res in results),
    )


def _require_converged(result, what: str, scale: float = 1.0) -> float:
    """scale times a quadrature result's value; raises if it did not converge."""
    if not result.converged:
        raise NonConvergenceError(
            f"{what}: error estimate {result.error_estimate:.3e} "
            f"after {result.evaluations} evaluations"
        )
    return scale * result.value


def _simplex_family(n: int) -> LaurentFamily:
    """t(x_1 + ... + x_n + 1/(x_1 ... x_n)) - 1: the unit exponents, then
    (-1, ..., -1), then the constant."""
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return LaurentFamily(terms=(
        *(LaurentTerm(1, Fraction(1), e) for e in units + [(-1,) * n]),
        LaurentTerm(-1, Fraction(0), (0,) * n),
    ))


@dataclass(frozen=True)
class MirrorFamily:
    """A named mirror family: a hypersurface in a torus.

    kinds: elliptic_cubic and quartic_k3, the mirrors of the cubic curve
    and the quartic surface (`_simplex_family` at n = 2 and 3), and
    pair_of_pants, 1 + x_1 + x_2, whose tropical line carries the error
    integrals.
    """

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in FAMILY_KINDS:
            raise ValueError(
                f"unknown family kind {self.kind!r}; expected one of {FAMILY_KINDS}"
            )

    def laurent_family(self) -> LaurentFamily:
        """The defining Laurent polynomial."""
        if self.kind == "pair_of_pants":
            zero = Fraction(0)
            return LaurentFamily(terms=(
                LaurentTerm(1, zero, (1, 0)),
                LaurentTerm(1, zero, (0, 1)),
                LaurentTerm(1, zero, (0, 0)),
            ))
        return _simplex_family(2 if self.kind == "elliptic_cubic" else 3)

"""Shared types for period computations."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Any, Mapping

from ..errors import NonConvergenceError
from ..tropical import LaurentFamily, LaurentTerm

FAMILY_KINDS = (
    "projective_fano",
    "elliptic_cubic",
    "local_model_2d",
    "quartic_k3",
    "pair_of_pants",
)


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
        if not 0.0 < self.t < 1.0:
            raise ValueError("t must lie in (0, 1)")

    @property
    def big_l(self) -> float:
        return -math.log(self.t)


def _require_converged(result, what: str) -> float:
    """The value of a quadrature result; raises if it did not converge."""
    if not result.converged:
        raise NonConvergenceError(
            f"{what}: error estimate {result.error_estimate:.3e} "
            f"after {result.evaluations} evaluations"
        )
    return result.value


def _positive_finite(value) -> bool:
    """Whether value is an int, a Fraction or a float, not a bool, in (0, inf)."""
    return (
        not isinstance(value, bool)
        and isinstance(value, (int, Fraction, float))
        and 0 < value < math.inf
    )


@dataclass(frozen=True)
class MirrorFamily:
    """A named mirror family with its parameters.

    kinds: projective_fano (parameter n), elliptic_cubic, local_model_2d
    (parameters a1, a2, b: ints, Fractions or finite floats, all > 0),
    quartic_k3, pair_of_pants.  parameters is a read-only view of a
    validated copy; it takes part in equality but not in the hash, so
    equal families hash equal.
    """

    kind: str
    parameters: Mapping[str, Any] = field(default_factory=dict, hash=False)

    def __post_init__(self) -> None:
        if self.kind not in FAMILY_KINDS:
            raise ValueError(
                f"unknown family kind {self.kind!r}; expected one of {FAMILY_KINDS}"
            )
        params = dict(self.parameters)
        if self.kind == "projective_fano":
            n = params.get("n")
            if isinstance(n, bool) or not isinstance(n, int) or n < 1:
                raise ValueError("projective_fano needs an integer n >= 1")
        if self.kind == "local_model_2d":
            for name in ("a1", "a2", "b"):
                if not _positive_finite(params.get(name)):
                    raise ValueError(f"local_model_2d needs a finite number {name} > 0")
        object.__setattr__(self, "parameters", MappingProxyType(params))

    def laurent_family(self) -> LaurentFamily:
        """The defining Laurent polynomial, where one exists.

        The pair of pants, the cubic elliptic mirror and the quartic
        mirror are hypersurfaces in tori; the Fano exponential periods
        and the 2d local model are not captured by a single Laurent
        polynomial over t and raise ValueError.
        """
        one = Fraction(1)
        zero = Fraction(0)
        if self.kind == "pair_of_pants":
            return LaurentFamily(terms=(
                LaurentTerm(1, zero, (1, 0)),
                LaurentTerm(1, zero, (0, 1)),
                LaurentTerm(1, zero, (0, 0)),
            ))
        if self.kind == "elliptic_cubic":
            return LaurentFamily(terms=(
                LaurentTerm(1, one, (1, 0)),
                LaurentTerm(1, one, (0, 1)),
                LaurentTerm(1, one, (-1, -1)),
                LaurentTerm(-1, zero, (0, 0)),
            ))
        if self.kind == "quartic_k3":
            return LaurentFamily(terms=(
                LaurentTerm(1, one, (1, 0, 0)),
                LaurentTerm(1, one, (0, 1, 0)),
                LaurentTerm(1, one, (0, 0, 1)),
                LaurentTerm(1, one, (-1, -1, -1)),
                LaurentTerm(-1, zero, (0, 0, 0)),
            ))
        raise ValueError(f"{self.kind} has no single defining Laurent family")

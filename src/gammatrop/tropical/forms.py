"""Laurent families in t and their tropicalizations.

A family is a Laurent polynomial in n torus variables whose coefficients
are complex constants times rational powers of a degeneration parameter
t in (0, 1).  Sending t -> 0 while tracking exponent valuations replaces
each term c * t^a * X^m by the affine form <m, w> + a, and the family by
the pointwise minimum of its forms.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from operator import index
from typing import Sequence

Rational = int | Fraction


def _not_bool(x):
    """x itself; a bool raises TypeError, since it would read as 0 or 1."""
    if isinstance(x, bool):
        raise TypeError(f"expected a number, got the bool {x}")
    return x


def _as_int(x) -> int:
    """`operator.index`, except that a bool raises TypeError, not 0 or 1."""
    return index(_not_bool(x))


def _as_fraction(x: Rational) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(_as_int(x))
    raise TypeError(f"expected an int or a Fraction, got {x!r}")


def _point(w: Sequence[Rational], dim: int) -> tuple[Fraction, ...]:
    if len(w) != dim:
        raise ValueError(f"point has length {len(w)}, expected {dim}")
    return tuple(_as_fraction(x) for x in w)


@dataclass(frozen=True)
class AffineForm:
    """The function w |-> <slope, w> + offset on Q^n.

    Slopes are integer vectors (monomial exponents), and a non-integer
    or bool entry raises TypeError; offsets are rational (powers of t are
    allowed to be fractional).
    """

    slope: tuple[int, ...]
    offset: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "slope", tuple(_as_int(s) for s in self.slope))
        object.__setattr__(self, "offset", _as_fraction(self.offset))

    @property
    def dim(self) -> int:
        return len(self.slope)

    def value(self, w: Sequence[Rational]) -> Fraction:
        p = _point(w, self.dim)
        return sum((s * x for s, x in zip(self.slope, p)), self.offset)


@dataclass(frozen=True)
class TropicalPolynomial:
    """A pointwise minimum of finitely many affine forms."""

    forms: tuple[AffineForm, ...]

    def __post_init__(self) -> None:
        forms = tuple(self.forms)
        if not forms:
            raise ValueError("a tropical polynomial needs at least one form")
        dims = {f.dim for f in forms}
        if len(dims) != 1:
            raise ValueError("all forms must share one ambient dimension")
        if len({(f.slope, f.offset) for f in forms}) != len(forms):
            raise ValueError("forms must be pairwise distinct")
        object.__setattr__(self, "forms", forms)

    @property
    def dim(self) -> int:
        return self.forms[0].dim

    def value(self, w: Sequence[Rational]) -> Fraction:
        return min(f.value(w) for f in self.forms)

    def active_set(self, w: Sequence[Rational]) -> tuple[int, ...]:
        """Indices of the forms attaining the minimum at w."""
        values = [f.value(w) for f in self.forms]
        m = min(values)
        return tuple(i for i, v in enumerate(values) if v == m)


@dataclass(frozen=True)
class LaurentTerm:
    """One monomial c * t^t_exponent * X^exponent; the exponents are ints,
    the t-power an int or a Fraction, and a float or bool raises TypeError;
    a bool coefficient raises TypeError too."""

    coefficient: complex
    t_exponent: Fraction
    exponent: tuple[int, ...]

    def __post_init__(self) -> None:
        coefficient = complex(_not_bool(self.coefficient))
        if coefficient == 0 or not cmath.isfinite(coefficient):
            raise ValueError(f"terms must have nonzero finite coefficients, got {coefficient}")
        object.__setattr__(self, "coefficient", coefficient)
        object.__setattr__(self, "t_exponent", _as_fraction(self.t_exponent))
        object.__setattr__(self, "exponent", tuple(_as_int(e) for e in self.exponent))


@dataclass(frozen=True)
class LaurentFamily:
    """A Laurent polynomial over C with rational t-power coefficients."""

    terms: tuple[LaurentTerm, ...]

    def __post_init__(self) -> None:
        terms = tuple(self.terms)
        if not terms:
            raise ValueError("a family needs at least one term")
        dims = {len(term.exponent) for term in terms}
        if len(dims) != 1:
            raise ValueError("all terms must share one ambient dimension")
        keys = {(term.t_exponent, term.exponent) for term in terms}
        if len(keys) != len(terms):
            raise ValueError("terms must have distinct (t-power, exponent) keys")
        object.__setattr__(self, "terms", terms)

    @property
    def dim(self) -> int:
        return len(self.terms[0].exponent)

    def evaluate(self, z: Sequence[complex], t: float) -> complex:
        """Value at a point of the torus (C^*)^n for a fixed t in (0, 1)."""
        if not 0.0 < t < 1.0:
            raise ValueError("t must lie in (0, 1)")
        if len(z) != self.dim:
            raise ValueError(f"point has length {len(z)}, expected {self.dim}")
        total = 0.0 + 0.0j
        for term in self.terms:
            monomial = term.coefficient * t ** float(term.t_exponent)
            for zi, e in zip(z, term.exponent):
                monomial *= complex(zi) ** e
            total += monomial
        return total

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "terms": [
                {
                    "coeff": [term.coefficient.real, term.coefficient.imag],
                    "texp": str(term.t_exponent),
                    "exp": list(term.exponent),
                }
                for term in self.terms
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "LaurentFamily":
        unknown = sorted(set(data) - {"dim", "terms"})
        unknown += sorted({k for entry in data["terms"] for k in entry} - {"coeff", "texp", "exp"})
        if unknown:
            raise ValueError(f"unknown LaurentFamily keys: {unknown}")
        if isinstance(data["dim"], bool) or not isinstance(data["dim"], int):
            raise TypeError(f"dim must be an int, got {data['dim']!r}")
        terms = []
        for entry in data["terms"]:
            re, im = map(_not_bool, entry["coeff"])
            # a t-power is a string or an int; LaurentTerm rejects a float,
            # which Fraction would read by its binary value, and a bool
            texp = entry["texp"]
            texp = Fraction(texp) if isinstance(texp, str) else texp
            terms.append(LaurentTerm(complex(re, im), texp, tuple(entry["exp"])))
        family = cls(terms=tuple(terms))
        if family.dim != data["dim"]:
            raise ValueError("declared dimension disagrees with the terms")
        return family


def tropicalize(family: LaurentFamily) -> TropicalPolynomial:
    """Replace each term c * t^a * X^m by the affine form <m, w> + a.

    Coefficients are discarded; only the valuation data survives.  Terms
    sharing a monomial but differing in t-power each contribute a form.
    """
    forms = tuple(
        AffineForm(slope=term.exponent, offset=term.t_exponent)
        for term in family.terms
    )
    return TropicalPolynomial(forms=forms)


def monomial_substitution(
    family: LaurentFamily, matrix: Sequence[Sequence[int]]
) -> LaurentFamily:
    """Substitute X_i -> prod_j Y_j^(A_ji), sending exponents m to A m.

    For A in GL(n, Z) this is a torus automorphism; the tropicalization
    of the substituted family at w equals the original at A^T w.  The
    entries of A must be ints; a bool raises TypeError.
    """
    n = family.dim
    rows = [tuple(_as_int(a) for a in row) for row in matrix]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError(f"matrix must be {n} x {n}")
    terms = tuple(
        LaurentTerm(
            coefficient=term.coefficient,
            t_exponent=term.t_exponent,
            exponent=tuple(
                sum(rows[i][j] * term.exponent[j] for j in range(n))
                for i in range(n)
            ),
        )
        for term in family.terms
    )
    return LaurentFamily(terms=terms)

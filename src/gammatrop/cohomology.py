"""Characteristic-class side of the verification.

Works in the truncated one-generator cohomology ring of a projective
space P^n or of a degree-d hypersurface inside it: an element is a
polynomial in the hyperplane class H, cut off beyond the top degree.
The Gamma class is exp(sum_k a_k p_k H^k), with a_k the Taylor
coefficients of log Gamma(1+x) and p_k the power sums of the Chern roots,
read off log c = sum_i log(1 + x_i).  exp and log are the power-series
recurrences, O(n^2) coefficient products each.

Coefficients are exact.  Every Gamma-side number lies in
Q[i, euler_gamma, pi, zeta(3), zeta(5), ...]: the log-Gamma coefficients
are -euler_gamma and (-1)^k zeta(k)/k, zeta at an even integer is a
rational multiple of a power of pi, and ch(V) brings in powers of 2 pi i.
A rational is a plain int or Fraction; any other such number is an
`_Exact`, a sparse map from monomials to Fractions with i^2 = -1 folded
in, so +, -, *, == and hash are exact with no simplification step.
Numeric evaluation happens in one final float pass, in which zeta at an
odd integer is the Euler-Maclaurin sum of `zeta_value`, computed once per
k from the module's own Bernoulli numbers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterable, Sequence

from .errors import UnsupportedDimensionError

__all__ = [
    "GradedElement",
    "ManifoldModel",
    "PeriodPolynomial",
    "zeta_value",
    "log_gamma_series",
    "log_gamma_series_exact",
    "total_chern",
    "chern_character",
    "gamma_class",
    "integrate",
    "gamma_period_polynomial",
]

_EULER_GAMMA = 0.5772156649015329

# A monomial i^e0 euler_gamma^e1 pi^e2 zeta(3)^e3 zeta(5)^e4 ... is the
# exponent tuple (e0, e1, e2, e3, ...); in canonical form e0 is 0 or 1 and
# the tuple has no trailing zero, so the rational monomial is ().


def _generator_name(k: int) -> str:
    """Printed name of generator k: I, EulerGamma, pi, zeta(3), zeta(5), ..."""
    return ("I", "EulerGamma", "pi")[k] if k < 3 else f"zeta({2 * k - 3})"


def _generator_float(k: int) -> float:
    """Float value of the real generator k >= 1."""
    if k == 1:
        return _EULER_GAMMA
    return math.pi if k == 2 else zeta_value(2 * k - 3)


def _exact(terms: Iterable[tuple[tuple[int, ...], int | Fraction]]):
    """The canonical value of sum(c * monomial) over (monomial, c) pairs.

    Folds i^2 = -1, strips trailing zero exponents, merges equal monomials
    and drops zero terms.  A rational comes back as an int (when integral)
    or a Fraction, anything else as an `_Exact`.
    """
    out: dict[tuple[int, ...], int | Fraction] = {}
    for monomial, c in terms:
        if monomial and monomial[0] > 1:
            c = -c if monomial[0] % 4 > 1 else c
            monomial = (monomial[0] % 2,) + monomial[1:]
        while monomial and not monomial[-1]:
            monomial = monomial[:-1]
        out[monomial] = out[monomial] + c if monomial in out else c
    out = {m: c if type(c) is Fraction else Fraction(c) for m, c in out.items() if c}
    if not out:
        return 0
    if len(out) == 1 and () in out:
        c = out[()]
        return c.numerator if c.denominator == 1 else c
    return _Exact(out)


class _Exact:
    """An irrational number of Q[i, euler_gamma, pi, zeta(3), zeta(5), ...].

    `terms` maps canonical monomials to nonzero Fractions and holds more
    than the rational monomial; build values with `_exact`.  Arithmetic
    with int, Fraction and `_Exact` stays exact, and a result that is
    rational comes back as int or Fraction, so == and hash agree with
    those types.  complex() is the float pass; str() prints the names
    I, EulerGamma, pi and zeta(k).
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, ...], Fraction]):
        self.terms = terms

    def __add__(self, other):
        if isinstance(other, _Exact):
            return _exact(itertools.chain(self.terms.items(), other.terms.items()))
        if isinstance(other, (int, Fraction)):
            return _exact(itertools.chain(self.terms.items(), [((), other)]))
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _Exact({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, (_Exact, int, Fraction)):
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _exact((m, c * other) for m, c in self.terms.items())
        if not isinstance(other, _Exact):
            return NotImplemented
        return _exact(
            (tuple(a + b for a, b in itertools.zip_longest(p, q, fillvalue=0)), c * d)
            for p, c in self.terms.items()
            for q, d in other.terms.items()
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, _Exact):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return False  # a canonical _Exact is never rational
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __complex__(self):
        parts = ([], [])
        for monomial, c in self.terms.items():
            x = float(c)
            for k, e in enumerate(monomial[1:], start=1):
                x *= _generator_float(k) ** e
            parts[monomial[0] if monomial else 0].append(x)
        return complex(math.fsum(parts[0]), math.fsum(parts[1]))

    def __repr__(self):
        return _format_sum(_factored_terms(self))


def _factored_terms(c) -> list[tuple[Fraction, list[str]]]:
    """(coefficient, factor names) of each term of a ring value, highest
    monomial first; a rational is one term with no factors."""
    if not isinstance(c, _Exact):
        return [(c, [])] if c else []
    return [
        (coefficient, [_generator_name(k) + (f"**{e}" if e > 1 else "") for k, e in enumerate(m) if e])
        for m, coefficient in sorted(c.terms.items(), reverse=True)
    ]


def _format_sum(terms: Iterable[tuple[int | Fraction, list[str]]]) -> str:
    """Text of sum(c * product of factors) over (c, factors) pairs, as
    "9*L**2/2 - 9*EulerGamma*L + pi**2/4"."""
    text = ""
    for c, factors in terms:
        c = Fraction(c)
        numerator = abs(c.numerator)
        body = "*".join(([str(numerator)] if numerator != 1 or not factors else []) + factors)
        if c.denominator != 1:
            body += f"/{c.denominator}"
        if text:
            text += (" - " if c < 0 else " + ") + body
        else:
            text = ("-" if c < 0 else "") + body
    return text or "0"


_TWO_PI_I = _exact([((1, 0, 1), 2)])


def _bernoulli(m: int) -> list[Fraction]:
    """B_0..B_m from sum_{k <= j} C(j+1, k) B_k = 0 for j >= 1 (B_1 = -1/2)."""
    b = [Fraction(1)]
    for j in range(1, m + 1):
        b.append(-sum(math.comb(j + 1, k) * b[k] for k in range(j)) / (j + 1))
    return b


def _as_int(value, what: str) -> int:
    """value itself if it is an int; a bool, which would read as 0 or 1,
    or any other type raises TypeError."""
    if type(value) is bool or not isinstance(value, int):
        raise TypeError(f"{what} must be an int, got {value!r}")
    return value


def zeta_value(k: int) -> float:
    """Riemann zeta at an integer k >= 2, as a float."""
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"zeta_value requires an integer k >= 2, got {k!r}")
    return _zeta(k)


# Euler-Maclaurin after the first _ZETA_HEAD - 1 terms, with
# _ZETA_BERNOULLI Bernoulli corrections: the first omitted one is below
# 6e-18 for every k (largest at k = 2, 3), so the exact sum, rounded
# once, is within an ulp of zeta(k)
_ZETA_HEAD = 10
_ZETA_BERNOULLI = 8


@cache
def _zeta(k: int) -> float:
    """zeta(k) = sum_{n<N} n^-k + N^(1-k)/(k-1) + N^-k/2
    + sum_j B_2j/(2j)! k(k+1)...(k+2j-2) N^(1-k-2j), in Fractions, then
    rounded once; cached, since each k costs about a millisecond."""
    n = _ZETA_HEAD
    bernoulli = _bernoulli(2 * _ZETA_BERNOULLI)
    # the head, then N^(1-k)/(k-1) + N^-k/2 as one fraction
    total = sum(Fraction(1, m**k) for m in range(1, n))
    total += Fraction(2 * n + k - 1, 2 * (k - 1) * n**k)
    rising = k
    for j in range(1, _ZETA_BERNOULLI + 1):
        total += bernoulli[2 * j] * rising / (math.factorial(2 * j) * n ** (k + 2 * j - 1))
        rising *= (k + 2 * j - 1) * (k + 2 * j)
    return float(total)


def log_gamma_series(order: int) -> list[float]:
    """Taylor coefficients a_1..a_order of log Gamma(1+x) at x = 0.

    a_1 = -euler_gamma and a_k = (-1)^k zeta(k)/k for k >= 2: the float
    pass of `log_gamma_series_exact`.
    """
    return [complex(a).real for a in log_gamma_series_exact(order)]


def log_gamma_series_exact(order: int) -> list:
    """Same coefficients as exact ring values.

    zeta(2m) = (-1)^(m+1) B_2m (2 pi)^(2m) / (2 (2m)!) with the Bernoulli
    number B_2m; zeta at an odd k >= 3 is a generator of the ring.  Order
    0 gives [], and an order that is no int raises TypeError.
    """
    if _as_int(order, "order") < 0:
        raise ValueError("order must be >= 0")
    bernoulli = _bernoulli(order)
    coeffs = [_exact([((0, 1), -1)])] if order else []
    for k in range(2, order + 1):
        if k % 2:
            zeta = ((0,) * ((k + 3) // 2) + (1,), 1)
        else:
            zeta = ((0, 0, k), (-1) ** (k // 2 + 1) * bernoulli[k] * 2**k / (2 * math.factorial(k)))
        coeffs.append(_exact([zeta]) * Fraction((-1) ** k, k))
    return coeffs


class GradedElement:
    """Polynomial in the hyperplane class H truncated beyond degree n.

    coefficients[k] is the coefficient of H^k; products drop every term
    of degree > truncation.  Coefficients are ints, Fractions or exact
    ring values (see the module docstring); arithmetic on them is
    generic, so any type with exact +, - and * stays exact.  The
    truncation and a power's exponent are ints; a bool or a float raises
    TypeError.
    """

    __slots__ = ("coefficients", "truncation")

    def __init__(self, coefficients: Sequence, truncation: int | None = None):
        coeffs = list(coefficients)
        if truncation is None:
            truncation = len(coeffs) - 1
        if _as_int(truncation, "truncation") < 0:
            raise ValueError("truncation must be >= 0")
        if len(coeffs) < truncation + 1:
            coeffs.extend([0] * (truncation + 1 - len(coeffs)))
        else:
            coeffs = coeffs[: truncation + 1]
        self.coefficients = coeffs
        self.truncation = truncation

    @classmethod
    def zero(cls, truncation: int) -> "GradedElement":
        return cls([0], truncation)

    @classmethod
    def one(cls, truncation: int) -> "GradedElement":
        return cls([1], truncation)

    @classmethod
    def hyperplane(cls, truncation: int) -> "GradedElement":
        return cls([0, 1], truncation)

    def coefficient(self, k: int):
        if k < 0 or k > self.truncation:
            return 0
        return self.coefficients[k]

    def _check_compatible(self, other: "GradedElement") -> None:
        if self.truncation != other.truncation:
            raise ValueError(
                f"truncation mismatch: {self.truncation} vs {other.truncation}"
            )

    def __add__(self, other):
        if not isinstance(other, GradedElement):
            return NotImplemented
        self._check_compatible(other)
        return GradedElement(
            [a + b for a, b in zip(self.coefficients, other.coefficients)],
            self.truncation,
        )

    def __sub__(self, other):
        if not isinstance(other, GradedElement):
            return NotImplemented
        self._check_compatible(other)
        return GradedElement(
            [a - b for a, b in zip(self.coefficients, other.coefficients)],
            self.truncation,
        )

    def __neg__(self):
        return GradedElement([-a for a in self.coefficients], self.truncation)

    def __mul__(self, other):
        if isinstance(other, GradedElement):
            self._check_compatible(other)
            n = self.truncation
            out = [0] * (n + 1)
            for i, a in enumerate(self.coefficients):
                if a == 0:
                    continue
                for j in range(0, n + 1 - i):
                    b = other.coefficients[j]
                    if b == 0:
                        continue
                    out[i + j] = out[i + j] + a * b
            return GradedElement(out, n)
        # scalar
        return GradedElement(
            [other * a for a in self.coefficients], self.truncation
        )

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k: int):
        if _as_int(k, "exponent") < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = GradedElement.one(self.truncation)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, GradedElement):
            return NotImplemented
        return self.truncation == other.truncation and self.coefficients == other.coefficients

    def __hash__(self):
        return hash((self.truncation, tuple(self.coefficients)))

    def inverse(self) -> "GradedElement":
        """Multiplicative inverse; requires a nonzero rational degree-0 part."""
        c0 = self.coefficients[0]
        if not isinstance(c0, (int, Fraction)):
            raise TypeError(f"inverse needs a rational constant term, got {c0!r}")
        if c0 == 0:
            raise ValueError("element with zero constant term is not invertible")
        n = self.truncation
        inv0 = Fraction(1) / c0
        out = [inv0] + [0] * n
        for k in range(1, n + 1):
            acc = 0
            for j in range(1, k + 1):
                acc = acc + self.coefficients[j] * out[k - j]
            out[k] = -inv0 * acc
        return GradedElement(out, n)

    def exp(self) -> "GradedElement":
        """exp of a nilpotent element (zero constant term required).

        g = exp f solves g' = f' g, so k g_k = sum_{j=1..k} j f_j g_{k-j}:
        O(n^2) coefficient products, where n truncated powers of f take
        O(n^3).
        """
        f = self.coefficients
        if f[0] != 0:
            raise ValueError("exp requires zero constant term")
        jf = [j * c for j, c in enumerate(f)]
        g = [1]
        for k in range(1, self.truncation + 1):
            g.append(Fraction(1, k) * sum(jf[j] * g[k - j] for j in range(1, k + 1)))
        return GradedElement(g, self.truncation)

    def log(self) -> "GradedElement":
        """log of 1 + nilpotent (constant term must equal 1).

        The exp recurrence solved for f = log g:
        k f_k = k g_k - sum_{j=1..k-1} j f_j g_{k-j}.
        """
        g = self.coefficients
        if g[0] != 1:
            raise ValueError("log requires constant term 1")
        n = self.truncation
        jf = [0]  # k f_k
        for k in range(1, n + 1):
            jf.append(k * g[k] - sum(jf[j] * g[k - j] for j in range(1, k)))
        return GradedElement([0] + [Fraction(1, k) * jf[k] for k in range(1, n + 1)], n)

    def degree_part(self, k: int) -> "GradedElement":
        out = [0] * (self.truncation + 1)
        if 0 <= k <= self.truncation:
            out[k] = self.coefficients[k]
        return GradedElement(out, self.truncation)

    def __repr__(self):
        return f"GradedElement({self.coefficients!r})"


@dataclass(frozen=True)
class ManifoldModel:
    """P^n, or a smooth degree-d hypersurface in P^n, n >= 1.

    hypersurface_degree None means the ambient projective space itself.
    Both are ints; a float or a bool raises TypeError.  A hypersurface in
    P^1 is d points, of dimension 0; for d = 2 it is the Calabi-Yau whose
    count 2 is the boundary measure of the [-1, 1] chamber.
    """

    ambient_dim: int
    hypersurface_degree: int | None = None

    def __post_init__(self):
        for value in (self.ambient_dim, self.hypersurface_degree):
            if value is not None:
                _as_int(value, "ManifoldModel data")
        if self.ambient_dim < 1:
            raise UnsupportedDimensionError(
                f"ambient_dim must be >= 1, got {self.ambient_dim}"
            )
        d = self.hypersurface_degree
        if d is not None:
            if d < 1:
                raise ValueError(f"hypersurface degree must be >= 1, got {d}")

    @property
    def dim(self) -> int:
        if self.hypersurface_degree is None:
            return self.ambient_dim
        return self.ambient_dim - 1

    @property
    def is_calabi_yau(self) -> bool:
        """True when the first Chern class of the model vanishes."""
        return self.hypersurface_degree == self.ambient_dim + 1

    def to_json_dict(self) -> dict:
        return {"ambient": self.ambient_dim, "degree": self.hypersurface_degree}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ManifoldModel":
        unknown = sorted(set(data) - {"ambient", "degree"})
        if unknown:
            raise ValueError(f"unknown ManifoldModel keys: {unknown}")
        return cls(data["ambient"], data.get("degree"))


def total_chern(m: ManifoldModel) -> GradedElement:
    """Total Chern class of the tangent bundle, truncated at dim(m).

    For P^n this is (1+H)^(n+1).  For a hypersurface of degree d the
    normal-bundle sequence gives (1+H)^(n+1) * (1+dH)^(-1), truncated
    one degree lower.
    """
    n = m.ambient_dim
    ambient = GradedElement([0, 1], m.dim)  # H at the model's truncation
    c = (GradedElement.one(m.dim) + ambient) ** (n + 1)
    if m.hypersurface_degree is not None:
        d = m.hypersurface_degree
        c = c * (GradedElement.one(m.dim) + d * ambient).inverse()
    return c


def _power_sums(c: GradedElement) -> list:
    """Power sums p_1..p_n of the Chern roots, n the truncation.

    log c = sum_i log(1 + x_i) = sum_k (-1)^(k+1) p_k H^k / k, so p_k is
    (-1)^(k+1) k times the H^k coefficient of log c; c_0 must be 1.
    """
    log_c = c.log().coefficients
    return [(-1) ** (k + 1) * k * log_c[k] for k in range(1, c.truncation + 1)]


def chern_character(c: GradedElement, rank: int) -> list[GradedElement]:
    """Chern character components [ch_0, ch_1, ..., ch_n], ch_k = p_k H^k/k!.

    rank is an int; a bool or a float raises TypeError.
    """
    if _as_int(rank, "rank") < 0:
        raise ValueError("rank must be >= 0")
    n = c.truncation
    ch = [rank * GradedElement.one(n)]
    for k, p in enumerate(_power_sums(c), start=1):
        ch.append(GradedElement([0] * k + [Fraction(1, math.factorial(k)) * p], n))
    return ch


def gamma_class(m: ManifoldModel) -> GradedElement:
    """Gamma class of the tangent bundle.

    Defined as the product of Gamma(1 + delta_i) over the Chern roots,
    i.e. exp(sum_k a_k p_k H^k) with a_k the log-Gamma Taylor
    coefficients and p_k the power sums.  Coefficients come out as exact
    ring values in euler_gamma, pi and odd zeta values.
    """
    a = log_gamma_series_exact(m.dim)
    ps = _power_sums(total_chern(m))
    return GradedElement([0] + [ak * pk for ak, pk in zip(a, ps)], m.dim).exp()


def integrate(m: ManifoldModel, x: GradedElement):
    """Integral of x over the model: top coefficient times the H-degree.

    For a hypersurface of degree d in P^n, H^(n-1) evaluates to d.
    """
    if x.truncation != m.dim:
        raise ValueError(
            f"element truncation {x.truncation} does not match dim {m.dim}"
        )
    top = x.coefficient(m.dim)
    if m.hypersurface_degree is None:
        return top
    return m.hypersurface_degree * top


class PeriodPolynomial:
    """Polynomial in L = -log t predicted for a period integral.

    coefficients[k] multiplies L^k; entries are ints, Fractions or exact
    ring values (see the module docstring).  evaluate() switches to
    floats, and symbolic() prints the expanded polynomial in L with the
    names EulerGamma, pi, I and zeta(k).
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Sequence):
        self.coefficients = list(coefficients)

    @property
    def degree(self) -> int:
        deg = 0
        for k, c in enumerate(self.coefficients):
            if c != 0:
                deg = k
        return deg

    def evaluate(self, big_l: float) -> complex:
        acc = 0j
        for k, c in enumerate(self.coefficients):
            acc += complex(c) * big_l**k
        return acc

    def evaluate_at_t(self, t: float) -> complex:
        if not 0 < t < 1:
            raise ValueError("t must lie in (0, 1)")
        return self.evaluate(-math.log(t))

    def symbolic(self) -> str:
        terms = []
        for k in reversed(range(len(self.coefficients))):
            power = [] if k == 0 else ["L" if k == 1 else f"L**{k}"]
            terms += [(c, factors + power) for c, factors in _factored_terms(self.coefficients[k])]
        return _format_sum(terms)

    def to_json_dict(self) -> dict:
        coeffs = []
        for c in self.coefficients:
            z = complex(c)
            coeffs.append(z.real if z.imag == 0.0 else [z.real, z.imag])
        return {"coeffs": coeffs, "symbolic": self.symbolic()}

    def __repr__(self):
        return f"PeriodPolynomial({self.symbolic()})"


def gamma_period_polynomial(
    m: ManifoldModel,
    omega_multiple,
    chern_character_of_v: list[GradedElement] | None = None,
) -> PeriodPolynomial:
    """Predicted log-polynomial of the period paired with a bundle V.

    Expands the integral of exp(L*omega) * GammaClass * (2 pi i)^(deg/2)
    * ch(V) over the model, with omega = omega_multiple * H.  The degree-k
    ch component picks up the multiplier (2 pi i)^k.  Default V is the
    trivial line bundle.  omega_multiple is an int or a Fraction.
    """
    if type(omega_multiple) is bool or not isinstance(omega_multiple, (int, Fraction)):
        raise TypeError(f"omega_multiple must be an int or a Fraction, got {omega_multiple!r}")
    n = m.dim
    gamma = gamma_class(m)
    if chern_character_of_v is None:
        v_hat = GradedElement.one(n)
    else:
        v_hat = GradedElement.zero(n)
        multiplier = 1  # (2 pi i)^k
        for ch_k in chern_character_of_v:
            if ch_k.truncation != n:
                raise ValueError(
                    f"ch component truncation {ch_k.truncation} does not match dim {n}"
                )
            v_hat = v_hat + multiplier * ch_k
            multiplier = multiplier * _TWO_PI_I
    total = gamma * v_hat
    coeffs = []
    for j in range(n + 1):
        # coefficient of L^j: int omega^j/j! * total picks degree n-j of total
        c = total.coefficient(n - j) * Fraction(omega_multiple**j, math.factorial(j))
        if m.hypersurface_degree is not None:
            c = c * m.hypersurface_degree
        coeffs.append(c)
    return PeriodPolynomial(coeffs)

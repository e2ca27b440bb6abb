"""Characteristic-class side of the verification.

Works in the truncated one-generator cohomology ring of a projective
space P^n or of a degree-d hypersurface inside it: an element is a
polynomial in the hyperplane class H, cut off beyond the top degree.
Coefficients are kept exact (integers, fractions, and sympy expressions
carrying zeta values, Euler's gamma and powers of 2*pi*i); numeric
evaluation happens in one final pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import scipy.special
import sympy

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


def zeta_value(k: int) -> float:
    """Riemann zeta at an integer k >= 2, as a float."""
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"zeta_value requires an integer k >= 2, got {k!r}")
    return float(scipy.special.zeta(k))


def log_gamma_series(order: int) -> list[float]:
    """Taylor coefficients a_1..a_order of log Gamma(1+x) at x = 0.

    a_1 = -euler_gamma and a_k = (-1)^k zeta(k)/k for k >= 2.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    coeffs = [-float(sympy.EulerGamma)]
    for k in range(2, order + 1):
        coeffs.append((-1) ** k * zeta_value(k) / k)
    return coeffs


def log_gamma_series_exact(order: int) -> list[sympy.Expr]:
    """Same coefficients as exact sympy expressions."""
    if order < 1:
        raise ValueError("order must be >= 1")
    coeffs = [-sympy.EulerGamma]
    for k in range(2, order + 1):
        coeffs.append(sympy.Rational((-1) ** k, k) * sympy.zeta(k))
    return coeffs


class GradedElement:
    """Polynomial in the hyperplane class H truncated beyond degree n.

    coefficients[k] is the coefficient of H^k; products drop every term
    of degree > truncation.  Coefficient arithmetic is generic: exact
    types (int, Fraction, sympy.Expr) stay exact.
    """

    __slots__ = ("coefficients", "truncation")

    def __init__(self, coefficients: Sequence, truncation: int | None = None):
        coeffs = list(coefficients)
        if truncation is None:
            truncation = len(coeffs) - 1
        if truncation < 0:
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
        if not isinstance(k, int) or k < 0:
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
        if self.truncation != other.truncation:
            return False
        for a, b in zip(self.coefficients, other.coefficients):
            if a == b:
                continue
            if sympy.simplify(sympy.sympify(a) - sympy.sympify(b)) != 0:
                return False
        return True

    def __hash__(self):
        return hash((self.truncation, tuple(map(sympy.sympify, self.coefficients))))

    def inverse(self) -> "GradedElement":
        """Multiplicative inverse; requires an invertible degree-0 part."""
        c0 = self.coefficients[0]
        if c0 == 0:
            raise ValueError("element with zero constant term is not invertible")
        n = self.truncation
        inv0 = Fraction(1, c0) if isinstance(c0, int) else 1 / sympy.sympify(c0)
        out = [inv0] + [0] * n
        for k in range(1, n + 1):
            acc = 0
            for j in range(1, k + 1):
                acc = acc + self.coefficients[j] * out[k - j]
            out[k] = -inv0 * acc
        return GradedElement(out, n)

    def exp(self) -> "GradedElement":
        """exp of a nilpotent element (zero constant term required)."""
        if self.coefficients[0] != 0:
            raise ValueError("exp requires zero constant term")
        n = self.truncation
        result = GradedElement.one(n)
        term = GradedElement.one(n)
        for k in range(1, n + 1):
            term = term * self
            result = result + Fraction(1, math.factorial(k)) * term
        return result

    def log(self) -> "GradedElement":
        """log of 1 + nilpotent (constant term must equal 1)."""
        if self.coefficients[0] != 1:
            raise ValueError("log requires constant term 1")
        n = self.truncation
        u = self - GradedElement.one(n)
        result = GradedElement.zero(n)
        term = GradedElement.one(n)
        for k in range(1, n + 1):
            term = term * u
            result = result + Fraction((-1) ** (k + 1), k) * term
        return result

    def degree_part(self, k: int) -> "GradedElement":
        out = [0] * (self.truncation + 1)
        if 0 <= k <= self.truncation:
            out[k] = self.coefficients[k]
        return GradedElement(out, self.truncation)

    def to_complex(self) -> list[complex]:
        """Numeric evaluation pass over the coefficients."""
        return [_to_complex(c) for c in self.coefficients]

    def __repr__(self):
        return f"GradedElement({self.coefficients!r})"


def _to_complex(c) -> complex:
    if isinstance(c, (int, float, complex)):
        return complex(c)
    if isinstance(c, Fraction):
        return complex(float(c))
    return complex(sympy.sympify(c).evalf())


@dataclass(frozen=True)
class ManifoldModel:
    """P^n, or a smooth degree-d hypersurface in P^n.

    hypersurface_degree None means the ambient projective space itself.
    Both are ints; a float or a bool raises TypeError.
    """

    ambient_dim: int
    hypersurface_degree: int | None = None

    def __post_init__(self):
        for value in (self.ambient_dim, self.hypersurface_degree):
            if value is not None and (type(value) is bool or not isinstance(value, int)):
                raise TypeError(f"ManifoldModel needs int data, got {value!r}")
        if self.ambient_dim < 1:
            raise UnsupportedDimensionError(
                f"ambient_dim must be >= 1, got {self.ambient_dim}"
            )
        d = self.hypersurface_degree
        if d is not None:
            if d < 1:
                raise ValueError(f"hypersurface degree must be >= 1, got {d}")
            if self.ambient_dim < 2:
                raise UnsupportedDimensionError(
                    "hypersurfaces need ambient_dim >= 2"
                )

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


def _power_sums(c: GradedElement, top: int) -> list[GradedElement]:
    """Newton's identities: power sums p_1..p_top of the Chern roots.

    p_k = c_1 p_{k-1} - c_2 p_{k-2} + ... + (-1)^(k-1) k c_k.
    c_k beyond the truncation (or the rank) is zero.
    """
    n = c.truncation
    ck = [c.degree_part(k) for k in range(n + 1)]
    ps: list[GradedElement] = []
    for k in range(1, top + 1):
        acc = GradedElement.zero(n)
        for j in range(1, k):
            if j <= n:
                sign = (-1) ** (j + 1)
                acc = acc + sign * (ck[j] * ps[k - 1 - j])
        if k <= n:
            acc = acc + ((-1) ** (k + 1) * k) * ck[k]
        ps.append(acc)
    return ps


def chern_character(c: GradedElement, rank: int) -> list[GradedElement]:
    """Chern character components [ch_0, ch_1, ..., ch_n], ch_k = p_k/k!."""
    if rank < 0:
        raise ValueError("rank must be >= 0")
    n = c.truncation
    ch = [rank * GradedElement.one(n)]
    for k, p in enumerate(_power_sums(c, n), start=1):
        ch.append(Fraction(1, math.factorial(k)) * p)
    return ch


def gamma_class(m: ManifoldModel) -> GradedElement:
    """Gamma class of the tangent bundle.

    Defined as the product of Gamma(1 + delta_i) over the Chern roots,
    i.e. exp(sum_k a_k p_k) with a_k the log-Gamma Taylor coefficients
    and p_k the power sums.  Coefficients come out as exact sympy
    expressions in euler_gamma and zeta values.
    """
    n = m.dim
    c = total_chern(m)
    a = log_gamma_series_exact(n)
    ps = _power_sums(c, n)
    arg = GradedElement.zero(n)
    for ak, pk in zip(a, ps):
        arg = arg + ak * pk
    return arg.exp()


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

    coefficients[k] multiplies L^k; entries are exact sympy scalars (or
    plain numbers).  evaluate() switches to floats.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Sequence):
        self.coefficients = list(coefficients)

    @property
    def degree(self) -> int:
        deg = 0
        for k, c in enumerate(self.coefficients):
            if sympy.sympify(c) != 0:
                deg = k
        return deg

    def evaluate(self, big_l: float) -> complex:
        acc = 0j
        for k, c in enumerate(self.coefficients):
            acc += _to_complex(c) * big_l**k
        return acc

    def evaluate_at_t(self, t: float) -> complex:
        if not 0 < t < 1:
            raise ValueError("t must lie in (0, 1)")
        return self.evaluate(-math.log(t))

    def symbolic(self) -> str:
        big_l = sympy.Symbol("L")
        expr = sum(sympy.sympify(c) * big_l**k for k, c in enumerate(self.coefficients))
        return str(sympy.expand(expr))

    def to_json_dict(self) -> dict:
        coeffs = []
        for c in self.coefficients:
            z = _to_complex(c)
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
    trivial line bundle.
    """
    n = m.dim
    gamma = gamma_class(m)
    if chern_character_of_v is None:
        v_hat = GradedElement.one(n)
    else:
        v_hat = GradedElement.zero(n)
        two_pi_i = 2 * sympy.pi * sympy.I
        for k, ch_k in enumerate(chern_character_of_v):
            if ch_k.truncation != n:
                raise ValueError(
                    f"ch component truncation {ch_k.truncation} does not match dim {n}"
                )
            v_hat = v_hat + two_pi_i**k * ch_k
    total = gamma * v_hat
    omega_multiple = sympy.sympify(omega_multiple)
    coeffs = []
    for j in range(n + 1):
        # coefficient of L^j: int omega^j/j! * total picks degree n-j of total
        c = total.coefficient(n - j) * omega_multiple**j * sympy.Rational(1, math.factorial(j))
        if m.hypersurface_degree is not None:
            c = c * m.hypersurface_degree
        coeffs.append(sympy.expand(sympy.sympify(c)))
    return PeriodPolynomial(coeffs)

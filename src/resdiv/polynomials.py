"""Dense univariate polynomials with exact coefficients.

Representation: a tuple of coefficients, constant term first, with no trailing
zeros; the zero polynomial is the empty tuple and has degree MINUS_INFINITY.
Coefficients are Python ints or ``fractions.Fraction``; every constructor
normalizes integer-valued Fractions back to int, so polynomials over Z stay
visibly integral and hash consistently.

One class covers both the integer and rational cases — ``is_integral`` tells
them apart where it matters (divisor verification demands integer cofactors,
while the remainder chains live over the rationals).
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from typing import Iterable, Union

from .base import DivResult, MINUS_INFINITY, RING_OPS

Coeff = Union[int, Fraction]


def _norm_coeff(c: Coeff) -> Coeff:
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    if isinstance(c, int):
        return c
    raise TypeError(f"polynomial coefficients must be int or Fraction, got {type(c).__name__}")


class Poly:
    """Immutable dense polynomial."""

    __slots__ = ("coeffs",)

    coeffs: tuple[Coeff, ...]

    def __init__(self, coeffs: Iterable[Coeff] = ()) -> None:
        cs = [_norm_coeff(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

    @classmethod
    def constant(cls, c: Coeff) -> "Poly":
        return cls((c,))

    @classmethod
    def monomial(cls, c: Coeff, k: int) -> "Poly":
        if k < 0:
            raise ValueError("monomial degree must be nonnegative")
        return cls((0,) * k + (c,))

    # -- structure ---------------------------------------------------------

    @property
    def degree(self):
        """Degree as an int, or MINUS_INFINITY for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else MINUS_INFINITY

    @property
    def lead(self) -> Coeff:
        """Leading coefficient; 0 for the zero polynomial."""
        return self.coeffs[-1] if self.coeffs else 0

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_integral(self) -> bool:
        return all(isinstance(c, int) for c in self.coeffs)

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coeff(self, k: int) -> Coeff:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def shifted(self, k: int) -> "Poly":
        """Multiply by x**k (k >= 0)."""
        if self.is_zero() or k == 0:
            return self
        return Poly((0,) * k + self.coeffs)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: object) -> "Poly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        RING_OPS.tick()
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: object) -> "Poly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: object) -> "Poly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: object) -> "Poly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        RING_OPS.tick()
        if not self.coeffs or not other.coeffs:
            return Poly.zero()
        # integer convolution of the numerators over one common denominator
        # per factor: one Fraction per output coefficient, not per product
        a, da = _over_common_denominator(self.coeffs)
        b, db = _over_common_denominator(other.coeffs)
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        den = da * db
        return Poly(out if den == 1 else [Fraction(v, den) for v in out])

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        out = Poly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __call__(self, x0: Coeff) -> Coeff:
        """Value at a rational point, by Horner's rule on the numerators
        over one common denominator."""
        nums, den = _over_common_denominator(self.coeffs)
        acc: Coeff = 0
        for c in reversed(nums):
            acc = acc * x0 + c
        return _norm_coeff(Fraction(acc, den)) if den != 1 else acc

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == Poly.constant(other).coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- text --------------------------------------------------------------

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = -c if c < 0 else c
            if k == 0:
                body = str(mag)
            else:
                var = "x" if k == 1 else f"x^{k}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"


def _over_common_denominator(cs: tuple[Coeff, ...]) -> tuple[list[int], int]:
    """(numerators, den) with cs[i] == numerators[i] / den, den the lcm of
    the coefficients' denominators (1 for an integral polynomial)."""
    den = lcm(*[c.denominator for c in cs])
    return [c.numerator * (den // c.denominator) for c in cs], den


def _coerce(v: object) -> Poly | None:
    if isinstance(v, Poly):
        return v
    if isinstance(v, (int, Fraction)):
        return Poly.constant(v)
    return None


def poly_div(a: Poly, b: Poly) -> DivResult:
    """Long division in Q[x]: a = q*b + r with deg r < deg b.

    Exact rational arithmetic throughout. When ``b`` is monic and both inputs
    are integral, q and r come out integral (no Fraction ever appears, since
    the only divisions are by the leading coefficient 1).
    """
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    RING_OPS.tick()
    db = len(b.coeffs) - 1
    lead = b.coeffs[-1]
    rem = list(a.coeffs)
    if len(rem) <= db:
        return DivResult(Poly.zero(), a)
    q: list[Coeff] = [0] * (len(rem) - db)
    for top in range(len(rem) - 1, db - 1, -1):
        c = rem[top]
        if c == 0:
            continue
        factor = _norm_coeff(c if lead == 1 else Fraction(c) / lead)
        q[top - db] = factor
        rem[top] = 0
        for j in range(db):
            rem[top - db + j] -= factor * b.coeffs[j]
    r = Poly(rem)
    if not r.is_zero() and r.degree >= db:
        raise AssertionError("division remainder failed to drop degree")
    return DivResult(Poly(q), r)


def _sqrt_rational(c: Coeff) -> Coeff | None:
    """Exact square root of a nonnegative rational, or None."""
    if isinstance(c, int):
        if c < 0:
            return None
        s = isqrt(c)
        return s if s * s == c else None
    if c < 0:
        return None
    sn, sd = isqrt(c.numerator), isqrt(c.denominator)
    if sn * sn == c.numerator and sd * sd == c.denominator:
        return _norm_coeff(Fraction(sn, sd))
    return None


def poly_sqrt(p: Poly) -> Poly | None:
    """Exact polynomial square root over Q, or None if ``p`` is not a square.

    Strategy: strip the power of x dividing p (odd power -> not a square),
    reject odd degree or a non-square constant term, then rebuild candidate
    coefficients from the series identity (sum a_i x^i)^2 = p, i.e.

        a_j = (p_j - sum_{i=1}^{j-1} a_i * a_{j-i}) / (2*a_0).

    The candidate is only returned after the unconditional final check
    A*A == p, so a near-square that satisfies every recurrence step but fails
    in the high coefficients is still rejected.
    """
    RING_OPS.tick()
    if p.is_zero():
        return Poly.zero()
    k = 0
    while p.coeffs[k] == 0:
        k += 1
    if k & 1:
        return None
    body = Poly(p.coeffs[k:])
    deg = len(body.coeffs) - 1
    if deg & 1:
        return None
    a0 = _sqrt_rational(body.coeffs[0])
    if a0 is None or a0 == 0:
        return None
    half = deg // 2
    a: list[Coeff] = [a0]
    inv2a0 = Fraction(1, 2) / a0
    for j in range(1, half + 1):
        acc = body.coeff(j)
        for i in range(1, j):
            acc -= a[i] * a[j - i]
        a.append(_norm_coeff(acc * inv2a0))
    cand = Poly(a).shifted(k // 2)
    if cand * cand == p:
        return cand
    return None

"""Dense univariate polynomials over Q, in integer arithmetic.

Representation: integer numerators ``nums``, constant term first, over one
denominator ``den``, in a canonical form: den > 0, gcd(den, *nums) == 1
and no trailing zero; the zero polynomial is ``((), 1)`` and has degree
MINUS_INFINITY.  Every arithmetic result is built by ``_make``, which
restores that form, so equal polynomials have equal (nums, den).

Fraction appears only at the boundary: ``Poly(iterable of int|Fraction)``
takes coefficients in, and ``coeffs``, ``coeff(k)``, ``lead`` and the
value of ``p(x0)`` give them out (int when integral, else Fraction).
``+``, ``-``, ``*``, ``poly_div`` and ``poly_sqrt`` run on ints alone.

One class covers both the integer and rational cases — ``is_integral``
(den == 1) tells them apart where it matters (divisor verification
demands integer cofactors, while the remainder chains live over the
rationals).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, isqrt, lcm
from typing import Iterable, Union

from .base import DivResult, MINUS_INFINITY, RING_OPS

Coeff = Union[int, Fraction]


def _make(nums: list[int], den: int) -> "Poly":
    """The canonical Poly nums/den (den > 0)."""
    while nums and nums[-1] == 0:
        nums.pop()
    g = gcd(den, *nums)
    if g != 1:
        nums = [v // g for v in nums]
        den //= g
    p = object.__new__(Poly)
    object.__setattr__(p, "nums", tuple(nums))
    object.__setattr__(p, "den", den)
    return p


def _view(n: int, den: int) -> Coeff:
    """n/den as an int when integral, else as a Fraction."""
    return n // den if n % den == 0 else Fraction(n, den)


class Poly:
    """Immutable dense polynomial nums/den (module docstring)."""

    __slots__ = ("nums", "den")

    nums: tuple[int, ...]
    den: int

    def __new__(cls, coeffs: Iterable[Coeff] = ()) -> "Poly":
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, (int, Fraction)):
                raise TypeError("polynomial coefficients must be int or Fraction, "
                                f"got {type(c).__name__}")
        den = lcm(*[c.denominator for c in cs])
        return _make([c.numerator * (den // c.denominator) for c in cs], den)

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

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Coeff, ...]:
        """Coefficients, constant term first, as ints or Fractions."""
        if self.den == 1:
            return self.nums
        return tuple(_view(n, self.den) for n in self.nums)

    @property
    def degree(self):
        """Degree as an int, or MINUS_INFINITY for the zero polynomial."""
        return len(self.nums) - 1 if self.nums else MINUS_INFINITY

    @property
    def lead(self) -> Coeff:
        """Leading coefficient; 0 for the zero polynomial."""
        return self.coeff(len(self.nums) - 1)

    def is_zero(self) -> bool:
        return not self.nums

    def is_integral(self) -> bool:
        return self.den == 1

    def coeff(self, k: int) -> Coeff:
        return _view(self.nums[k], self.den) if 0 <= k < len(self.nums) else 0

    # -- arithmetic --------------------------------------------------------

    def _add(self, other: "Poly", sign: int) -> "Poly":
        """self + sign*other, sign = +-1."""
        RING_OPS.tick()
        den = lcm(self.den, other.den)
        ka, kb = den // self.den, sign * (den // other.den)
        pairs = zip_longest(self.nums, other.nums, fillvalue=0)
        return _make([u * ka + v * kb for u, v in pairs], den)

    def __add__(self, other: object) -> "Poly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _make([-v for v in self.nums], self.den)

    def __sub__(self, other: object) -> "Poly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._add(other, -1)

    def __rsub__(self, other: object) -> "Poly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other._add(self, -1)

    def __mul__(self, other: object) -> "Poly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        RING_OPS.tick()
        a, b = self.nums, other.nums
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return _make(out, self.den * other.den)

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
        """Value at a rational point x0 = p/q, by Horner's rule on ints:
        q^deg * den * self(x0) = sum nums[i] * p^i * q^(deg-i)."""
        p, q = x0.numerator, x0.denominator
        acc, qk = 0, 1
        for c in reversed(self.nums):
            acc = acc * p + c * qk
            qk *= q
        return _view(acc, self.den * (qk // q if self.nums else 1))

    def __eq__(self, other: object) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def __bool__(self) -> bool:
        return bool(self.nums)

    # -- text --------------------------------------------------------------

    def __str__(self) -> str:
        if not self.nums:
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


def _coerce(v: object) -> Poly | None:
    if isinstance(v, Poly):
        return v
    if isinstance(v, (int, Fraction)):
        return Poly.constant(v)
    return None


def poly_div(a: Poly, b: Poly) -> DivResult:
    """Long division in Q[x]: a = q*b + r with deg r < deg b.

    Integer pseudo-division of the numerators (Collins, JACM 1967), scaled
    only as far as each step needs: with A, B the numerators of a, b and
    beta = lead(B), it keeps scale*A = Q*B + R in integers, and before
    taking R's top coefficient c multiplies R, Q and scale by
    |beta|/gcd(c, beta), so c becomes divisible by beta.  Then q =
    Q*den(b)/(scale*den(a)) and r = R/(scale*den(a)).  A monic B never
    scales, so integral inputs over a monic divisor stay integral.
    """
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    RING_OPS.tick()
    B = b.nums
    db = len(B) - 1
    beta = B[-1]
    rem = list(a.nums)
    if len(rem) <= db:
        return DivResult(Poly.zero(), a)
    q = [0] * (len(rem) - db)
    scale = 1
    for top in range(len(rem) - 1, db - 1, -1):
        c = rem[top]
        if c == 0:
            continue
        k = abs(beta) // gcd(c, beta)
        if k != 1:
            rem = [v * k for v in rem]
            q = [v * k for v in q]
            scale *= k
        f = rem[top] // beta
        q[top - db] = f
        rem[top] = 0
        for j in range(db):
            rem[top - db + j] -= f * B[j]
    den = scale * a.den
    r = _make(rem, den)
    if not r.is_zero() and r.degree >= db:
        raise AssertionError("division remainder failed to drop degree")
    return DivResult(_make([v * b.den for v in q], den), r)


def poly_sqrt(p: Poly) -> Poly | None:
    """Exact polynomial square root over Q, or None if ``p`` is not a square.

    Gauss's lemma: p = P/d is a square in Q[x] exactly when W = P*d is a
    square in Z[x] (if p = s^2 then W = (d*s)^2, and a rational
    polynomial with an integral square is integral), and then sqrt(p) =
    sqrt(W)/d.  For W: strip the power of x dividing it (odd power -> not
    a square), reject odd degree or a non-square constant term, then
    rebuild the integer coefficients from the series identity
    (sum t_i x^i)^2 = W, i.e.

        t_j = (w_j - sum_{i=1}^{j-1} t_i * t_{j-i}) / (2*t_0),

    which divide exactly when W is a square (t_0 > 0 fixes the sign); a
    division that is not exact leaves a wrong candidate.  The candidate is
    only returned after the unconditional final check cand*cand == p, which
    rejects that, and also a near-square that satisfies every recurrence
    step but fails in the high coefficients.
    """
    RING_OPS.tick()
    if p.is_zero():
        return Poly.zero()
    d = p.den
    k = 0
    while p.nums[k] == 0:
        k += 1
    if k & 1:
        return None
    w = [v * d for v in p.nums[k:]]
    deg = len(w) - 1
    if deg & 1 or w[0] < 0:
        return None
    t0 = isqrt(w[0])
    if t0 * t0 != w[0]:
        return None
    t = [t0]
    for j in range(1, deg // 2 + 1):
        acc = w[j]
        for i in range(1, j):
            acc -= t[i] * t[j - i]
        t.append(acc // (2 * t0))
    cand = _make([0] * (k // 2) + t, d)
    if cand * cand == p:
        return cand
    return None

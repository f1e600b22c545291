"""Exact arithmetic for the supported rings.

Three element kinds: plain Python ints for Z, QuadInt for the imaginary
quadratic Euclidean rings O_K (d in {-1, -2, -3, -7, -11}), and Poly (see
polynomials) for Z[x] / Q[x].

QuadInt stores doubled coordinates: QuadInt(u, v, d) is the element
(u + v*sqrt(d))/2.  For d = -1 and -2 the ring is Z[sqrt(d)], so u and v are
both even; for d = -3, -7, -11 the ring is Z[(1+sqrt(d))/2] and u, v must
share parity.  The public constructor enforces this on Python-int
coordinates, which keeps normsq = (u^2+|d|v^2)/4 an honest integer and makes
equality a plain tuple comparison; ring operations on valid elements stay
valid, so their results skip the checks (_unchecked).

Everything here is exact; there is no floating point on any path that decides
correctness.  Magnitude comparisons go through squared norms.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .base import DivResult, InvalidInstanceError, RING_OPS
from .polynomials import Poly, poly_div, poly_sqrt

QUADRATIC_DS = (-1, -2, -3, -7, -11)

# Division norm guarantee normsq(r) <= (num/den) * normsq(b), as exact
# integer inequalities.
DIV_NORM_BOUND = {-1: (1, 2), -2: (3, 4), -3: (15, 16), -7: (15, 16), -11: (15, 16)}


# ---------------------------------------------------------------------------
# ring identifiers


@dataclass(frozen=True)
class RingId:
    """Which ring we are working in: 'int', 'quad' (with d), or 'poly'."""

    kind: str
    d: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("int", "quad", "poly"):
            raise ValueError(f"unknown ring kind {self.kind!r}")
        if self.kind == "quad":
            if self.d not in QUADRATIC_DS:
                raise ValueError(f"unsupported quadratic ring d={self.d}")
        elif self.d != 0:
            raise ValueError("d is only meaningful for quadratic rings")

    @property
    def is_int(self) -> bool:
        return self.kind == "int"

    @property
    def is_quad(self) -> bool:
        return self.kind == "quad"

    @property
    def is_poly(self) -> bool:
        return self.kind == "poly"

    @property
    def name(self) -> str:
        if self.kind == "int":
            return "z"
        if self.kind == "poly":
            return "zx"
        return "zi" if self.d == -1 else f"q{self.d}"


RING_Z = RingId("int")
RING_ZX = RingId("poly")


def quad_ring(d: int) -> RingId:
    return RingId("quad", d)


RING_ZI = quad_ring(-1)

# every ring by its CLI name, in the order the CLI lists them
RING_NAMES = {
    ring.name: ring
    for ring in (RING_Z, RING_ZI, *(quad_ring(d) for d in QUADRATIC_DS[1:]), RING_ZX)
}


def ring_from_name(name: str) -> RingId:
    """Map a CLI ring name (z, zi, q-2, q-3, q-7, q-11, zx) to a RingId."""
    try:
        return RING_NAMES[name]
    except KeyError:
        raise ValueError(
            f"unknown ring {name!r}; expected one of {sorted(RING_NAMES)}"
        ) from None


# ---------------------------------------------------------------------------
# quadratic integers


def _parity_ok(u: int, v: int, d: int) -> bool:
    if d in (-1, -2):
        return u % 2 == 0 and v % 2 == 0
    return (u - v) % 2 == 0


class QuadInt:
    """Element (u + v*sqrt(d))/2 of O_K, in doubled coordinates.

    QuadInt(u, v, d) validates: u, v and d must be integers (numpy
    integers become Python ints; floats and Fractions raise ValueError),
    d one of QUADRATIC_DS and (u, v) of the ring's parity.  Sums,
    differences, products, negation, conj and int coercion build their
    results with _unchecked instead: the ring is closed under them, so a
    result of valid inputs is valid.  Parity is preserved because the
    doubled coordinates add and subtract coordinate-wise, and a product's
    (u*u' + d*v*v')/2, (u*v' + v*u')/2 are integers of the right parity
    whenever both factors are ring elements.
    """

    __slots__ = ("u", "v", "d")

    u: int
    v: int
    d: int

    def __init__(self, u: int, v: int, d: int) -> None:
        try:
            u, v, d = operator.index(u), operator.index(v), operator.index(d)
        except TypeError:
            raise ValueError(f"QuadInt({u!r}, {v!r}, {d!r}): not integers") from None
        if d not in QUADRATIC_DS:
            raise ValueError(f"unsupported quadratic ring d={d}")
        if not _parity_ok(u, v, d):
            raise ValueError(
                f"({u} + {v}*sqrt({d}))/2 is not integral in this ring"
            )
        _set_u(self, u)
        _set_v(self, v)
        _set_d(self, d)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QuadInt is immutable")

    @classmethod
    def from_parts(cls, a: int, b: int, d: int) -> "QuadInt":
        """Build a + b*sqrt(d) from whole coordinates."""
        return cls(2 * a, 2 * b, d)

    @classmethod
    def zero(cls, d: int) -> "QuadInt":
        return cls(0, 0, d)

    @classmethod
    def one(cls, d: int) -> "QuadInt":
        return cls(2, 0, d)

    # -- structure -------------------------------------------------------

    def normsq(self) -> int:
        """Algebraic norm (u^2 + |d|v^2)/4; equals |z|^2, always an int."""
        return (self.u * self.u - self.d * self.v * self.v) // 4

    def conj(self) -> "QuadInt":
        return _unchecked(self.u, -self.v, self.d)

    def is_zero(self) -> bool:
        return self.u == 0 and self.v == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other: object) -> "QuadInt | None":
        if isinstance(other, QuadInt):
            if other.d != self.d:
                raise ValueError(f"mixing rings d={self.d} and d={other.d}")
            return other
        if isinstance(other, int):
            return _unchecked(2 * other, 0, self.d)
        return None

    def __add__(self, other: object) -> "QuadInt":
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        RING_OPS.tick()
        return _unchecked(self.u + w.u, self.v + w.v, self.d)

    __radd__ = __add__

    def __neg__(self) -> "QuadInt":
        return _unchecked(-self.u, -self.v, self.d)

    def __sub__(self, other: object) -> "QuadInt":
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        RING_OPS.tick()
        return _unchecked(self.u - w.u, self.v - w.v, self.d)

    def __rsub__(self, other: object) -> "QuadInt":
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return w - self

    def __mul__(self, other: object) -> "QuadInt":
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        RING_OPS.tick()
        # Both numerators are even: check parities case by case on d mod 4.
        uu = (self.u * w.u + self.d * self.v * w.v) // 2
        vv = (self.u * w.v + self.v * w.u) // 2
        return _unchecked(uu, vv, self.d)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.v == 0 and self.u == 2 * other
        if isinstance(other, QuadInt):
            return self.u == other.u and self.v == other.v and self.d == other.d
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.u, self.v, self.d))

    # -- text --------------------------------------------------------------

    def __str__(self) -> str:
        # Canonical element syntax: "a", "a+b*w", "a/2+b/2*w".
        def half(n: int) -> str:
            return str(n // 2) if n % 2 == 0 else f"{n}/2"

        if self.v == 0:
            return str(self.u // 2)
        wterm = f"{half(abs(self.v))}*w"
        if self.u == 0:
            return wterm if self.v > 0 else f"-{wterm}"
        sign = "+" if self.v > 0 else "-"
        return f"{half(self.u)}{sign}{wterm}"

    def __repr__(self) -> str:
        return f"QuadInt({self.u}, {self.v}, d={self.d})"


_new = object.__new__
_set_u, _set_v, _set_d = (QuadInt.__dict__[name].__set__ for name in QuadInt.__slots__)


def _unchecked(u: int, v: int, d: int) -> QuadInt:
    """QuadInt(u, v, d) for Python-int coordinates already known to be a
    ring element: results of ring operations on valid elements, and
    quotients and roots built with the ring's parity."""
    z = _new(QuadInt)
    _set_u(z, u)
    _set_v(z, v)
    _set_d(z, d)
    return z


_UNIT_COORDS = {
    -1: ((2, 0), (-2, 0), (0, 2), (0, -2)),
    -3: ((2, 0), (-2, 0), (1, 1), (-1, -1), (-1, 1), (1, -1)),
}


def units(d: int) -> tuple[QuadInt, ...]:
    """All units of O_K (elements of norm 1)."""
    coords = _UNIT_COORDS.get(d, ((2, 0), (-2, 0)))
    return tuple(QuadInt(u, v, d) for u, v in coords)


def canonical_associate(z: QuadInt) -> QuadInt:
    """Stable representative among the unit multiples of z.

    Prefers u > 0, then the lexicographically smallest (u, v).  Used to
    canonicalize gcd outputs so fixtures stay stable.
    """
    if z.is_zero():
        return z
    mults = [z * mu for mu in units(z.d)]
    pos = [m for m in mults if m.u > 0]
    pool = pos if pos else mults
    return min(pool, key=lambda m: (m.u, m.v))


# ---------------------------------------------------------------------------
# rounding helpers and Euclidean division


def _round_half_down(num: int, den: int) -> int:
    """Nearest integer to num/den (den > 0); exact .5 ties go down."""
    return -((den - 2 * num) // (2 * den))


def _round_to_parity(num: int, den: int, parity: int) -> int:
    """Integer s with s = parity (mod 2) nearest to num/den; ties -> smaller s.

    den > 0.  s = parity + 2*k with k the nearest integer to
    (num/den - parity)/2, ties down.
    """
    return parity + 2 * _round_half_down(num - parity * den, 2 * den)


def quad_div(a: QuadInt, b: QuadInt) -> DivResult:
    """Euclidean division a = q*b + r in O_K.

    q is the ring element nearest to the exact quotient a/b = w/n, w =
    a*conj(b), n = normsq(b), one coordinate at a time, in the doubled
    coordinates of QuadInt.  The sqrt(d) coordinate t rounds first, ties
    down: to the nearest even integer for d = -1, -2 (where both doubled
    coordinates are even), to the nearest integer otherwise.  Then the
    rational coordinate s takes the nearest integer of the same parity as
    t, ties to the smaller value.  For d = -1, -2 that is both coordinates
    rounded independently, ties toward minus infinity.  This yields
    normsq(r) <= c_d * normsq(b) with c_d = 1/2, 3/4, 15/16, 15/16, 15/16.
    """
    if b.is_zero():
        raise ZeroDivisionError("quadratic division by zero")
    RING_OPS.tick()
    d = a._coerce(b).d  # ring-mix check
    w = a * b.conj()
    n = b.normsq()
    step = 2 if d in (-1, -2) else 1
    t = step * _round_half_down(w.v, step * n)
    s = _round_to_parity(w.u, n, t & 1)
    q = _unchecked(s, t, d)  # s has t's parity, and t is even for d = -1, -2
    r = a - q * b
    num, den = DIV_NORM_BOUND[d]
    if den * r.normsq() > num * n:
        raise AssertionError(f"division bound failed for {a!r} / {b!r}")
    return DivResult(q, r)


def _int_div_nearest(a: int, b: int) -> DivResult:
    """a = q*b + r over Z with q the integer nearest to a/b, ties toward
    minus infinity: quad_div's rule on real inputs, so |r| <= |b|/2 and
    every Z chain is the Gaussian chain of the same numbers."""
    if b == 0:
        raise ZeroDivisionError("integer division by zero")
    RING_OPS.tick()
    q = _round_half_down(a if b > 0 else -a, abs(b))
    return DivResult(q, a - q * b)


# ---------------------------------------------------------------------------
# square roots


def floor_sqrt(n: int) -> int:
    if n < 0:
        raise ValueError("floor_sqrt of a negative integer")
    return math.isqrt(n)


def int_sqrt(n: int) -> int | None:
    """Exact square root of n >= 0, or None if n is not a perfect square."""
    if n < 0:
        raise ValueError("int_sqrt of a negative integer")
    RING_OPS.tick()
    s = math.isqrt(n)
    return s if s * s == n else None


def quad_sqrt(w: QuadInt) -> QuadInt | None:
    """Exact square root in O_K, or None.

    Works through norms: if z^2 = w then normsq(z) = sqrt(normsq(w)) =: m,
    and the doubled coordinates of z satisfy zu^2 = 2m + w.u and
    |d| * zv^2 = 2m - w.u, with zu*zv = w.v fixing the relative sign.  Each
    candidate is verified by squaring, so a failure at any stage just means
    "not a square".  The returned root has u >= 0 (v >= 0 when u = 0); the
    caller owns the other root -z.
    """
    RING_OPS.tick()
    if w.is_zero():
        return w
    m = int_sqrt(w.normsq())
    if m is None:
        return None
    zu2 = 2 * m + w.u
    if zu2 < 0:
        return None
    zu = int_sqrt(zu2)
    if zu is None:
        return None
    rest = 2 * m - w.u
    if rest < 0 or rest % (-w.d):
        return None
    zv = int_sqrt(rest // (-w.d))
    if zv is None:
        return None
    for cand_v in (zv, -zv):
        if not _parity_ok(zu, cand_v, w.d):
            continue
        z = _unchecked(zu, cand_v, w.d)
        if z * z == w:
            return z
    return None


# ---------------------------------------------------------------------------
# generic dispatch over the three element kinds

Element = int | QuadInt | Poly


def ring_zero(ring: RingId):
    if ring.is_int:
        return 0
    if ring.is_quad:
        return QuadInt.zero(ring.d)
    return Poly.zero()


def ring_one(ring: RingId):
    if ring.is_int:
        return 1
    if ring.is_quad:
        return QuadInt.one(ring.d)
    return Poly.one()


def coerce_element(val, ring: RingId):
    """Coerce val into an element of ring, or raise ValueError."""
    if ring.is_int:
        if isinstance(val, int):
            return val
        raise ValueError(f"{val!r} is not a rational integer")
    if ring.is_quad:
        if isinstance(val, QuadInt):
            if val.d != ring.d:
                raise ValueError(f"element of d={val.d} used in d={ring.d}")
            return val
        if isinstance(val, int):
            return QuadInt.from_parts(val, 0, ring.d)
        raise ValueError(f"{val!r} is not a quadratic integer")
    if isinstance(val, Poly):
        return val
    if isinstance(val, (int, Fraction)):
        return Poly.constant(val)
    raise ValueError(f"{val!r} is not a polynomial")


def ring_div(a, b, ring: RingId) -> DivResult:
    """Euclidean division in the given ring."""
    if ring.is_int:
        return _int_div_nearest(a, b)
    if ring.is_quad:
        return quad_div(a, b)
    return poly_div(a, b)


def reduce_mod(a, s, ring: RingId):
    return ring_div(a, s, ring).r


def exact_div(a, b, ring: RingId):
    """Quotient a/b when division is exact in the ring, else None.

    For polynomials exactness means zero remainder in Q[x]; callers that
    need a Z[x] cofactor must additionally check is_integral().  In Z an
    exact quotient is the same under every rounding rule, so floor division
    decides it, at one tick like ring_div.
    """
    if ring.is_int:
        q, r = divmod(a, b)  # ZeroDivisionError for b = 0, before the tick
        RING_OPS.tick()
        return q if not r else None
    q, r = ring_div(a, b, ring)
    return q if not r else None


def is_unit(x, ring: RingId) -> bool:
    if ring.is_int:
        return x in (1, -1)
    if ring.is_quad:
        return x.normsq() == 1
    return x.degree == 0


def _unit_inverse(u, ring: RingId):
    if ring.is_int:
        return u
    if ring.is_quad:
        return u.conj()
    return Poly.constant(Fraction(1, 1) / u.coeffs[0])


def ring_gcd(a, b, ring: RingId):
    """Greatest common divisor, canonicalized per ring.

    Z: nonnegative.  O_K: canonical associate (see canonical_associate).
    Polynomials: monic, computed in Q[x].
    """
    if ring.is_int:
        if a == 0 and b == 0:
            raise ValueError("gcd(0, 0) is undefined")
        return math.gcd(a, b)
    if not a and not b:
        raise ValueError("gcd(0, 0) is undefined")
    while b:
        a, b = b, ring_div(a, b, ring).r
    if ring.is_quad:
        return canonical_associate(a)
    return a * (Fraction(1, 1) / a.coeffs[-1])


def mod_inverse(r, s, ring: RingId):
    """w with r*w = 1 (mod s), reduced mod s.

    Extended Euclidean algorithm over the ring.  Raises
    InvalidInstanceError when gcd(r, s) is not a unit.
    """
    old_r, cur_r = r, s
    old_w, cur_w = ring_one(ring), ring_zero(ring)
    while cur_r:
        q = ring_div(old_r, cur_r, ring).q
        old_r, cur_r = cur_r, old_r - q * cur_r
        old_w, cur_w = cur_w, old_w - q * cur_w
    if not is_unit(old_r, ring):
        raise InvalidInstanceError(f"gcd is not a unit; no inverse of {r} mod {s}")
    w = reduce_mod(old_w * _unit_inverse(old_r, ring), s, ring)
    if reduce_mod(r * w - ring_one(ring), s, ring):
        raise AssertionError("modular inverse failed self-check")
    return w


def ring_sqrt(w, ring: RingId):
    """Exact square root in the ring (None when w is not a square)."""
    if ring.is_int:
        return int_sqrt(w) if w >= 0 else None
    if ring.is_quad:
        return quad_sqrt(w)
    return poly_sqrt(w)

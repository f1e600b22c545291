"""Problem instances and the remainder-triple chain (a_k, b_k, c_k).

The chain starts from a0 = S, b0 = 0, c0 = 0 and a1 = r'*r^-1 mod S, b1 = 1,
c1 = ((N - r*r')/S)*r^-1 mod S, then runs Euclidean division on the a-side
while carrying b and c along the same quotients:

    a_{k+1} = a_{k-1} - q_k*a_k   (the division remainder)
    b_{k+1} = b_{k-1} - q_k*b_k
    c_{k+1} = c_{k-1} - q_k*c_k  (mod S)

c_k is stored reduced mod S at every step; b_k is never reduced.  The chain
ends at the first zero a_t; its last row is then (0, u*S, 0) with u a
unit, and rows 1..t-1 have a_k, b_k != 0 (proved in build_chain).  Every
solution pair of (Sx+r)(Sy+r') = N satisfies a_k*x + b_k*y = c_k (mod S)
along the whole chain, which is what the candidate sweep exploits.

For Z[x] instances the chain lives in Q[x]: exact rationals, held as
integer numerators over one denominator (polynomials.Poly).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import gcd
from operator import index
from typing import TYPE_CHECKING

from .base import InvalidInstanceError
from .polynomials import Poly
from .rings import (
    Element,
    RingId,
    coerce_element,
    exact_div,
    is_unit,
    mod_inverse,
    reduce_mod,
    ring_div,
    ring_gcd,
    ring_one,
    ring_zero,
)

if TYPE_CHECKING:
    from .solver import InstanceTerms


@dataclass(frozen=True)
class ProblemInstance:
    """A validated (ring, N, S, r) problem with its derived data.

    rinv is r^-1 mod S and rPrime is N*rinv mod S; build_chain starts
    from both.  gate_ok records whether the size hypothesis
    holds (normsq(S)^3 > normsq(N), resp. 3*deg S >= deg N); instances
    failing it are still processed, only the completeness/run-time guarantee
    lapses.  lead_list is the Z[x] leading-coefficient list: the signed
    divisors of lead(N)/lead(S)^2, empty when that quotient is not an
    integer, None for non-polynomial rings.  terms is the instance's share
    of every row quadratic (solver.InstanceTerms): formed on first use
    unless held (hold_terms); a search (find_divisors) holds its own from
    its start to its end, whether it returns or raises.
    """

    ring: RingId
    N: Element
    S: Element
    r: Element
    rPrime: Element
    rinv: Element
    lead_list: tuple[int, ...] | None
    gate_ok: bool
    # a field rather than a key added later, which would slow every
    # attribute read on the instance (the dict would no longer share keys)
    _terms: InstanceTerms | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def terms(self) -> InstanceTerms:
        if self._terms is None:
            from .solver import InstanceTerms  # solver imports this module

            self.hold_terms(InstanceTerms(self))
        return self._terms

    def hold_terms(self, terms: InstanceTerms | None) -> None:
        object.__setattr__(self, "_terms", terms)


@dataclass(frozen=True)
class RemChain:
    """The chain triples; a[t] == 0 and len(a) == t + 1."""

    a: tuple[Element, ...]
    b: tuple[Element, ...]
    c: tuple[Element, ...]
    quotients: tuple[Element, ...]
    t: int

    @property
    def triples(self) -> tuple[tuple[Element, Element, Element], ...]:
        return tuple(zip(self.a, self.b, self.c))


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime64(n: int) -> bool:
    """Miller-Rabin on the first twelve prime bases; exact for n < 2^64."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A proper factor of an odd composite n (Pollard's rho, Floyd cycles)."""
    c = 1
    while True:
        x = y = 2
        g = 1
        while g == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = gcd(x - y, n)
        if g != n:
            return g
        c += 1


def _prime_factors(n: int) -> list[int]:
    """Prime factors of n >= 1, with multiplicity."""
    if n == 1:
        return []
    if n % 2 == 0:
        return [2] + _prime_factors(n // 2)
    if _is_prime64(n):
        return [n]
    g = _rho(n)
    return _prime_factors(g) + _prime_factors(n // g)


def _positive_divisors(n: int) -> list[int]:
    """Every positive divisor of 1 <= n < 2^64, in no particular order.

    n is factored by Miller-Rabin and Pollard's rho, so the cost grows with
    the fourth root of n at worst, not its square root.
    """
    pos = [1]
    for p, e in Counter(_prime_factors(n)).items():
        pos = [q * pk for pk in [p**i for i in range(e + 1)] for q in pos]
    return pos


def _signed_divisors(n: int) -> tuple[int, ...]:
    """All divisors of |n| < 2^64, both signs, ascending."""
    n = abs(n)
    if n >= 1 << 64:
        raise InvalidInstanceError(
            "leading-coefficient quotient too large to factor; pass lead_list"
        )
    if n == 0:
        return ()
    pos = sorted(_positive_divisors(n))
    return tuple(sorted(-p for p in pos) + pos)


def _reduce_r(r, S, ring: RingId):
    """Reduce r mod S without leaving the residue class of the base ring.

    For Z and O_K the Euclidean remainder does this directly.  For Z[x] the
    class is r + S*Z[x], and Q[x]-division only preserves it when the
    quotient is integral; otherwise (possible for non-monic S with
    deg r >= deg S) there is no small representative and we reject.
    """
    if not ring.is_poly:
        return reduce_mod(r, S, ring)
    if r.degree < S.degree:
        return r
    q, rem = ring_div(r, S, ring)
    if q.is_integral():
        return rem
    raise InvalidInstanceError(
        "r cannot be reduced mod S inside Z[x]; supply r with deg r < deg S"
    )


def build_instance(
    ring: RingId,
    N,
    S,
    r,
    lead_list: list[int] | tuple[int, ...] | None = None,
) -> ProblemInstance:
    """Validate (N, S, r), reduce r, derive rPrime and the size-gate flag.

    Raises InvalidInstanceError when N or S is zero, S is a unit, the inputs
    are not integral (Z[x]), or gcd(N,S) / gcd(S,r) is not a unit.
    """
    N = coerce_element(N, ring)
    S = coerce_element(S, ring)
    r = coerce_element(r, ring)
    if not N or not S:
        raise InvalidInstanceError("N and S must be nonzero")
    if is_unit(S, ring):
        raise InvalidInstanceError("S must not be a unit")
    if ring.is_poly:
        if not (N.is_integral() and S.is_integral() and r.is_integral()):
            raise InvalidInstanceError("polynomial instances must lie in Z[x]")
    if not is_unit(ring_gcd(N, S, ring), ring):
        raise InvalidInstanceError("gcd(N, S) is not a unit")
    if not r or not is_unit(ring_gcd(S, r, ring), ring):
        raise InvalidInstanceError("gcd(S, r) is not a unit")

    r = _reduce_r(r, S, ring)
    rinv = mod_inverse(r, S, ring)
    r_prime = reduce_mod(N * rinv, S, ring)

    if ring.is_int:
        gate = abs(S) ** 3 > abs(N)
    elif ring.is_quad:
        gate = S.normsq() ** 3 > N.normsq()
    else:
        gate = 3 * S.degree >= N.degree

    leads: tuple[int, ...] | None = None
    if ring.is_poly:
        if lead_list is not None:
            try:
                leads = tuple(sorted(set(map(index, lead_list))))
            except TypeError:
                raise InvalidInstanceError("lead_list entries must be integers") from None
            if any(v == 0 for v in leads):
                raise InvalidInstanceError("lead_list entries must be nonzero")
        else:
            l_n, l_s = N.lead, S.lead
            if l_n % (l_s * l_s):
                leads = ()
            else:
                leads = _signed_divisors(l_n // (l_s * l_s))

    return ProblemInstance(ring, N, S, r, r_prime, rinv, leads, gate)


def build_chain(inst: ProblemInstance) -> RemChain:
    """Run the chain to the first zero a_t.

    Every instance build_instance accepts gives a chain of the same shape:
    rows 1..t-1 have a_k != 0 and b_k != 0, and row t is (0, u*S, 0) with
    u a unit (+-1 in Z, a unit of O_K, a nonzero rational constant in
    Q[x]).  So rows 1..t-1 are quadratic rows and the final row is the one
    linear row.  Proof:
      1. a_k = b_k*a_1 and c_k = b_k*c_1 (mod S), by induction: both hold
         at k = 0 (a_0 = S, b_0 = c_0 = 0) and k = 1 (b_1 = 1), the same
         recurrence drives a, b and c, and reducing c mod S keeps the
         congruence.
      2. For 1 <= k < t, a_k != 0 (the chain stops at the first zero) and
         a_k is smaller than S: a_1 is reduced mod S and each remainder is
         smaller than its divisor, so normsq(a_k) <= c_d*normsq(S) with
         c_d = DIV_NORM_BOUND[d] < 1 (|a_k| <= |S|/2 in Z, deg a_k < deg S
         in Q[x]).  A nonzero multiple of S is not that small, so S does
         not divide a_k, and b_k != 0 by step 1.
      3. a_k*b_{k+1} - a_{k+1}*b_k = (-1)^k*S: it is S at k = 0, and one
         step of the recurrence flips its sign.  At k = t-1, with a_t = 0,
         a_{t-1}*b_t = +-S.
      4. a_{t-1} is a gcd of a_0 = S and a_1 (Euclid).  a_1 = r'*r^-1 is a
         unit mod S, since build_instance makes N and r units mod S, so
         a_{t-1} is a unit and b_t = u*S with u = +-a_{t-1}^-1.
      5. c_t = u*S*c_1 = 0 (mod S) by step 1, and c_t is stored reduced,
         so c_t = 0.
    The shape is checked once here; a chain without it raises
    AssertionError.
    """
    ring = inst.ring
    S, r, rp, N, rinv = inst.S, inst.r, inst.rPrime, inst.N, inst.rinv
    w = exact_div(N - r * rp, S, ring)
    if w is None:
        raise AssertionError("(N - r*rPrime)/S must divide exactly")

    a = [S, reduce_mod(rp * rinv, S, ring)]
    b = [ring_zero(ring), ring_one(ring)]
    c = [ring_zero(ring), reduce_mod(w * rinv, S, ring)]
    quotients = []
    while a[-1]:
        q, rem = ring_div(a[-2], a[-1], ring)
        quotients.append(q)
        a.append(rem)
        b.append(b[-2] - q * b[-1])
        c.append(reduce_mod(c[-2] - q * c[-1], S, ring))
    t = len(a) - 1
    u = exact_div(b[t], S, ring)
    if not all(b[1:t]) or u is None or not is_unit(u, ring) or c[t]:
        raise AssertionError(f"chain shape: rows 1..t-1 need b != 0 and row t "
                             f"(0, unit*S, 0), got ({a[t]}, {b[t]}, {c[t]})")
    return RemChain(tuple(a), tuple(b), tuple(c), tuple(quotients), t)


def congruence_witness(chain: RemChain, x, y, inst: ProblemInstance) -> bool:
    """True iff a_k*x + b_k*y = c_k (mod S) at every index of the chain."""
    ring = inst.ring
    for ak, bk, ck in zip(chain.a, chain.b, chain.c):
        if reduce_mod(ak * x + bk * y - ck, inst.S, ring):
            return False
    return True


def chain_dump(chain: RemChain) -> str:
    """Diagnostic text dump, one triple per line (golden-file friendly)."""
    lines = [f"t {chain.t}"]
    for k, (ak, bk, ck) in enumerate(chain.triples):
        lines.append(f"{k}: {ak} | {bk} | {ck}")
    return "\n".join(lines) + "\n"

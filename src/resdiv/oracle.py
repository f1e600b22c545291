"""Independent brute-force oracles for cross-checking search results.

Everything here recomputes divisibility and congruence from first
principles: the integer factorization of |N| for Z, plain integer tuples
for the quadratic rings (doubled coordinates, (u + v*sqrt(d))/2),
Fraction-coefficient lists for Z[x], and numpy for the big scans.  None of
it calls the production ring arithmetic, so a bug there cannot hide from a
comparison against these.  The integer factorizer (Miller-Rabin and
Pollard's rho, remseq._prime_factors) is shared only with the Z[x]
leading-coefficient lists; the Z search never factors.

Scan strategies:

  oracle_rational           every divisor of |N| from its factorization,
                            O(|N|^1/4) work; filtered by residue mod S
  oracle_quadratic          full lattice scan of x with
                            normsq(x) <= factor^2 * normsq(S); complete for
                            gate-satisfying instances whenever
                            (normsq(S)+1)^2 <= factor^2 * normsq(S), i.e.
                            normsq(S) <= 1087 at the default factor 33
  oracle_quadratic_factored Gaussian ring only: rebuild the divisor lattice
                            from a supplied factorization of normsq(N)
  oracle_poly               subset products of a supplied Z[x] factorization

The caller supplies factorizations (tests use sympy); the oracle only
consumes plain ints/tuples so the dependency stays out of the package.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import isqrt
from typing import NamedTuple

import numpy as np

from .remseq import _positive_divisors
from .rings import QuadInt

GRID_LIMIT = 10**8
RATIONAL_LIMIT = 10**15


class OracleResult(NamedTuple):
    """Ground-truth divisor list plus the scan strategy that produced it."""

    divisors: tuple
    method: str  # "factorization", "x-scan", or "subset-product"


def oracle_rational(N: int, S: int, r: int) -> OracleResult:
    """Every integer d (both signs) with d | N and d = r (mod S), read off
    the factorization of |N|: d = q or d = -q for a positive divisor q,
    and -q = r (mod S) exactly when q = -r (mod S)."""
    n = abs(int(N))
    if n == 0:
        raise ValueError("N must be nonzero")
    if n > RATIONAL_LIMIT:
        raise ValueError(f"|N| > {RATIONAL_LIMIT} is out of oracle range")
    pos = _positive_divisors(n)
    plus, minus = r % S, -r % S
    hits = [q for q in pos if q % S == plus] + [-q for q in pos if q % S == minus]
    return OracleResult(tuple(sorted(hits)), "factorization")


# ---------------------------------------------------------------------------
# quadratic rings: doubled-coordinate tuple arithmetic, local to the oracle

def _mul(a, b, d):
    return ((a[0] * b[0] + d * a[1] * b[1]) // 2,
            (a[0] * b[1] + a[1] * b[0]) // 2)


def _norm(a, d):
    return (a[0] * a[0] - d * a[1] * a[1]) // 4


def _parity(u, v, d):
    if d % 4 == 1:
        return (u - v) % 2 == 0
    return u % 2 == 0 and v % 2 == 0


def _div(a, b, d):
    """a/b as doubled coords, or None when b does not divide a."""
    n = _norm(b, d)
    if n == 0:
        return None
    wu, wv = _mul(a, (b[0], -b[1]), d)
    if wu % n or wv % n:
        return None
    qu, qv = wu // n, wv // n
    return (qu, qv) if _parity(qu, qv, d) else None


def oracle_quadratic(ring, N, S, r, r_prime=None, *, factor: int = 33):
    """Lattice-scan every x with normsq(x) <= factor^2*normsq(S) and keep
    S*x + r when it divides N.  Optionally also probes the y = 0 divisor
    N/r' directly.  Raises when the grid would exceed GRID_LIMIT points or
    the vectorized arithmetic could leave int64.
    """
    d = ring.d
    en = (N.u, N.v)
    es = (S.u, S.v)
    er = (r.u, r.v)
    n_s4 = es[0] * es[0] - d * es[1] * es[1]
    box = factor * factor * n_s4
    umax = isqrt(box)
    vmax = isqrt(box // -d)
    if (2 * umax + 1) * (2 * vmax + 1) > GRID_LIMIT:
        raise ValueError("scan grid too large; use a factored oracle instead")

    # conservative magnitude audit before trusting int64
    bdu = (abs(es[0]) + -d * abs(es[1])) * (umax + vmax) + abs(er[0]) + abs(er[1])
    bn = max(abs(en[0]), abs(en[1]))
    if bdu * bdu * (1 - d) >= 1 << 62 or bn * bdu * (1 - d) >= 1 << 62:
        raise ValueError("coordinates too large for the vectorized scan")

    uu = np.arange(-umax, umax + 1, dtype=np.int64)[:, None]
    vv = np.arange(-vmax, vmax + 1, dtype=np.int64)[None, :]
    inside = uu * uu + (-d) * vv * vv <= box
    if d % 4 == 1:
        inside &= (uu - vv) % 2 == 0
    else:
        inside &= ((uu % 2) == 0) & ((vv % 2) == 0)
    xu = np.broadcast_to(uu, inside.shape)[inside]
    xv = np.broadcast_to(vv, inside.shape)[inside]

    du = (es[0] * xu + d * es[1] * xv) // 2 + er[0]
    dvv = (es[0] * xv + es[1] * xu) // 2 + er[1]
    ndv = (du * du - d * dvv * dvv) // 4
    wu = (en[0] * du - d * en[1] * dvv) // 2
    wv = (en[1] * du - en[0] * dvv) // 2
    ok = ndv > 0
    nz = np.maximum(ndv, 1)
    ok &= (wu % nz == 0) & (wv % nz == 0)
    qu = wu[ok] // nz[ok]
    qv = wv[ok] // nz[ok]
    if d % 4 == 1:
        pq = (qu - qv) % 2 == 0
    else:
        pq = ((qu % 2) == 0) & ((qv % 2) == 0)

    found = set()
    for i_du, i_dv in zip(du[ok][pq].tolist(), dvv[ok][pq].tolist()):
        cand = (i_du, i_dv)
        if _div(en, cand, d) is not None:
            found.add(cand)
    if r_prime is not None and (r_prime.u or r_prime.v):
        dv0 = _div(en, (r_prime.u, r_prime.v), d)
        if dv0 is not None:
            diff = (dv0[0] - er[0], dv0[1] - er[1])
            if _div(diff, es, d) is not None:
                found.add(dv0)
    out = [QuadInt(u, v, d) for u, v in found]
    out.sort(key=lambda q: (q.normsq(), q.u, q.v))
    return OracleResult(tuple(out), "x-scan")


def gaussian_prime_above(p: int) -> tuple[int, int]:
    """A whole-coordinate Gaussian prime of norm p (p = 2 or p = 1 mod 4),
    by the classic square-root-of-minus-one descent."""
    if p == 2:
        return (1, 1)
    if p % 4 != 1:
        raise ValueError(f"{p} is inert in the Gaussian integers")
    t = None
    for base in range(2, p):
        cand = pow(base, (p - 1) // 4, p)
        if (cand * cand + 1) % p == 0:
            t = cand
            break
    a, b = p, t
    while b * b > p:
        a, b = b, a % b
    u, v = b, a % b
    if u * u + v * v != p:
        raise AssertionError(f"descent failed for {p}")
    return (u, v)


def oracle_quadratic_factored(N, S, r, norm_factors: dict[int, int]):
    """Gaussian-ring divisor oracle driven by a factorization of normsq(N).

    norm_factors maps primes to exponents with product normsq(N).  The
    Gaussian factorization of N is reconstructed prime by prime (ramified
    2, split p = 1 mod 4 via multiplicity probing, inert p = 3 mod 4 with
    halved exponent), all divisors are enumerated as exponent products
    times units, and the congruence filter runs in local tuple arithmetic.
    """
    d = N.d
    if d != -1:
        raise ValueError("factored oracle only covers the Gaussian ring")
    en = (N.u, N.v)
    es = (S.u, S.v)
    er = (r.u, r.v)

    prime_powers = []
    total = 1
    for p, e in sorted(norm_factors.items()):
        if p == 2:
            pi = (2, 2)
            mult = _multiplicity(en, pi, d)
            if mult != e:
                raise AssertionError("ramified multiplicity mismatch")
            prime_powers.append(_powers(pi, e, d))
            total *= e + 1
        elif p % 4 == 3:
            if e % 2:
                raise AssertionError(f"inert prime {p} with odd exponent")
            prime_powers.append(_powers((2 * p, 0), e // 2, d))
            total *= e // 2 + 1
        else:
            u, v = gaussian_prime_above(p)
            pi = (2 * u, 2 * v)
            pj = (2 * u, -2 * v)
            alpha = _multiplicity(en, pi, d)
            beta = _multiplicity(en, pj, d)
            if alpha + beta != e:
                raise AssertionError(f"split multiplicities {alpha}+{beta} != {e}")
            prime_powers.append([_mul(x, y, d)
                                 for x in _powers(pi, alpha, d)
                                 for y in _powers(pj, beta, d)])
            total *= (alpha + 1) * (beta + 1)
        if total > 2 * 10**6:
            raise ValueError("divisor lattice too large to enumerate")

    found = set()
    units = [(2, 0), (0, 2), (-2, 0), (0, -2)]
    for combo in itertools.product(*prime_powers) if prime_powers else [()]:
        acc = (2, 0)
        for part in combo:
            acc = _mul(acc, part, d)
        for un in units:
            dv = _mul(acc, un, d)
            diff = (dv[0] - er[0], dv[1] - er[1])
            if _div(diff, es, d) is None:
                continue
            if _div(en, dv, d) is None:
                raise AssertionError("enumerated non-divisor")
            found.add(dv)
    out = [QuadInt(u, v, d) for u, v in found]
    out.sort(key=lambda q: (q.normsq(), q.u, q.v))
    return OracleResult(tuple(out), "subset-product")


def _multiplicity(a, pi, d) -> int:
    k = 0
    cur = a
    while True:
        nxt = _div(cur, pi, d)
        if nxt is None:
            return k
        cur = nxt
        k += 1


def _powers(pi, emax, d):
    out = [(2, 0)]
    for _ in range(emax):
        out.append(_mul(out[-1], pi, d))
    return out


# ---------------------------------------------------------------------------
# Z[x]: local Fraction-coefficient helpers

def _ptrim(c):
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return c


def _pmul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ptrim(out)


def _pdivmod(a, b):
    rem = [Fraction(x) for x in a]
    lead = Fraction(b[-1])
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(rem) >= len(b) and _ptrim(rem):
        rem = _ptrim(rem)
        if len(rem) < len(b):
            break
        k = len(rem) - len(b)
        f = rem[-1] / lead
        q[k] = f
        for i, y in enumerate(b):
            rem[k + i] -= f * y
        rem.pop()
    return _ptrim(q), _ptrim(rem)


def _pint(c):
    return all(f.denominator == 1 for f in c)


def _pdivides(a, b) -> bool:
    """b | a in Z[x] (integral quotient, zero remainder)."""
    if not _ptrim(list(b)):
        return False
    q, rem = _pdivmod(a, b)
    return not rem and _pint(q)


def oracle_poly(n_coeffs, s_coeffs, r_coeffs, content: int, factors):
    """Z[x] divisor oracle from a supplied factorization.

    n_coeffs/s_coeffs/r_coeffs are ascending integer coefficients; content
    is the (positive) integer content of N and factors is a sequence of
    (ascending-coefficients, exponent) pairs of the primitive irreducible
    parts, so that N = +-content * prod(f^e).  Returns ascending-coefficient
    tuples of every Z[x] divisor congruent to r mod S, both signs.
    """
    n_p = _ptrim(list(n_coeffs))
    s_p = _ptrim(list(s_coeffs))
    r_p = _ptrim(list(r_coeffs))
    c_divs = [k for k in range(1, abs(content) + 1) if content % k == 0]
    combos = 2 * len(c_divs)
    for _, e in factors:
        combos *= e + 1
    if combos > 10**6:
        raise ValueError("factor lattice too large to enumerate")

    found = set()
    for exps in itertools.product(*[range(e + 1) for _, e in factors]):
        base = [1]
        for (fc, _), e in zip(factors, exps):
            for _ in range(e):
                base = _pmul(base, list(fc))
        for dc in c_divs:
            for sign in (1, -1):
                dv = [sign * dc * x for x in base]
                diff = _ptrim([a - b for a, b in
                               itertools.zip_longest(dv, r_p, fillvalue=0)])
                if diff and not _pdivides(diff, s_p):
                    continue
                if not _pdivides(n_p, dv):
                    continue
                found.add(tuple(dv))
    divisors = tuple(sorted(found, key=lambda c: (len(c), c)))
    return OracleResult(divisors, "subset-product")

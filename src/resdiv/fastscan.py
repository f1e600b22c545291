"""Vectorized candidate filtering for the quadratic-ring sweep.

The reference sweep (solver.enumerate_residues + solve_system per gamma) is
exact but walks the whole candidate disk per row, which is millions of
lattice points at the full radius of the non-Gaussian rings.  This module
prunes the disk with numpy before anything exact runs.

Quadratic rows (a != 0 and b != 0).  Eliminating y from the row line and
the product equation leaves a quadratic in x whose discriminant, as a
function of the shift gamma = c + lam*S, is the quadratic
D(lam) = E*lam^2 + F*lam + G of the row (derived in the solver module
docstring; solver.RowSystem builds E, F and G).  A ring solution x
forces z = 2*A2*x + A1 to satisfy z^2 = D, so D must be a square in the
residue ring O_K/p for every split prime p.  O_K/p is F_p x F_p there,
through sqrt(d) -> s and sqrt(d) -> -s, and in each component D is a
scalar quadratic in the image t of lam.  A row evaluates both components
of all eight primes at every t in one pass over a shared layout and
looks each value up in the squares mod its prime (_squares); a pool
point survives when both of its images are squares for every prime
(_survivors).  A small pool gathers that at every point at once, from
per-point positions stored with the pool; a large one builds each
prime's table over its p^2 lam classes (two gathers and an AND,
_class_table) and gathers it in turn at the classes of the points that
survived the primes before it.  The eight tests cut the pool by about
4^-8 and the survivors go to the exact solver, which verifies everything
anyway.  Nothing here is trusted for soundness, only
for not discarding true solutions: z in O_K implies its image mod p is a
square, always.

The final row (0, u*S, 0), u a unit (remseq.build_chain).  There
gamma = lam*S gives y = lam/u = lam*conj(u), exact at every pool point,
so a pair needs only the cofactor e = S*y + r' to divide N, and then
normsq(e) divides normsq(N).  That norm test runs on int64 arrays while a
conservative bound stays inside the guard and on arrays of exact Python
ints past it; normsq(N) may have any size, and against int64 norms it is
reduced digit by digit.
"""

from __future__ import annotations

from math import isqrt, prod

import numpy as np

from .rings import QuadInt, exact_div
from .remseq import ProblemInstance, _is_prime64
from .solver import RowSystem, candidate_radius

_SPLIT_PRIME_COUNT = 8
_INT64_GUARD = 1 << 62
# pools up to this many points sieve with one dense gather (_Pool)
_DENSE_POINTS = 4096


def _split_primes(d: int, count: int = _SPLIT_PRIME_COUNT) -> tuple[int, ...]:
    """The smallest primes p >= 13 with p coprime to 2d and d a square mod p
    (so the quotient ring splits as F_p x F_p)."""
    out = []
    p = 13
    while len(out) < count:
        if _is_prime64(p) and (2 * d) % p and pow(d % p, (p - 1) // 2, p) == 1:
            out.append(p)
        p += 2
    return tuple(out)


class _Pool:
    """Per-(d, radius) candidate lattice and prime tables, built once.

    lu, lv hold the half-coordinates of every lam with
    lu^2 + |d|*lv^2 <= 4*(radius+2)^2 and a valid parity, sorted by
    (norm, lu, lv); that disk covers every lam with
    normsq(c + lam*S) < radius^2 * normsq(S) whenever c is reduced mod S.
    For each split prime p_k, cls[k] is every point's flat class
    (lu mod p_k)*p_k + (lv mod p_k), int16 because p_k^2 < 2^15 in all five
    rings (the eighth split prime is at most 83).

    The eight primes share one layout of positions (_squares).  A
    position is a (component, prime, t): component 1 (sqrt(d) -> s_k)
    holds t = 0..p_k-1 for each prime in turn, and component 2
    (sqrt(d) -> -s_k) the same again.  Per position, prime_of is its
    prime's index k into prime_array, p is p_k, root is s_k or p_k - s_k,
    t is t, and at is the offset of its prime's p_k entries in squares,
    where squares[at + w] tells whether w/2 is a square mod p_k (0
    included).  plus and minus hold, at slices[k].start + class for each
    of p_k's p_k^2 classes, the positions of lam's images
    (lu + s_k*lv)/2 and (lu - s_k*lv)/2 mod p_k in the two components.
    modulus is the product of the eight primes, below 2^45.  These tables
    hold 2*sum(p_k) + 2*sum(p_k^2) entries, under 50k in every ring,
    whatever the pool's size.

    A pool of at most _DENSE_POINTS points also holds dense, (16, n): row
    k is plus[slices[k]].take(cls[k]), the position of every point's
    image mod p_k in component 1, and row 8 + k the same from minus.  Its
    rows are then sieved in one gather at every point (_survivors), which
    costs about 16 lookups per point against the class tables' 2*sum(p_k^2)
    fixed ones.  Measured per Gaussian row (sieve only, after _squares,
    2-vCPU x86 host): 613 points 12-22 us dense against 43-74 us by class
    tables, 3.2k points 51-78 against 79-124, 5.5k about even and 12k
    206-219 against 129-153; the quad-general pools (0.5-1M points) keep
    the class tables.  dense is intp rather than int16 (positions are
    below 2*sum(p_k) < 2^15): take would convert int16 indices on every
    row, 15-25% of the gather.
    """

    __slots__ = ("d", "rbound", "lu", "lv", "primes", "cls", "modulus",
                 "prime_array", "prime_of", "p", "root", "t", "at", "squares",
                 "plus", "minus", "slices", "dense")

    def __init__(self, d: int, rbound: int):
        self.d = d
        self.rbound = rbound
        box = 4 * (rbound + 2) * (rbound + 2)
        umax = isqrt(box)
        vmax = isqrt(box // -d)
        us = np.arange(-umax, umax + 1, dtype=np.int64)
        vs = np.arange(-vmax, vmax + 1, dtype=np.int64)
        uu = us[:, None]
        vv = vs[None, :]
        norm4 = uu * uu + (-d) * vv * vv
        inside = norm4 <= box
        if d % 4 == 1:
            inside &= (uu - vv) % 2 == 0
        else:
            inside &= ((uu % 2) == 0) & ((vv % 2) == 0)
        flat = np.flatnonzero(inside)
        # row-major grid index orders by (lu, lv), so this key is (norm, lu, lv)
        flat = flat[np.argsort(norm4[inside] * inside.size + flat)]
        iu, iv = np.divmod(flat, vs.size)
        self.lu = us.take(iu)
        self.lv = vs.take(iv)

        primes = self.primes = _split_primes(d)
        self.cls = [((us % p) * p).astype(np.int16).take(iu)
                    + (vs % p).astype(np.int16).take(iv) for p in primes]
        self.modulus = prod(primes)
        self.prime_array = np.array(primes)
        roots = [next(z for z in range(1, p) if z * z % p == d % p) for p in primes]
        starts = np.cumsum((0,) + primes[:-1])
        prime_of = np.repeat(np.arange(len(primes)), primes)
        p = self.prime_array.take(prime_of)
        at = starts.take(prime_of)
        t = np.arange(p.size) - at
        s = np.take(roots, prime_of)
        square = np.zeros(p.size, dtype=bool)
        square[at + t * t % p] = True
        self.squares = square.take(at + t * ((p + 1) // 2) % p)
        self.prime_of = np.concatenate([prime_of, prime_of])
        self.p = np.concatenate([p, p])
        self.root = np.concatenate([s, p - s])
        self.at = np.concatenate([at, at])
        self.t = np.concatenate([t, t])
        plus, minus, self.slices = [], [], []
        first = 0
        for pk, sk, ak in zip(primes, roots, starts.tolist()):
            ar = np.arange(pk)
            half = (pk + 1) // 2
            plus.append(ak + ((ar[:, None] + ar[None, :] * sk) * half % pk).ravel())
            minus.append(p.size + ak + ((ar[:, None] - ar[None, :] * sk) * half % pk).ravel())
            self.slices.append(slice(first, first + pk * pk))
            first += pk * pk
        self.plus = np.concatenate(plus)
        self.minus = np.concatenate(minus)
        self.dense = None
        if self.lu.size <= _DENSE_POINTS:
            self.dense = np.array([table[sl].take(c) for table in (self.plus, self.minus)
                                   for sl, c in zip(self.slices, self.cls)])


_POOLS: dict[tuple[int, int], _Pool] = {}


def get_pool(d: int, rbound: int | None = None) -> _Pool:
    if rbound is None:
        rbound = candidate_radius(d)
    key = (d, rbound)
    if key not in _POOLS:
        _POOLS[key] = _Pool(d, rbound)
    return _POOLS[key]


def _squares(E: QuadInt, F: QuadInt, G: QuadInt, pool: _Pool) -> np.ndarray:
    """Is D's image a square at every position of pool: every t in both
    F_p components of every split prime, in one pass.

    In the component sqrt(d) -> r (r = s_k or -s_k) D is (e*t^2 + f*t + g)/2
    with e = E.u + r*E.v mod p_k (f, g likewise) and t lam's image there.
    The six coordinates of E, F and G are reduced mod the product of the
    primes as Python ints, so they may have any size, and then mod each
    prime: 48 residues, which fix e, f and g for all sixteen components.
    Then e, f, g < p_k^2 and t < p_k, so every int64 value stays below
    p_k^4 < 2^26.
    """
    m = pool.modulus
    x = np.array([E.u % m, E.v % m, F.u % m, F.v % m, G.u % m, G.v % m])
    y = (x[:, None] % pool.prime_array).take(pool.prime_of, axis=1)
    e, f, g = y[0::2] + pool.root * y[1::2]
    t = pool.t
    return pool.squares.take(pool.at + ((e * t + f) * t + g) % pool.p)


def _class_table(ok: np.ndarray, pool: _Pool, k: int) -> np.ndarray:
    """Is D(lam) a square in O_K/p_k, at each flat lam class of p_k: both
    of the class's images are squares in ok (from _squares)."""
    sl = pool.slices[k]
    return ok.take(pool.plus[sl]) & ok.take(pool.minus[sl])


def _survivors(ok: np.ndarray, pool: _Pool) -> np.ndarray:
    """Indices, in pool order, of the points whose D is a square in both
    F_p components of all eight primes, from _squares.

    A small pool gathers that at every point at once from dense; a large
    one gathers each prime's class table at the points that passed the
    primes before it, and stops once none are left.  Both test the same
    predicate, so they keep the same points (_Pool gives the crossover).
    """
    if pool.dense is not None:
        return np.flatnonzero(ok.take(pool.dense).all(axis=0))
    surv = None
    for k, cls in enumerate(pool.cls):
        hit = _class_table(ok, pool, k).take(cls if surv is None else cls.take(surv))
        surv = np.flatnonzero(hit) if surv is None else surv[hit]
        if surv.size == 0:
            break
    return surv


def _quad_row(a, b, c, inst: ProblemInstance, pool: _Pool) -> list[QuadInt]:
    surv = _survivors(_squares(*RowSystem(a, b, c, inst).coeffs(), pool), pool)
    d, S = pool.d, inst.S
    return [c + QuadInt(int(pool.lu[i]), int(pool.lv[i]), d) * S for i in surv]


def _mod_small(n: int, m: np.ndarray) -> np.ndarray:
    """n mod m, exactly, for a Python int n >= 0 and int64 1 <= m < 2^62.

    Horner over n's top 63 bits, then its base-2^k digits with
    k = 63 - bitlen(max m): the running remainder stays below max m, so
    acc*2^k + digit < 2^63 and no step wraps, however large n is.  For
    n < 2^63 this is one int64 remainder.
    """
    k = 63 - int(m.max()).bit_length()
    shift = -(-max(n.bit_length() - 63, 0) // k) * k
    acc = (n >> shift) % m
    for s in range(shift - k, -1, -k):
        acc = ((acc << k) | ((n >> s) & ((1 << k) - 1))) % m
    return acc


def _final_row(b, inst: ProblemInstance, pool: _Pool) -> list[QuadInt]:
    """Pool gammas lam*S of the final row (0, b = u*S, 0) whose cofactor
    norm divides normsq(N); superset-safe.

    y = lam*conj(u) has the norm of lam, so its half-coordinates, like
    lam's, are at most maxlam = 2*(rbound + 2) in size; that bounds every
    intermediate of e = S*y + r' and of 4*normsq(e).  The test runs on
    int64 arrays when that bound stays inside _INT64_GUARD and on
    Python-int (object) arrays otherwise; on int64, normsq(N) is reduced
    against the norms by _mod_small.
    """
    d, S, rp = pool.d, inst.S, inst.rPrime
    w = exact_div(b, S, inst.ring).conj()  # u^-1: units have norm 1
    maxlam = 2 * (pool.rbound + 2)
    be = max(abs(rp.u), abs(rp.v)) + maxlam * (abs(S.u) + (-d) * abs(S.v))
    small = be * be * (1 - d) < _INT64_GUARD
    lu, lv = pool.lu, pool.lv
    if not small:
        lu, lv = lu.astype(object), lv.astype(object)
    yu = (lu * w.u + d * lv * w.v) // 2
    yv = (lu * w.v + lv * w.u) // 2
    eu = (S.u * yu + d * S.v * yv) // 2 + rp.u
    ev = (S.u * yv + S.v * yu) // 2 + rp.v
    ne = (eu * eu - d * ev * ev) // 4
    n_n = inst.N.normsq()
    ne1 = np.maximum(ne, 1)
    rem = _mod_small(n_n, ne1) if small else n_n % ne1
    picked = np.flatnonzero((ne != 0) & (rem == 0)).tolist()
    return [QuadInt(int(pool.lu[i]), int(pool.lv[i]), d) * S for i in picked]


def fast_row_candidates(a, b, c, inst: ProblemInstance, pool: _Pool) -> list[QuadInt]:
    """Filtered gamma candidates for one chain row; superset-safe.

    Rows with a != 0 are the quadratic rows 1..t-1, a = 0 is the final
    row (remseq.build_chain).  Everything returned still goes through the
    exact solver, so the only contract that matters is never dropping a
    gamma that carries a true solution inside the pool radius.
    """
    if a:
        return _quad_row(a, b, c, inst, pool)
    return _final_row(b, inst, pool)

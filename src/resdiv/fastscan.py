"""Vectorized candidate filtering for the quadratic-ring sweep.

The reference sweep (solver.enumerate_residues + solve_system per gamma) is
exact but walks the whole candidate disk per row, which is millions of
lattice points at the full radius of the non-Gaussian rings.  This module
prunes the disk with numpy before anything exact runs.

Quadratic rows (a != 0 and b != 0).  Eliminating y from the row line and
the product equation leaves a quadratic in x whose discriminant, as a
function of the shift gamma = c + lam*S, is the quadratic
D(lam) = E*lam^2 + F*lam + G of the row (derived in the solver module
docstring, with the formulas solver._instance_terms, _row_terms and
_disc_coeffs).  A ring solution x forces z = 2*A2*x + A1 to satisfy
z^2 = D, so D must be a square in the residue ring O_K/p for every split
prime p.  O_K/p is F_p x F_p there, through sqrt(d) -> s and
sqrt(d) -> -s, and in each of those sixteen components D is a scalar
quadratic in the image t of lam.  A search sieves all its quadratic rows
at once (sieve_rows): it maps S, r, r', N and every row's a, b and c into
the components (_images) and applies the solver's formulas to those
images, on int64 arrays, so the exact E, F and G are never formed.  It
evaluates every row's D at every t of every component and looks each
value up in the squares mod its prime (_squares); a pool point survives a
row when both of its images are squares for every prime (_survivors).  A
small pool gathers that for every row at every point at once, from
per-point positions stored with the pool; a large one builds, row by row,
each prime's table over its p^2 lam classes (two gathers and an AND,
_class_table) and gathers it in turn at the classes of the points that
survived the primes before it.  The eight tests cut the pool by about
4^-8 and the survivors go to the exact solver, which verifies everything
anyway.  Nothing here is trusted for soundness, only for not discarding
true solutions: z in O_K implies its image mod p is a square, always.

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
from .solver import _disc_coeffs, _instance_terms, _row_terms, candidate_radius

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

    The sixteen components of the eight primes share one layout of
    positions (_squares).  Component k (k < 8) maps sqrt(d) -> s_k mod p_k
    and component 8 + k maps sqrt(d) -> -s_k; comp_p[j] and comp_root[j]
    are component j's prime and root (s_k or p_k - s_k).  A position is a
    (component, t): component 0 holds t = 0..p_0-1, then component 1 and
    so on through component 7, and components 8-15 the same again.  Per
    position, comp is its component, t is t and t2 is t^2 mod p.
    squares[comp_at[j] + w] tells whether w is a square mod component j's
    prime p (0 included), for 0 <= w < 3*p^2.  plus and minus
    hold, at slices[k].start + class for each of p_k's p_k^2 classes, the
    positions of lam's images (lu + s_k*lv)/2 and (lu - s_k*lv)/2 mod p_k
    in components k and 8 + k.  modulus is the product of the eight
    primes, below 2^45.  These tables hold 2*sum(p_k) + 5*sum(p_k^2)
    entries, under 125k in every ring, whatever the pool's size.

    A pool of at most _DENSE_POINTS points also holds dense, (16, n): row
    k is plus[slices[k]].take(cls[k]), the position of every point's
    image mod p_k in component k, and row 8 + k the same from minus.  A
    search's rows are then sieved in one gather at every point
    (_survivors), which costs about 16 lookups per point against the class
    tables' 2*sum(p_k^2) fixed ones per row.  Measured per Gaussian row
    when each row was sieved alone (sieve only, 2-vCPU x86 host): 613
    points 12-22 us dense against 43-74 us by class tables, 3.2k points
    51-78 against 79-124, 5.5k about even and 12k 206-219 against 129-153;
    the quad-general pools (0.5-1M points) keep the class tables.  dense
    is intp rather than int16 (positions are below 2*sum(p_k) < 2^15):
    take would convert int16 indices on every gather, 15-25% of it.
    """

    __slots__ = ("d", "rbound", "lu", "lv", "primes", "cls", "modulus",
                 "comp_p", "comp_root", "comp_at", "comp", "t", "t2", "squares",
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
        # sieve_rows' int64 bound (20*p^6 < 2^63) is stated for p <= 83,
        # the largest eighth split prime of the five rings
        assert primes[-1] <= 83, primes
        self.cls = [((us % p) * p).astype(np.int16).take(iu)
                    + (vs % p).astype(np.int16).take(iv) for p in primes]
        self.modulus = prod(primes)
        roots = [next(z for z in range(1, p) if z * z % p == d % p) for p in primes]
        self.comp_p = np.array(primes + primes)
        self.comp_root = np.array(roots + [p - s for p, s in zip(primes, roots)])
        starts = np.cumsum((0,) + primes[:-1])
        prime_of = np.repeat(np.arange(len(primes)), primes)
        p = self.comp_p.take(prime_of)
        t = np.arange(p.size) - starts.take(prime_of)
        self.comp = np.concatenate([prime_of, prime_of + len(primes)])
        self.t = np.concatenate([t, t])
        self.t2 = self.t * self.t % np.concatenate([p, p])
        wide = [3 * pk * pk for pk in primes]
        at = np.cumsum([0] + wide[:-1])
        self.comp_at = np.concatenate([at, at])
        self.squares = np.concatenate([np.isin(np.arange(w) % pk, np.arange(pk) ** 2 % pk)
                                       for pk, w in zip(primes, wide)])
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


def _images(xs, pool: _Pool) -> np.ndarray:
    """(16, len(xs)) int64: the image of each QuadInt x = (u + v*sqrt(d))/2
    in each component, (u + r*v)*2^-1 mod p with r the component's root.
    u and v are reduced mod pool.modulus as Python ints, so they may have
    any size, and then mod each prime; every image is below p."""
    m = pool.modulus
    p = pool.comp_p[:, None]
    u, v = np.array([(x.u % m, x.v % m) for x in xs], dtype=np.int64).T[:, None] % p
    return (u + pool.comp_root[:, None] * v) * ((p + 1) // 2) % p


def _squares(e, f, g, pool: _Pool) -> np.ndarray:
    """Is D a square at every position of pool, for D with the images e,
    f and g of E, F and G: int64 of any sign, shaped (16, R), or (16, 1)
    to stand for every column; the result is (positions, R) bool.  In a
    component D is e*t^2 + f*t + g at lam's image t; once e, f and g are
    reduced mod p, with t^2 taken mod p, every value is below 3*p^2, the
    length of each prime's table in squares."""
    p = pool.comp_p[:, None]
    comp = pool.comp
    v = (f % p).take(comp, axis=0)
    v *= pool.t[:, None]
    v += (g % p + pool.comp_at[:, None]).take(comp, axis=0)
    v += (e % p).take(comp, axis=0) * pool.t2[:, None]
    return pool.squares.take(v)


def _class_table(ok: np.ndarray, pool: _Pool, k: int) -> np.ndarray:
    """Is D(lam) a square in O_K/p_k, at each flat lam class of p_k: both
    of the class's images are squares in ok (one column of _squares)."""
    sl = pool.slices[k]
    return ok.take(pool.plus[sl]) & ok.take(pool.minus[sl])


def _survivors(ok: np.ndarray, pool: _Pool) -> list[list[int]]:
    """Per column of ok (from _squares, one column per chain row), the
    indices, in pool order, of the points whose D is a square in both F_p
    components of all eight primes.

    A small pool tests every row at every point in one gather from dense:
    ok is packed eight rows to a byte, gathered at every point's 16
    positions and AND-reduced over them, so bit i of a point's bytes says
    whether it survives row i; only the few points with a bit set are
    unpacked.  A large one gathers, row by row, each prime's class table
    at the points that passed the primes before it, and stops once none
    are left.  Both test the same predicate, so they keep the same points
    (_Pool gives the crossover).
    """
    rows = ok.shape[1]
    if pool.dense is not None:
        bits = np.bitwise_and.reduce(np.packbits(ok, axis=1).take(pool.dense, axis=0), axis=0)
        points = np.flatnonzero(bits.any(axis=1))
        hit, row = np.nonzero(np.unpackbits(bits.take(points, axis=0), axis=1, count=rows))
        out = [[] for _ in range(rows)]
        for i, j in zip(points.take(hit).tolist(), row.tolist()):
            out[j].append(i)
        return out
    out = []
    for col in np.ascontiguousarray(ok.T):
        surv = None
        for k, cls in enumerate(pool.cls):
            hit = _class_table(col, pool, k).take(cls if surv is None else cls.take(surv))
            surv = np.flatnonzero(hit) if surv is None else surv[hit]
            if surv.size == 0:
                break
        out.append(surv.tolist())
    return out


def _disc_images(rows, inst: ProblemInstance, pool: _Pool):
    """The images (e, f, g) of E, F and G of every quadratic chain row
    (a, b, c) of rows: e (16, 1), f and g (16, len(rows)), int64.

    S, r, r', N and every row's a, b and c are taken to their images
    (_images), and solver._instance_terms, _row_terms and _disc_coeffs,
    the same formulas that give the exact E, F and G, run on those int64
    arrays, broadcast over the rows.  Each map to a component respects
    sums and products, so that gives the images of E, F and G.  Every
    input image is below p <= 83, and every intermediate of the three
    formulas is below 20*p^6 < 2^63 in size (E = S^6 is below p^6, F and G
    sums of a few products of six images), so nothing wraps.
    """
    x = _images([inst.S, inst.r, inst.rPrime, inst.N] + [z for row in rows for z in row], pool)
    terms = _instance_terms(*x[:, :4, None].transpose(1, 0, 2))
    a, b, c = x[:, 4:].reshape(x.shape[0], -1, 3).transpose(2, 0, 1)
    return _disc_coeffs(c, terms, _row_terms(terms, a, b))


def sieve_rows(rows, inst: ProblemInstance, pool: _Pool) -> list[list[int]]:
    """Survivor indices into pool, per quadratic chain row (a, b, c) of
    rows, of the sieve of the module docstring, for all rows in one numpy
    pass."""
    return _survivors(_squares(*_disc_images(rows, inst, pool), pool), pool)


def _quad_row(a, b, c, inst: ProblemInstance, pool: _Pool, surv=None) -> list[QuadInt]:
    if surv is None:
        surv = sieve_rows([(a, b, c)], inst, pool)[0]
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
    int64 arrays when that bound stays inside _INT64_GUARD, with normsq(N)
    reduced against the norms by _mod_small.  Past it, it runs on Python
    ints (object arrays) on one quadratic form in lam, built once: with
    K = S*conj(u)*conj(r'),

        2*normsq(e) = 2*normsq(S)*normsq(lam) + lu*K.u + d*lv*K.v
                      + 2*normsq(r'),

    since normsq(S*y) = normsq(S)*normsq(lam) and the cross term
    2*Re(S*y*conj(r')) = 2*Re(lam*K) is (lu*K.u + d*lv*K.v)/2; and
    normsq(e) divides normsq(N) exactly when 2*normsq(e) divides
    2*normsq(N).
    """
    d, S, rp = pool.d, inst.S, inst.rPrime
    w = exact_div(b, S, inst.ring).conj()  # u^-1: units have norm 1
    maxlam = 2 * (pool.rbound + 2)
    be = max(abs(rp.u), abs(rp.v)) + maxlam * (abs(S.u) + (-d) * abs(S.v))
    lu, lv = pool.lu, pool.lv
    n_n = inst.N.normsq()
    if be * be * (1 - d) < _INT64_GUARD:
        yu = (lu * w.u + d * lv * w.v) // 2
        yv = (lu * w.v + lv * w.u) // 2
        eu = (S.u * yu + d * S.v * yv) // 2 + rp.u
        ev = (S.u * yv + S.v * yu) // 2 + rp.v
        ne = (eu * eu - d * ev * ev) // 4
        rem = _mod_small(n_n, np.maximum(ne, 1))
    else:
        k = S * w * rp.conj()
        nl = (lu * lu - d * lv * lv) // 4
        ne = (nl.astype(object) * (2 * S.normsq()) + lu.astype(object) * k.u
              + (d * lv).astype(object) * k.v + 2 * rp.normsq())
        rem = 2 * n_n % np.maximum(ne, 1)
    picked = np.flatnonzero((ne != 0) & (rem == 0)).tolist()
    return [QuadInt(int(pool.lu[i]), int(pool.lv[i]), d) * S for i in picked]


def fast_row_candidates(a, b, c, inst: ProblemInstance, pool: _Pool,
                        surv=None) -> list[QuadInt]:
    """Filtered gamma candidates for one chain row; superset-safe.

    Rows with a != 0 are the quadratic rows 1..t-1, a = 0 is the final
    row (remseq.build_chain).  surv, a quadratic row's survivors from
    sieve_rows, saves sieving the row alone.  Everything returned still
    goes through the exact solver, so the only contract that matters is
    never dropping a gamma that carries a true solution inside the pool
    radius.
    """
    if a:
        return _quad_row(a, b, c, inst, pool, surv)
    return _final_row(b, inst, pool)

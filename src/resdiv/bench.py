"""Scaling benchmark: random instances at a digit scale k, timed end to end.

One sample at scale k draws N with two signed parts uniform in
[10^k, 10^(k+1)), S with two unsigned parts uniform in the exact integer
cube-root window (smallest m with m^3 >= 10^k up to the largest m with
m^3 < 10^(k+1)), and r rejection-sampled from the half-norm box of S.
Samples are rejected until both gcd conditions are units and the size gate
normsq(S)^3 >= normsq(N) holds.  Timing wraps only the search (chain plus
sweep); instance generation and pool warmup stay outside the clock.
Ring-operation counts per sample come from the global counter, giving a
machine-independent scaling check alongside the wall clock.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from math import isqrt
from random import Random
from time import perf_counter

from . import fastscan
from .algorithms import find_divisors
from .base import RING_OPS, InvalidInstanceError
from .remseq import ProblemInstance, build_instance
from .rings import RING_ZI, QuadInt, RingId


@dataclass(frozen=True)
class BenchRow:
    k: int
    mean_s: float
    min_s: float
    max_s: float
    samples: int
    mean_ops: float


def _icbrt(n: int) -> int:
    x = int(round(n ** (1.0 / 3)))
    while x**3 > n:
        x -= 1
    while (x + 1) ** 3 <= n:
        x += 1
    return x


def scale_bounds(k: int) -> tuple[int, int]:
    """The inclusive S-part window [lo, hi]: lo^3 >= 10^k, hi^3 < 10^(k+1),
    computed exactly."""
    lo = _icbrt(10**k - 1) + 1
    hi = _icbrt(10 ** (k + 1) - 1)
    return lo, hi


def _check_ring(ring: RingId) -> None:
    if not ring.is_quad:
        raise ValueError("the benchmark protocol samples quadratic rings")


def sample_instance(rng: Random, k: int, ring: RingId = RING_ZI) -> ProblemInstance:
    """One protocol sample at digit scale k (quadratic rings only)."""
    _check_ring(ring)
    d = ring.d
    lo_n, hi_n = 10**k, 10 ** (k + 1)
    lo_s, hi_s = scale_bounds(k)
    for _ in range(1000):
        n_el = QuadInt.from_parts(
            rng.choice((1, -1)) * rng.randrange(lo_n, hi_n),
            rng.choice((1, -1)) * rng.randrange(lo_n, hi_n),
            d,
        )
        s_el = QuadInt.from_parts(
            rng.randrange(lo_s, hi_s + 1), rng.randrange(lo_s, hi_s + 1), d
        )
        n_s = s_el.normsq()
        if n_s**3 < n_el.normsq():
            continue
        box = isqrt(n_s // 2)
        r_el = None
        for _ in range(200):
            cand = QuadInt.from_parts(
                rng.randrange(-box, box + 1), rng.randrange(-box, box + 1), d
            )
            if not cand.is_zero() and 2 * cand.normsq() <= n_s:
                r_el = cand
                break
        if r_el is None:
            continue
        try:
            return build_instance(ring, n_el, s_el, r_el)
        except InvalidInstanceError:
            continue
    raise RuntimeError(f"could not draw a valid sample at k={k}")


def run_bench(
    ks,
    samples_per_k: int,
    seed: int,
    ring: RingId = RING_ZI,
) -> list[BenchRow]:
    _check_ring(ring)
    rng = Random(seed)
    fastscan.get_pool(ring.d)
    rows = []
    for k in ks:
        times = []
        ops = []
        for _ in range(samples_per_k):
            inst = sample_instance(rng, k, ring)
            RING_OPS.reset()
            t0 = perf_counter()
            find_divisors(inst)
            times.append(perf_counter() - t0)
            ops.append(RING_OPS.ops)
        rows.append(
            BenchRow(
                k=k,
                mean_s=statistics.fmean(times),
                min_s=min(times),
                max_s=max(times),
                samples=samples_per_k,
                mean_ops=statistics.fmean(ops),
            )
        )
    return rows


def format_csv(rows: list[BenchRow]) -> str:
    out = ["k,mean_s,min_s,max_s,samples"]
    for row in rows:
        out.append(
            f"{row.k},{row.mean_s:.9g},{row.min_s:.9g},{row.max_s:.9g},{row.samples}"
        )
    return "\n".join(out) + "\n"


def format_dat(rows: list[BenchRow]) -> str:
    """The same table as whitespace-separated gnuplot columns."""
    out = ["# k mean_s min_s max_s samples"]
    for row in rows:
        out.append(
            f"{row.k} {row.mean_s:.9g} {row.min_s:.9g} {row.max_s:.9g} {row.samples}"
        )
    return "\n".join(out) + "\n"

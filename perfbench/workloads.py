"""Seeded instance streams, one per workload.

Each workload is an endless stream of blocks of items made from the seed
alone; the package receives only the built instances.  A block covers every
stratum (digit scale, ring, degree, family member) in a seed-shuffled order,
and runs end on a block boundary, so every run holds the same mix and only
the instances themselves change with the seed.  That is what keeps
run-to-run spread low enough to gate on.

zi-scale      resdiv.bench.sample_instance at digit scale k = 10..40
quad-general  planted N = (S*x + r)*(S*y + r') in q-2, q-3, q-7, q-11;
              the last item of each block has normsq(N) >= 2^63, past
              the int64 guard of fastscan
zx-planted    planted Z[x] instances, deg S = 2..6, monic and non-monic
z-records     verify_family on the three integer families, and
              search_records hunts over one modulus at a time

The planted generators mirror the distributions of the test corpora
(tests/conftest.py) without importing the tests.  Costs vary tenfold with
a few draws per instance (its shape: normsq(S) in the quadratic rings; the
degrees and leading coefficients in Z[x]), so shapes come from a fixed
design, keyed by block and stratum in the quadratic rings and by stratum
alone in Z[x] (whose few blocks per run would otherwise leave gaps in the
latencies that the median jumps across), and only the remaining
coefficients from the seed; otherwise the few slow instances that fit in a
run would decide its figures.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from math import isqrt
from typing import Any, Iterator

from resdiv import algorithms, families, fastscan
from resdiv.base import InvalidInstanceError
from resdiv.bench import sample_instance
from resdiv.polynomials import Poly
from resdiv.remseq import ProblemInstance, build_instance
from resdiv.rings import RING_ZI, RING_ZX, QuadInt, is_unit, quad_ring

INT64_GUARD_NORM = 1 << 63
GENERAL_DS = (-2, -3, -7, -11)
ZI_KS = tuple(range(10, 41))

# quad-general: a block is QUAD_BULK items below the int64 guard, one per
# ring in turn, then one crossing it, so every run holds a crossing.
QUAD_BULK = 80
BULK_NORM_S = (30, 1000)
CROSS_NORM_S = (1 << 25, 1 << 27)

# z-records: the record hunt splits into one search_records call per
# modulus, each capped at SEARCH_CHECKS candidate searches.
SEARCH_S = tuple(range(8, 32))
SEARCH_TARGET = 4
SEARCH_CHECKS = 40
COHEN_LEVELS = tuple(range(3, 21))
SEVEN_BASES = tuple(range(2, 21))

# A timed run measures whole blocks until --seconds have passed and at
# least MIN_BLOCKS blocks are done; the cost of zx-planted's slow instances
# varies fivefold with their coefficients, and eight blocks average it out;
# z-records' three are the standalone record and two full blocks, without
# which a slow spell of the host would leave a run with one full block.
MIN_BLOCKS = {"zi-scale": 1, "quad-general": 1, "zx-planted": 8, "z-records": 3}

# Blocks per traced run: a fixed prefix of the stream, so exact counts
# repeat for a seed.  quad-general's first block holds its first crossing.
TRACE_BLOCKS = {"zi-scale": 2, "quad-general": 1, "zx-planted": 1, "z-records": 2}


@dataclass
class Item:
    """One unit of work: kind is "search" (find_divisors on inst),
    "family" (verify_family on fam) or "hunt" (search_records on one
    modulus).  planted is a divisor the report must contain; crossing marks
    normsq(N) >= 2^63."""

    index: int
    kind: str
    label: str
    inst: ProblemInstance | None = None
    fam: families.FamilyInstance | None = None
    hunt: tuple[int, int] | None = None
    planted: Any = None
    crossing: bool = False


def run_item(item: Item):
    """Call the package for one item.  Calls go through module attributes
    so that traced runs see them."""
    if item.kind == "search":
        return algorithms.find_divisors(item.inst)
    if item.kind == "family":
        return families.verify_family(item.fam)
    s, r = item.hunt
    return families.search_records(
        [s], target=SEARCH_TARGET, r=r, max_checks=SEARCH_CHECKS
    )


def pool_rings(workload: str) -> tuple[int, ...]:
    """Quadratic rings whose candidate pools the workload uses; the
    integer workloads run inside the Gaussian integers."""
    if workload == "quad-general":
        return GENERAL_DS
    if workload == "zx-planted":
        return ()
    return (-1,)


def warm_pools(workload: str) -> int:
    """Build the workload's pools; returns their total point count."""
    return sum(fastscan.get_pool(d).lu.size for d in pool_rings(workload))


# --- planted quadratic instances -------------------------------------------

def norm_shape(design: random.Random, ns_lo: int, ns_hi: int) -> int:
    """normsq(S) target, log-uniform in [ns_lo, ns_hi] as in the corpus."""
    return int(math.exp(design.uniform(math.log(ns_lo), math.log(ns_hi))))


def _rand_quad(rng, d, target, ns_lo, ns_hi):
    """Nonzero element with normsq near target, inside [ns_lo, ns_hi]."""
    for _ in range(200):
        a = rng.randint(-isqrt(target), isqrt(target))
        rem = max(target - a * a, 0) // -d
        b = rng.choice((1, -1)) * isqrt(rem)
        if d % 4 == 1 and rng.random() < 0.5:
            z = QuadInt(2 * a + 1, 2 * b + 1, d)
        else:
            z = QuadInt(2 * a, 2 * b, d)
        if z and ns_lo <= z.normsq() <= ns_hi:
            return z
    raise RuntimeError("no element in the norm window")


def _rand_quad_disk(rng, d, ns_max):
    """Nonzero element with normsq <= ns_max."""
    um = isqrt(4 * ns_max)
    vm = isqrt(4 * ns_max // -d)
    for _ in range(500):
        u = rng.randint(-um, um)
        v = rng.randint(-vm, vm)
        if d % 4 == 1:
            u += (u - v) % 2
        else:
            u -= u % 2
            v -= v % 2
        try:
            z = QuadInt(u, v, d)
        except ValueError:
            continue
        if z and z.normsq() <= ns_max:
            return z
    raise RuntimeError("no element in the disk")


def plant_quad(rng, d, target, ns_lo, ns_hi, crossing):
    """Gate-satisfying planted instance with normsq(S) near target whose
    normsq(N) lies on the requested side of the int64 guard; returns
    (inst, planted divisor)."""
    ring = quad_ring(d)
    while True:
        s_el = _rand_quad(rng, d, target, ns_lo, ns_hi)
        if is_unit(s_el, ring):
            continue
        n_s = s_el.normsq()
        r_el = _rand_quad_disk(rng, d, max(n_s // 2, 1))
        r2_el = _rand_quad_disk(rng, d, max(n_s // 2, 1))
        cap = max(isqrt(n_s) // 4, 2)
        x_el = _rand_quad_disk(rng, d, cap)
        y_el = _rand_quad_disk(rng, d, cap)
        if rng.random() < 0.04:
            x_el = QuadInt(0, 0, d)
        dv = s_el * x_el + r_el
        cof = s_el * y_el + r2_el
        if not dv or not cof:
            continue
        n_el = dv * cof
        if n_el.normsq() >= n_s**3:
            continue
        if (n_el.normsq() >= INT64_GUARD_NORM) != crossing:
            continue
        try:
            return build_instance(ring, n_el, s_el, r_el), dv
        except InvalidInstanceError:
            continue


# --- planted polynomial instances ------------------------------------------

def _rand_poly(rng, deg, height, monic=False, lead=None):
    coeffs = [rng.randint(-height, height) for _ in range(deg + 1)]
    coeffs[-1] = 1 if monic else (lead or coeffs[-1] or rng.choice((1, -1)))
    return Poly(coeffs)


def poly_shape(design: random.Random, deg_s: int):
    """The cost-setting draws of a planted Z[x] instance, in the test
    corpus's distribution: the degrees of the residues r and r' (they set
    the chain length), the degrees and leading coefficients of the planted
    cofactors f and g (the leads set how many leading coefficients the
    solver must try) and whether f = 0."""
    deg_r = design.randint(0, deg_s - 1)
    deg_r2 = design.randint(0, deg_s - 1)
    deg_f = design.randint(0, deg_s)
    deg_g = design.randint(0, deg_s - deg_f)
    lead_f = design.randint(-8, 8) or design.choice((1, -1))
    lead_g = design.randint(-8, 8) or design.choice((1, -1))
    return deg_r, deg_r2, deg_f, deg_g, lead_f, lead_g, design.random() < 0.05


def plant_poly(rng, deg_s, monic, shape, height=50):
    """Planted Z[x] instance of the given shape; deg f + deg g <= deg S
    keeps the gate.  Returns (inst, planted divisor)."""
    deg_r, deg_r2, deg_f, deg_g, lead_f, lead_g, f_zero = shape
    while True:
        s_el = _rand_poly(rng, deg_s, height, monic=monic)
        r_el = _rand_poly(rng, deg_r, height)
        r2_el = _rand_poly(rng, deg_r2, height)
        f_el = Poly.zero() if f_zero else _rand_poly(rng, deg_f, 8, lead=lead_f)
        g_el = _rand_poly(rng, deg_g, 8, lead=lead_g)
        dv = s_el * f_el + r_el
        cof = s_el * g_el + r2_el
        if not dv or not cof:
            continue
        n_el = dv * cof
        if 3 * s_el.degree < n_el.degree:
            continue
        try:
            return build_instance(RING_ZX, n_el, s_el, r_el), dv
        except InvalidInstanceError:
            continue


# --- streams of blocks ------------------------------------------------------

def _zi_scale(rng):
    ks = list(ZI_KS)
    while True:
        rng.shuffle(ks)
        yield [("search", f"k={k}", dict(inst=sample_instance(rng, k, RING_ZI)))
               for k in ks]


def _quad_item(rng, d, key, crossing):
    norms = CROSS_NORM_S if crossing else BULK_NORM_S
    target = norm_shape(random.Random(f"quad-shape:{key}:{d}"), *norms)
    inst, dv = plant_quad(rng, d, target, *norms, crossing=crossing)
    return ("search", f"q{d}" + (" crossing" if crossing else ""),
            dict(inst=inst, planted=dv, crossing=crossing))


def _quad_general(rng):
    ds = list(GENERAL_DS)
    for b in itertools.count():
        block = []
        for c in range(QUAD_BULK // len(ds)):
            rng.shuffle(ds)
            block += [_quad_item(rng, d, f"{b}:{c}", False) for d in ds]
        # crossing rings rotate in a fixed order, so the first crossing of
        # every run is in the same ring
        d = GENERAL_DS[b % len(GENERAL_DS)]
        block.append(_quad_item(rng, d, f"{b}:cross", True))
        yield block


def _zx_planted(rng):
    # one shape per stratum, the same in every block and for every seed;
    # the seed draws every other coefficient
    strata = [(deg, monic, poly_shape(random.Random(f"zx-shape:{deg}:{monic}"), deg))
              for deg in range(2, 7) for monic in (True, False)]
    while True:
        rng.shuffle(strata)
        block = []
        for deg, monic, shape in strata:
            inst, dv = plant_poly(rng, deg, monic, shape)
            tag = "monic" if monic else "non-monic"
            block.append(("search", f"deg={deg} {tag}", dict(inst=inst, planted=dv)))
        yield block


def _z_records(rng):
    # the record triple alone, then blocks of every family member and one
    # hunt per modulus; the seed picks the order and each hunt's residue
    yield [("family", "standalone", dict(fam=families.standalone_instance()))]
    while True:
        block = [("family", f"cohen {lvl}", dict(fam=families.cohen_instance(lvl)))
                 for lvl in COHEN_LEVELS]
        block += [("family", f"seven {base}",
                   dict(fam=families.seven_signed_instance(base)))
                  for base in SEVEN_BASES]
        for s in SEARCH_S:
            r = rng.choice([v for v in range(1, s) if math.gcd(v, s) == 1])
            block.append(("hunt", f"hunt s={s} r={r}", dict(hunt=(s, r))))
        rng.shuffle(block)
        yield block


STREAMS = {
    "zi-scale": _zi_scale,
    "quad-general": _quad_general,
    "zx-planted": _zx_planted,
    "z-records": _z_records,
}


def blocks(workload: str, seed: int) -> Iterator[list[Item]]:
    """The workload's stream of blocks for a seed; the same seed always
    gives the same items.  Items are numbered across blocks."""
    index = itertools.count()
    for block in STREAMS[workload](random.Random(f"{workload}:{seed}")):
        yield [Item(next(index), kind, label, **kw) for kind, label, kw in block]

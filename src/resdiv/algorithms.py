"""Top-level divisor search: chain, sweep, and verified report assembly.

The search finds every ring divisor d of N with d = r (mod S), i.e. every
solution of (S*x + r)(S*y + r') = N, provided the size gate holds
(normsq(S)^3 > normsq(N), resp. 3*deg S >= deg N).  The two solutions the
quadratic rows cannot reach (x = 0 and y = 0) are checked directly first;
then each chain row contributes candidate gammas that the exact solver
turns into verified pairs.  Z, the five quadratic rings and Z[x] all take
this one path; they differ only in where a row's candidates come from.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import index

from . import fastscan
from .remseq import ProblemInstance, build_chain, build_instance
from .rings import RING_Z, RING_ZX, Element, RingId, exact_div
from .solver import (
    FinalRow,
    InstanceTerms,
    RowSystem,
    candidate_radius,
    enumerate_residues,
    integer_shifts,
    poly_rhs_candidates,
    solve_system,
    trivial_divisor_check,
)

Witness = tuple[Element, Element, tuple[int, int]]


@dataclass(frozen=True)
class DivisorReport:
    """Sorted divisors, a witness per divisor, and run counters.

    witnesses[d] = (x, y, (i, j)): the solution pair behind d and where it
    was first discovered (chain row i, j-th accepted pair of that row; the
    two trivial checks count as row 0).  stats carries t, the chain rows
    by kind (quad_rows, rows 1..t-1 with a and b nonzero, so t - 1;
    linear_rows, the final row, so 1), candidates (every shift of every
    row in Z and Z[x], the filters' survivors in the quadratic rings),
    roots (quadratic-row candidates handed to the exact solver, in every
    ring: those passing the scalar test in Z and Z[x], all of them in the
    quadratic rings), solves (accepted pairs before deduplication), and
    seconds.
    """

    divisors: tuple[Element, ...]
    witnesses: dict[Element, Witness]
    stats: dict[str, int | float]


def _verify_report(inst: ProblemInstance, found: dict[Element, Witness]) -> None:
    for dv in found:
        quot = exact_div(inst.N, dv, inst.ring)
        cls = exact_div(dv - inst.r, inst.S, inst.ring)
        ok = quot is not None and cls is not None
        if ok and inst.ring.is_poly:
            ok = dv.is_integral() and quot.is_integral() and cls.is_integral()
        if not ok:
            raise AssertionError(f"internal consistency: reported divisor {dv} fails re-check")


def _sort_key(ring: RingId):
    if ring.is_quad:
        return lambda dv: (dv.normsq(), dv.u, dv.v)
    if ring.is_poly:
        return lambda dv: (dv.degree, dv.coeffs)
    return lambda dv: dv


def _sweep(inst: ProblemInstance, chain, radius: int, engine: str):
    """The two trivial checks and every chain row of find_divisors:
    (found, candidates, roots, solves)."""
    ring = inst.ring
    found: dict[Element, Witness] = {}
    ncand = nacc = nroots = 0

    for j, pair in enumerate(trivial_divisor_check(inst)):
        dv = inst.S * pair.x + inst.r
        found.setdefault(dv, (pair.x, pair.y, (0, j)))
        nacc += 1

    pool = shifts = None
    survivors = ()
    if ring.is_quad and engine == "fast":
        pool = fastscan.get_pool(ring.d, radius)
        if chain.t > 1:
            survivors = fastscan.sieve_rows(chain.triples[1:-1], inst, pool)
    elif ring.is_int:
        shifts = integer_shifts(radius)

    for i in range(1, chain.t + 1):
        a, b, c = chain.a[i], chain.b[i], chain.c[i]
        row = RowSystem(a, b, c, inst) if i < chain.t else None
        if ring.is_quad:
            if pool is not None:
                surv = survivors[i - 1] if row is not None else None
                gammas = fastscan.fast_row_candidates(a, b, c, inst, pool, surv)
            else:
                gammas = enumerate_residues(c, inst.S, radius, ring)
            ncand += len(gammas)
        else:
            if ring.is_poly:
                shifts = poly_rhs_candidates(a, b, inst)
            ncand += len(shifts)
            gammas = (row or FinalRow(a, b, c, inst)).gammas(shifts)
        if row is not None:
            nroots += len(gammas)
        j = 0
        for gamma in gammas:
            for pair in solve_system(a, b, gamma, inst, row):
                dv = inst.S * pair.x + inst.r
                found.setdefault(dv, (pair.x, pair.y, (i, j)))
                j += 1
                nacc += 1
    return found, ncand, nroots, nacc


def find_divisors(
    inst: ProblemInstance,
    *,
    rbound: int | None = None,
    engine: str = "fast",
) -> DivisorReport:
    """Run the full search on a built instance.

    The search is the two trivial checks, then the quadratic rows
    1..t-1 of the chain, then its final row (0, u*S, 0) (build_chain
    proves that shape).  A chain row (a, b, c) hands the exact solver
    gammas c + lam*S.  In Z lam is every integer with |lam| <= radius + 2
    (integer_shifts); in Z[x] it is n/m, n over poly_rhs_candidates and
    m the row's shift denominator.  There each shift is first tested on
    the row's scalar images, and gamma is built only for the shifts that
    pass (gammas): on the quadratic rows RowSystem.keep (D(n/m) is a
    rational square), on the final row FinalRow.keep (the cofactor
    S*lam/u + r' divides N).  Each test only drops shifts at which the
    solver finds no pair, so the report is that of handing every shift
    to the solver.  In the quadratic rings engine selects the
    enumeration: "fast" (the default: fastscan's filters over the lam
    pool) or "exact" (the reference disk walk; only sensible at a reduced
    rbound outside the Gaussian ring).  Both feed the same exact solver
    and report identically.  rbound overrides candidate_radius in Z and
    in the quadratic rings; it must be an integer >= 0 (ValueError
    otherwise), as the pools and shift lists of step 2 below are defined
    only there.

    Z finds exactly the real divisors that the Gaussian search of the same
    numbers finds, each in the same chain row:
      1. The Z chain and the Z[i] chain are the same chain:
         _int_div_nearest rounds as quad_div does on real inputs (nearest,
         ties toward minus infinity), so r, r', every quotient and every
         row (a, b, c) agree.
      2. On a real row a real pair (x, y) forces gamma = a*x + b*y to be
         real, so its shift lam = (gamma - c)/S is real, and the real
         points of the Gaussian pool are integer_shifts(radius), in the
         same order.
      3. The Gaussian sieve (fastscan) is superset-safe: it keeps every
         gamma that carries a solution.  So the real hits of the Z[i]
         route are exactly the hits of the real shifts, which Z hands to
         the same solver past its exact shift tests.
    The j of a witness (i, j) agrees as well unless the Gaussian row
    accepts a non-real pair ahead of it; stats differ in candidates,
    roots and, by those non-real pairs, solves.
    """
    if engine not in ("fast", "exact"):
        raise ValueError(f"unknown engine {engine!r}")
    if rbound is None:
        radius = candidate_radius(inst.ring.d)
    else:
        try:
            radius = index(rbound)
        except TypeError:
            raise ValueError(f"rbound {rbound!r} is not an integer") from None
        if radius < 0:
            raise ValueError(f"rbound {rbound!r} is negative")
    t0 = time.perf_counter()
    chain = build_chain(inst)
    try:
        if chain.t > 1:
            # the search forms the row terms its quadratic rows share, and
            # lets them go at its end, also when it raises: no work, ring
            # operation or memory carries over from one call to the next
            inst.hold_terms(InstanceTerms(inst))
        found, ncand, nroots, nacc = _sweep(inst, chain, radius, engine)
    finally:
        inst.hold_terms(None)
    _verify_report(inst, found)
    divisors = tuple(sorted(found, key=_sort_key(inst.ring)))
    stats = {
        "t": chain.t,
        "quad_rows": chain.t - 1,
        "linear_rows": 1,
        "candidates": ncand,
        "roots": nroots,
        "solves": nacc,
        "seconds": time.perf_counter() - t0,
    }
    return DivisorReport(divisors, found, stats)


def divisors_quadratic(ring: RingId, N, S, r) -> DivisorReport:
    if not ring.is_quad:
        raise ValueError("divisors_quadratic needs a quadratic ring")
    return find_divisors(build_instance(ring, N, S, r))


def divisors_rational(N: int, S: int, r: int) -> DivisorReport:
    """All integer divisors d of N with d = r (mod S), both signs."""
    return find_divisors(build_instance(RING_Z, int(N), int(S), int(r)))


def divisors_poly(
    N,
    S,
    r,
    *,
    lead_list: list[int] | tuple[int, ...] | None = None,
) -> DivisorReport:
    inst = build_instance(RING_ZX, N, S, r, lead_list=lead_list)
    return find_divisors(inst)

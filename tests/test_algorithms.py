import random
from fractions import Fraction

import numpy as np
import pytest
from conftest import family_triples, plant_poly, plant_quad, plant_rational, sqrt_rational

from resdiv import algorithms, fastscan
from resdiv.algorithms import (
    DivisorReport,
    divisors_poly,
    divisors_quadratic,
    divisors_rational,
    find_divisors,
)
from resdiv.oracle import oracle_rational
from resdiv.polynomials import Poly
from resdiv.remseq import build_chain, build_instance
from resdiv.rings import RING_Z, RING_ZI, QuadInt, exact_div, quad_ring
from resdiv.solver import (
    _EVAL_POINTS,
    candidate_radius,
    integer_shifts,
    poly_rhs_candidates,
    shift_denominator,
    solve_system,
    trivial_divisor_check,
)


def test_rational_example():
    rep = divisors_rational(12, 5, 1)
    assert rep.divisors == (-4, 1, 6)
    for dv in rep.divisors:
        x, y, at = rep.witnesses[dv]
        assert isinstance(x, int) and isinstance(y, int)
        assert 5 * x + 1 == dv
        assert dv * (5 * y + 2) == 12  # rPrime of (12, 5, 1) is 2
        assert isinstance(at, tuple) and len(at) == 2


def test_rational_no_solutions():
    # 97 is prime and neither 1, -1, 97, nor -97 is 4 mod 9
    rep = divisors_rational(97, 9, 4)
    assert rep.divisors == ()
    assert oracle_rational(97, 9, 4).divisors == ()


def test_rational_both_signs():
    rep = divisors_rational(320320, 69, 1)
    assert tuple(d for d in rep.divisors if d > 0) == (1, 70, 208, 2002, 3520, 14560)
    assert rep.divisors == tuple(sorted(rep.divisors))


def test_rational_matches_oracle_randomized():
    # RING_Z instances run natively through find_divisors, small and
    # negative moduli included
    rng = random.Random(51)
    cases = [plant_rational(rng) for _ in range(30)]
    cases += [plant_rational(rng, 2, 40) for _ in range(40)]
    cases += [(1095, 14, 1, 15), (1105, 12, 1, 13), (320320, -69, 1, 70), (-273, 10, 3, 13)]
    for n, s, r, planted in cases:
        inst = build_instance(RING_Z, n, s, r)
        rep = find_divisors(inst)
        assert rep.divisors == oracle_rational(n, s, inst.r).divisors
        assert planted in rep.divisors
        for dv in rep.divisors:
            x, y, _at = rep.witnesses[dv]
            assert s * x + inst.r == dv and dv * (s * y + inst.rPrime) == n


def test_integer_search_builds_no_gaussian_machinery(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("integer search left Z")

    monkeypatch.setattr(QuadInt, "__init__", boom)
    monkeypatch.setattr(fastscan, "get_pool", boom)
    monkeypatch.setattr(fastscan, "fast_row_candidates", boom)
    rep = divisors_rational(104254876089000, 105787, 1)
    assert len([d for d in rep.divisors if d > 0]) == 6


def _gaussian_route(n, s, r):
    """The integer search as it once ran: inside Z[i], real divisors kept,
    witnesses projected back to Z."""
    rep = find_divisors(build_instance(RING_ZI, n, s, r))
    divisors = tuple(sorted(dv.u // 2 for dv in rep.divisors if dv.v == 0))
    witnesses = {}
    for dv in rep.divisors:
        if dv.v == 0:
            x, y, at = rep.witnesses[dv]
            assert x.v == 0 and y.v == 0
            witnesses[dv.u // 2] = (x.u // 2, y.u // 2, at)
    return divisors, witnesses, rep.stats


def test_integer_search_matches_gaussian_route(z_corpus):
    cases = family_triples() + [c[:3] for c in z_corpus]
    for n, s, r in cases:
        rep = divisors_rational(n, s, r)
        divisors, witnesses, stats = _gaussian_route(n, s, r)
        assert rep.divisors == divisors
        assert rep.witnesses == witnesses
        for key in ("t", "quad_rows", "linear_rows"):
            assert rep.stats[key] == stats[key]


def _reference_search(inst):
    """find_divisors as a plain loop: every shift's gamma goes to
    solve_system (no row, no shift test) in shift order.  roots counts the
    quadratic-row shifts whose discriminant, built from gamma, is a square
    in Z, resp. takes rational square values at the evaluation points in
    Z[x]."""
    ring, S = inst.ring, inst.S
    chain = build_chain(inst)
    found = {}
    stats = dict.fromkeys(("quad_rows", "linear_rows", "candidates", "roots", "solves"), 0)
    stats["t"] = chain.t
    for j, pair in enumerate(trivial_divisor_check(inst)):
        found.setdefault(S * pair.x + inst.r, (pair.x, pair.y, (0, j)))
        stats["solves"] += 1
    for i in range(1, chain.t + 1):
        a, b, c = chain.a[i], chain.b[i], chain.c[i]
        stats["quad_rows" if a and b else "linear_rows"] += 1
        if ring.is_int:
            shifts = integer_shifts(candidate_radius(0))
        else:
            m = shift_denominator(a, b, inst)
            shifts = [Fraction(n, m) for n in poly_rhs_candidates(a, b, inst)]
        stats["candidates"] += len(shifts)
        j = 0
        for lam in shifts:
            gamma = c + lam * S
            if a and b:
                a2 = -(S * S * a)
                a1 = S * S * gamma + S * inst.rPrime * b - S * inst.r * a
                a0 = S * inst.r * gamma + b * (inst.r * inst.rPrime - inst.N)
                disc = a1 * a1 - 4 * a2 * a0
                images = [disc(x0) for x0 in _EVAL_POINTS] if ring.is_poly else [disc]
                if all(sqrt_rational(v) is not None for v in images):
                    stats["roots"] += 1
            for pair in solve_system(a, b, gamma, inst):
                found.setdefault(S * pair.x + inst.r, (pair.x, pair.y, (i, j)))
                j += 1
                stats["solves"] += 1
    return found, stats


def test_reports_match_reference_search(poly_corpus):
    # the shift tests and lazy gamma change nothing: divisors, witnesses
    # (x, y, (i, j)) and every count but seconds are those of the loop that
    # hands every shift to the solver, on a Z[x] corpus slice and the 38
    # integer families
    insts = [inst for inst, _ in poly_corpus[:30]]
    insts += [build_instance(RING_Z, n, s, r) for n, s, r in family_triples()]
    for inst in insts:
        rep = find_divisors(inst)
        found, stats = _reference_search(inst)
        assert set(rep.divisors) == set(found)
        assert rep.witnesses == found
        assert {k: v for k, v in rep.stats.items() if k != "seconds"} == stats


def test_stats_shape():
    rep = divisors_rational(273, 10, 1)
    assert set(rep.stats) == {"t", "quad_rows", "linear_rows", "candidates", "roots",
                              "solves", "seconds"}
    assert rep.stats["t"] >= 2
    assert rep.stats["quad_rows"] + rep.stats["linear_rows"] == rep.stats["t"]
    assert rep.stats["candidates"] > 0
    assert 0 < rep.stats["roots"] <= rep.stats["candidates"]
    assert rep.stats["solves"] >= len(rep.divisors)
    assert rep.stats["seconds"] >= 0.0


def test_trivial_divisor_witness_row():
    rep = divisors_rational(320320, 69, 1)
    x, y, at = rep.witnesses[1]
    assert at[0] == 0  # divisor 1 comes from the x = 0 pre-check
    assert x == 0 and y == 4642


def test_engine_validation():
    inst = build_instance(RING_ZI, 12, 5, 1)
    with pytest.raises(ValueError):
        find_divisors(inst, engine="bogus")
    with pytest.raises(ValueError):
        find_divisors(inst, engine="auto")  # the old alias of "fast"
    with pytest.raises(ValueError):
        divisors_quadratic(RING_Z, 12, 5, 1)


def test_negative_rbound_rejected():
    # a negative radius would still give the Gaussian pool a disk of
    # 4*(rbound + 2)^2 (49 points at -6) while Z sweeps only lam = 0
    for inst in (build_instance(RING_Z, 12, 5, 1), build_instance(RING_ZI, 12, 5, 1)):
        for engine in ("fast", "exact"):
            for rbound in (-1, -6):
                with pytest.raises(ValueError, match="negative"):
                    find_divisors(inst, rbound=rbound, engine=engine)
    assert (-1, -6) not in fastscan._POOLS
    assert find_divisors(build_instance(RING_Z, 12, 5, 1), rbound=0).divisors == (-4, 1, 6)


def test_non_integer_rbound_rejected():
    inst = build_instance(RING_ZI, 12, 5, 1)
    for rbound in (2.5, 2.0, Fraction(5, 2), "3"):
        with pytest.raises(ValueError, match="not an integer"):
            find_divisors(inst, rbound=rbound)
    with pytest.raises(ValueError, match="not an integer"):
        find_divisors(build_instance(RING_Z, 12, 5, 1), rbound=2.5)
    want = find_divisors(inst, rbound=3).divisors
    assert find_divisors(inst, rbound=np.int64(3)).divisors == want


def test_failed_search_releases_instance_terms(monkeypatch):
    # a search that raises after a row formed the instance's row terms
    # (ProblemInstance.terms) still lets them go, in every kind of ring
    real = algorithms.solve_system
    held = []

    def failing(a, b, gamma, inst, row=None):
        out = real(a, b, gamma, inst, row)
        if row is not None:
            held.append(inst._terms is not None)
            raise RuntimeError("solver failed")
        return out

    monkeypatch.setattr(algorithms, "solve_system", failing)
    rng = random.Random(12)
    insts = [plant_quad(rng, -1, 100, 10**6)[0], plant_quad(rng, -7, 30, 1000)[0],
             build_instance(RING_Z, 1001 * 2003, 1000, 1), plant_poly(rng)[0]]
    for inst in insts:
        with pytest.raises(RuntimeError, match="solver failed"):
            find_divisors(inst)
        assert inst._terms is None
    assert held == [True] * len(insts)


def test_quadratic_report_sorted_and_verified():
    rng = random.Random(52)
    for d in (-1, -3, -7):
        ring = quad_ring(d)
        for _ in range(5):
            inst, (x, y) = plant_quad(rng, d, 30, 1000)
            rep = find_divisors(inst)
            key = lambda z: (z.normsq(), z.u, z.v)
            assert list(rep.divisors) == sorted(rep.divisors, key=key)
            assert inst.S * x + inst.r in rep.divisors
            for dv in rep.divisors:
                wx, wy, _at = rep.witnesses[dv]
                assert inst.S * wx + inst.r == dv
                assert dv * (inst.S * wy + inst.rPrime) == inst.N
                assert exact_div(inst.N, dv, ring) is not None


def test_reports_are_deterministic():
    rng = random.Random(53)
    inst, _ = plant_quad(rng, -1, 100, 10**6)
    rep1 = find_divisors(inst)
    rep2 = find_divisors(inst)
    assert rep1.divisors == rep2.divisors
    assert rep1.witnesses == rep2.witnesses
    assert rep1.stats["candidates"] == rep2.stats["candidates"]
    assert rep1.stats["solves"] == rep2.stats["solves"]


def test_poly_known_product():
    n = Poly([1, 0, 1]) * Poly([3, 0, 1])
    rep = divisors_poly(n, Poly([0, 0, 1]), Poly.constant(1))
    assert rep.divisors == (Poly.constant(1), Poly([1, 0, 1]))


def test_poly_planted_recovery():
    rng = random.Random(54)
    for _ in range(15):
        inst, (f, g) = plant_poly(rng)
        rep = find_divisors(inst)
        planted = inst.S * f + inst.r
        assert planted in rep.divisors
        for dv in rep.divisors:
            assert dv.is_integral()
            quot = exact_div(inst.N, dv, inst.ring)
            assert quot is not None and quot.is_integral()
            cls = exact_div(dv - inst.r, inst.S, inst.ring)
            assert cls is not None and cls.is_integral()


def test_poly_respects_lead_list_override():
    n = Poly([1, 0, 1]) * Poly([3, 0, 1])
    full = divisors_poly(n, Poly([0, 0, 1]), Poly.constant(1))
    narrowed = divisors_poly(n, Poly([0, 0, 1]), Poly.constant(1), lead_list=(1, -1))
    assert set(narrowed.divisors) <= set(full.divisors)
    assert Poly([1, 0, 1]) in narrowed.divisors

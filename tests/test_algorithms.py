import random

import pytest
from conftest import plant_poly, plant_quad, plant_rational

from resdiv import fastscan
from resdiv.algorithms import (
    DivisorReport,
    divisors_poly,
    divisors_quadratic,
    divisors_rational,
    find_divisors,
)
from resdiv.families import cohen_instance, seven_signed_instance, standalone_instance
from resdiv.oracle import oracle_rational
from resdiv.polynomials import Poly
from resdiv.remseq import build_instance
from resdiv.rings import RING_Z, RING_ZI, QuadInt, exact_div, quad_ring


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
    fams = [standalone_instance()] + [cohen_instance(lv) for lv in range(3, 21)]
    fams += [seven_signed_instance(b) for b in range(2, 21)]
    cases = [(fi.N, fi.S, fi.r) for fi in fams] + [c[:3] for c in z_corpus]
    for n, s, r in cases:
        rep = divisors_rational(n, s, r)
        divisors, witnesses, stats = _gaussian_route(n, s, r)
        assert rep.divisors == divisors
        assert rep.witnesses == witnesses
        for key in ("t", "quad_rows", "linear_rows"):
            assert rep.stats[key] == stats[key]


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
        divisors_quadratic(RING_Z, 12, 5, 1)


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

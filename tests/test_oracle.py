import random

import pytest
from conftest import plant_poly, plant_quad, plant_rational, sympy_norm_factors, sympy_poly_factors

from resdiv.oracle import (
    OracleResult,
    gaussian_prime_above,
    oracle_poly,
    oracle_quadratic,
    oracle_quadratic_factored,
    oracle_rational,
)
from resdiv.polynomials import Poly
from resdiv.remseq import build_instance
from resdiv.rings import RING_Z, RING_ZI, RING_ZX, QuadInt, exact_div, quad_ring, reduce_mod


def test_oracle_rational_example():
    got = oracle_rational(12, 5, 1)
    assert got.divisors == (-4, 1, 6)
    assert got.method == "trial-division"


def test_oracle_rational_bounds():
    with pytest.raises(ValueError):
        oracle_rational(0, 5, 1)
    with pytest.raises(ValueError):
        oracle_rational(10**15 + 1, 5, 1)


def test_oracle_rational_vs_dumb_loop():
    rng = random.Random(41)
    for _ in range(100):
        n = rng.randint(1, 5000) * rng.choice((1, -1))
        s = rng.randint(2, 60)
        r = rng.randint(0, s - 1)
        expected = tuple(sorted(
            dv for dv in range(-abs(n), abs(n) + 1)
            if dv and n % dv == 0 and (dv - r) % s == 0
        ))
        assert oracle_rational(n, s, r).divisors == expected


@pytest.mark.parametrize("chunk", [1, 3, 4, 7])
def test_oracle_rational_chunk_boundaries(monkeypatch, chunk):
    # chunks start at 1, 1 + chunk, ...; 720 and 3600 have divisors on both
    # sides of many chunk edges, and 3600 = 60^2 one at the scan limit itself
    monkeypatch.setattr("resdiv.oracle._CHUNK", chunk)
    for n in (1, 2, 97, 720, -720, 3600, 2 * 3 * 5 * 7 * 11):
        for s, r in ((7, 1), (13, 5), (2, 1), (10**9, 1)):
            expected = tuple(sorted(
                dv for dv in range(-abs(n), abs(n) + 1)
                if dv and n % dv == 0 and (dv - r) % s == 0
            ))
            assert oracle_rational(n, s, r).divisors == expected


def test_gaussian_prime_above():
    assert gaussian_prime_above(2) == (1, 1)
    for p in (5, 13, 17, 29, 97, 1000033):
        u, v = gaussian_prime_above(p)
        assert u * u + v * v == p
    for p in (7, 11, 19, 23):
        with pytest.raises(ValueError):
            gaussian_prime_above(p)


def test_factored_oracle_gaussian_only():
    with pytest.raises(ValueError):
        oracle_quadratic_factored(QuadInt.from_parts(3, 0, -2),
                                  QuadInt.from_parts(2, 0, -2),
                                  QuadInt.one(-2), {9: 1})


def test_factored_oracle_rejects_bad_factorization():
    # normsq(3) = 9 = 3^2; an odd inert exponent cannot be right
    with pytest.raises(AssertionError):
        oracle_quadratic_factored(QuadInt.from_parts(3, 0, -1),
                                  QuadInt.from_parts(2, 0, -1),
                                  QuadInt.one(-1), {3: 1})


def test_factored_oracle_small_product():
    # N = 5 = (2+i)(2-i); divisors = r mod (3+i) among units and factors
    n = QuadInt.from_parts(5, 0, -1)
    s = QuadInt.from_parts(3, 1, -1)
    got = oracle_quadratic_factored(n, s, QuadInt.one(-1), {5: 2})
    assert got.method == "subset-product"
    for dv in got.divisors:
        assert exact_div(n, dv, RING_ZI) is not None
        assert exact_div(dv - QuadInt.one(-1), s, RING_ZI) is not None
    assert QuadInt.one(-1) in got.divisors
    # completeness on this tiny lattice: brute box scan finds nothing extra
    brute = set()
    for u in range(-6, 7):
        for v in range(-6, 7):
            z = QuadInt.from_parts(u, v, -1)
            if not z:
                continue
            if exact_div(n, z, RING_ZI) is None:
                continue
            if exact_div(z - QuadInt.one(-1), s, RING_ZI) is None:
                continue
            brute.add(z)
    assert set(got.divisors) == brute


def test_xscan_matches_factored_on_gaussian_corpus():
    rng = random.Random(42)
    for _ in range(12):
        inst, _ = plant_quad(rng, -1, 30, 800)
        scan = oracle_quadratic(RING_ZI, inst.N, inst.S, inst.r, inst.rPrime)
        assert scan.method == "x-scan"
        fact = oracle_quadratic_factored(inst.N, inst.S, inst.r,
                                         sympy_norm_factors(inst.N.normsq()))
        assert scan.divisors == fact.divisors


def test_xscan_matches_rational_oracle_when_embedded():
    rng = random.Random(43)
    done = 0
    while done < 15:
        n, s, r, _dv = plant_rational(rng, 8, 25)
        inst = build_instance(RING_ZI, n, s, r)
        scan = oracle_quadratic(RING_ZI, inst.N, inst.S, inst.r, inst.rPrime)
        real = tuple(sorted(z.u // 2 for z in scan.divisors if z.v == 0))
        shown_r = build_instance(RING_Z, n, s, r).r
        assert real == oracle_rational(n, s, shown_r).divisors
        done += 1


def test_xscan_probe_recovers_out_of_disk_divisor():
    # cofactor i (a unit): the matching divisor sits at normsq(x) = 8200,
    # outside the factor-8 disk of 6400, so only the r' probe can see it
    s = QuadInt.from_parts(8, 6, -1)
    x = QuadInt.from_parts(90, 10, -1)
    dv = s * x + QuadInt.one(-1)
    n = dv * QuadInt.from_parts(0, 1, -1)
    inst = build_instance(RING_ZI, n, s, 1)
    assert inst.rPrime == QuadInt.from_parts(0, 1, -1)
    with_probe = oracle_quadratic(RING_ZI, n, s, inst.r, inst.rPrime, factor=8)
    without = oracle_quadratic(RING_ZI, n, s, inst.r, factor=8)
    assert dv in with_probe.divisors
    assert dv not in without.divisors
    assert QuadInt.one(-1) in with_probe.divisors
    assert QuadInt.one(-1) in without.divisors


def test_xscan_grid_guard():
    huge = QuadInt.from_parts(10**6, 1, -1)
    with pytest.raises(ValueError):
        oracle_quadratic(RING_ZI, huge * huge, huge, QuadInt.one(-1))


def test_xscan_finds_planted_general_d():
    rng = random.Random(44)
    for d in (-2, -3, -7, -11):
        ring = quad_ring(d)
        for _ in range(4):
            inst, (x, y) = plant_quad(rng, d, 30, 1000)
            got = oracle_quadratic(ring, inst.N, inst.S, inst.r, inst.rPrime)
            planted = inst.S * x + inst.r
            assert planted in got.divisors
            for dv in got.divisors:
                assert exact_div(inst.N, dv, ring) is not None
                assert exact_div(dv - inst.r, inst.S, ring) is not None


def test_oracle_poly_known_product():
    # N = (x+1)^2 (x^2+1); divisors = 1 mod x^2 are exactly 1 and x^2+1
    got = oracle_poly((1, 2, 2, 2, 1), (0, 0, 1), (1,), 1,
                      (((1, 1), 2), ((1, 0, 1), 1)))
    assert got.divisors == ((1,), (1, 0, 1))
    assert got.method == "subset-product"


def test_oracle_poly_content_divisors():
    # N = 6(x+1), S = x, r = 1: divisors with constant term 1 mod x
    got = oracle_poly((6, 6), (0, 1), (1,), 6, (((1, 1), 1),))
    # 1 and x+1 qualify; -2(x+1) does not (x does not divide -3)
    assert (1,) in got.divisors
    assert (1, 1) in got.divisors
    assert (-2, -2) not in got.divisors
    # every hit divides N and sits in the class
    for dv in got.divisors:
        p = Poly(list(dv))
        assert exact_div(Poly([6, 6]), p, RING_ZX) is not None
        q = exact_div(p - Poly.constant(1), Poly([0, 1]), RING_ZX)
        assert q is not None and q.is_integral()


def test_oracle_poly_finds_planted():
    rng = random.Random(45)
    for _ in range(10):
        inst, (f, g) = plant_poly(rng)
        content, factors = sympy_poly_factors(inst.N)
        got = oracle_poly(tuple(inst.N.coeffs), tuple(inst.S.coeffs),
                          tuple(inst.r.coeffs), content, factors)
        planted = inst.S * f + inst.r
        assert tuple(planted.coeffs) in got.divisors


def test_oracle_poly_lattice_guard():
    big = (((1, 1), 100), ((1, 0, 1), 100), ((2, 1), 100))
    with pytest.raises(ValueError):
        oracle_poly((1, 1), (0, 1), (1,), 1, big)

import random
from math import isqrt

import numpy as np
import pytest
import sympy
from conftest import (
    family_triples,
    perfbench_module,
    plant_poly,
    plant_quad,
    plant_rational,
    sympy_norm_factors,
    sympy_poly_factors,
)

from resdiv import families
from resdiv.oracle import (
    RATIONAL_LIMIT,
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
    assert got.method == "factorization"


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


def _trial_division(N, S, r, chunk):
    """The chunked numpy trial division up to sqrt|N| that oracle_rational
    ran before it factored |N|, kept here as the reference."""
    n = abs(int(N))
    out = set()
    limit = isqrt(n)
    for start in range(1, limit + 1, chunk):
        arr = np.arange(start, min(start + chunk, limit + 1), dtype=np.int64)
        hits = arr[n % arr == 0]
        for a in hits.tolist():
            for dv in (a, n // a, -a, -(n // a)):
                if (dv - r) % S == 0:
                    out.add(dv)
    return tuple(sorted(out))


def _hunt_triples(monkeypatch):
    """(N, S, r) of every candidate that the seed-501 z-records benchmark
    hunts search: the first full block's residue per modulus S = 8..31,
    40 candidates each, recorded as search_records runs them."""
    stream = perfbench_module("workloads").blocks("z-records", 501)
    next(stream)  # the standalone record alone
    hunts = sorted(item.hunt for item in next(stream) if item.kind == "hunt")
    assert [s for s, _ in hunts] == list(range(8, 32))
    seen = []
    search = families.divisors_rational

    def record(n, s, r):
        seen.append((n, s, r))
        return search(n, s, r)

    monkeypatch.setattr(families, "divisors_rational", record)
    for s, r in hunts:
        out = families.search_records([s], target=4, r=r, max_checks=40)
        assert out.checked == 40
    assert len(seen) == 24 * 40
    return seen


def _semiprime_triples():
    """10 products p*q <= 10^15 of primes in [3*10^7, 3.17*10^7], the
    slowest shape for Pollard's rho under the limit."""
    rng = random.Random(44)
    out = []
    while len(out) < 10:
        p = sympy.nextprime(rng.randrange(3 * 10**7, 31_690_000))
        q = sympy.nextprime(rng.randrange(3 * 10**7, 31_690_000))
        if p * q > RATIONAL_LIMIT:
            continue
        # both signs hit: p = 1 (mod p - 1); -1 and p = -1 (mod p + 1)
        s, r = (p - 1, 1) if len(out) % 2 else (p + 1, -1)
        out.append((p * q, s, r))
    return out


def _edge_triples():
    p = sympy.prevprime(isqrt(RATIONAL_LIMIT))
    out = [(n, s, r) for n in (p * p, 2**49, 3**31, RATIONAL_LIMIT, 1, -1)
           for s, r in ((7, 1), (p - 1, 1), (10**9, -1))]
    # the old chunk edges: divisors on both sides of many chunk boundaries,
    # and 3600 = 60^2 one at the scan limit itself
    out += [(n, s, r) for n in (720, -720, 3600, 2310)
            for s, rs in ((10**9, (1, -1)), (7, range(7))) for r in rs]
    return out


@pytest.mark.parametrize("chunk", [1, 7, 2**18])
def test_oracle_rational_matches_trial_division(monkeypatch, chunk):
    triples = family_triples() + _semiprime_triples() + _edge_triples()
    triples += _hunt_triples(monkeypatch)
    # small chunks scan one numpy call per chunk: keep them to small |N|
    small = [t for t in triples if isqrt(abs(t[0])) <= 5000 * chunk]
    assert len(small) >= 1000
    hits = 0
    for n, s, r in small:
        got = oracle_rational(n, s, r).divisors
        assert got == _trial_division(n, s, r, chunk), (n, s, r)
        hits += len(got)
    assert hits >= len(small)


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

import math
import random
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest
from conftest import GENERAL_DS, family_triples, plant_poly, plant_quad, plant_rational
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from resdiv.base import InvalidInstanceError
from resdiv.polynomials import Poly
from resdiv.remseq import (
    ProblemInstance,
    _signed_divisors,
    build_chain,
    build_instance,
    chain_dump,
    congruence_witness,
)
from resdiv.rings import RING_Z, RING_ZI, RING_ZX, QuadInt, exact_div, quad_ring, reduce_mod


# --- instance validation ------------------------------------------------------

def test_rejects_degenerate_inputs():
    with pytest.raises(InvalidInstanceError):
        build_instance(RING_Z, 0, 5, 1)
    with pytest.raises(InvalidInstanceError):
        build_instance(RING_Z, 10, 0, 1)
    with pytest.raises(InvalidInstanceError):
        build_instance(RING_Z, 10, 1, 1)  # unit modulus
    with pytest.raises(InvalidInstanceError):
        build_instance(RING_Z, 10, -1, 1)
    with pytest.raises(InvalidInstanceError):
        build_instance(RING_ZI, 5, QuadInt.from_parts(0, 1, -1), 1)


def test_rejects_shared_factors():
    with pytest.raises(InvalidInstanceError):
        build_instance(RING_Z, 10, 5, 1)  # gcd(N, S) = 5
    with pytest.raises(InvalidInstanceError):
        build_instance(RING_Z, 7, 6, 2)  # gcd(S, r) = 2
    with pytest.raises(InvalidInstanceError):
        build_instance(RING_Z, 7, 6, 0)
    with pytest.raises(InvalidInstanceError):
        build_instance(RING_ZX, Poly([0, 1, 1]), Poly([0, 1]), Poly.constant(1))


def test_rejects_non_integral_polynomials():
    half = Poly([Fraction(1, 2), 1])
    with pytest.raises(InvalidInstanceError):
        build_instance(RING_ZX, half, Poly([1, 0, 1]), Poly.constant(1))


def test_residue_is_reduced():
    inst = build_instance(RING_Z, 273, 10, 7)
    assert inst.r == -3  # nearest representative of 7 mod 10
    assert inst.rPrime == -1
    inst = build_instance(RING_Z, 320320, 69, 1)
    assert inst.rPrime == 22


def test_polynomial_residue_reduction():
    s = Poly([1, 0, 1])  # x^2 + 1, monic: reduction always possible
    inst = build_instance(RING_ZX, Poly([2, 1, 0, 1]), s, Poly([0, 0, 0, 1]))
    assert inst.r == Poly([0, -1])  # x^3 = x*(x^2+1) - x
    # non-monic modulus with deg r >= deg S and a fractional quotient: no
    # representative inside Z[x], so the instance is rejected
    with pytest.raises(InvalidInstanceError):
        build_instance(RING_ZX, Poly([1, 1, 0, 1]), Poly([1, 0, 2]), Poly([0, 0, 1]))
    # ...but an already-reduced residue is kept as-is
    inst = build_instance(RING_ZX, Poly([1, 1, 0, 1]), Poly([1, 0, 2]), Poly([1, 1]))
    assert inst.r == Poly([1, 1])


def test_gate_flag():
    assert build_instance(RING_Z, 273, 10, 1).gate_ok  # 1000 > 273
    assert not build_instance(RING_Z, 1001, 10, 1).gate_ok
    assert build_instance(RING_ZX, Poly([1, 1, 0, 0, 4]), Poly([1, 0, 1]),
                          Poly.constant(1)).gate_ok  # 3*2 >= 4
    assert not build_instance(RING_ZX, Poly([1, 1, 0, 0, 0, 0, 0, 4]),
                              Poly([1, 0, 1]), Poly.constant(1)).gate_ok


def test_leading_coefficient_list():
    inst = build_instance(RING_ZX, Poly([1, 1, 0, 0, 4]), Poly([1, 0, 1]),
                          Poly.constant(1))
    assert inst.lead_list == (-4, -2, -1, 1, 2, 4)
    # lead(N) not divisible by lead(S)^2: empty list
    inst = build_instance(RING_ZX, Poly([1, 1, 0, 0, 2]), Poly([1, 0, 2]),
                          Poly.constant(1))
    assert inst.lead_list == ()
    # explicit override is deduplicated and sorted
    inst = build_instance(RING_ZX, Poly([1, 1, 0, 0, 4]), Poly([1, 0, 1]),
                          Poly.constant(1), lead_list=[3, -3, 3, 1])
    assert inst.lead_list == (-3, 1, 3)
    with pytest.raises(InvalidInstanceError):
        build_instance(RING_ZX, Poly([1, 1, 0, 0, 4]), Poly([1, 0, 1]),
                       Poly.constant(1), lead_list=[0, 1])
    # entries are integers (numpy ints too), never truncated
    inst = build_instance(RING_ZX, Poly([1, 1, 0, 0, 4]), Poly([1, 0, 1]),
                          Poly.constant(1), lead_list=[np.int64(2), -1])
    assert inst.lead_list == (-1, 2) and all(type(v) is int for v in inst.lead_list)
    for bad in ([2.9], [Fraction(5, 2)], [1, "2"]):
        with pytest.raises(InvalidInstanceError):
            build_instance(RING_ZX, Poly([1, 1, 0, 0, 4]), Poly([1, 0, 1]),
                           Poly.constant(1), lead_list=bad)
    assert build_instance(RING_Z, 273, 10, 1).lead_list is None


# --- the chain ----------------------------------------------------------------

def test_chain_golden_dump():
    chain = build_chain(build_instance(RING_Z, 273, 10, 1))
    assert chain_dump(chain) == (
        "t 3\n"
        "0: 10 | 0 | 0\n"
        "1: 3 | 1 | -3\n"
        "2: 1 | -3 | -1\n"
        "3: 0 | 10 | 0\n"
    )
    assert chain.quotients == (3, 3)
    assert chain.triples[1] == (3, 1, -3)


def test_chain_shape():
    for n, s, r in ((273, 10, 1), (320320, 69, 1), (104254876089000, 105787, 1)):
        chain = build_chain(build_instance(RING_Z, n, s, r))
        assert chain.a[0] == s and chain.b[0] == 0 and chain.c[0] == 0
        assert chain.b[1] == 1
        assert len(chain.a) == chain.t + 1
        assert len(chain.quotients) == chain.t - 1
        assert chain.a[chain.t] == 0
        assert all(chain.a[k] != 0 for k in range(chain.t))


def _assert_chain_shape(inst):
    # rows 1..t-1 have a, b != 0; row t is (0, u*S, 0) with u a unit
    chain = build_chain(inst)
    t, S, ring = chain.t, inst.S, inst.ring
    assert t >= 2
    assert all(chain.a[k] and chain.b[k] for k in range(1, t))
    assert not chain.a[t] and not chain.c[t]
    u = exact_div(chain.b[t], S, ring)
    if ring.is_int:
        assert u in (1, -1)
    elif ring.is_quad:
        assert u.normsq() == 1
    else:
        assert u.degree == 0
    assert u * S == chain.b[t]


def test_chain_shape_on_every_corpus(z_corpus, zi_corpus, general_corpora, poly_corpus):
    # the build_chain theorem on every tier-1 corpus: the 38 integer
    # families, the criterion-4 Z corpus, the five quadratic corpora and
    # the Z[x] corpus with its non-monic moduli
    cases = family_triples() + [c[:3] for c in z_corpus]
    for n, s, r in cases:
        _assert_chain_shape(build_instance(RING_Z, n, s, r))
    for inst, _ in zi_corpus + [item for d in GENERAL_DS for item in general_corpora[d]]:
        _assert_chain_shape(inst)
    for inst, _ in poly_corpus:
        _assert_chain_shape(inst)
    assert sum(inst.S.lead not in (1, -1) for inst, _ in poly_corpus) >= 50


@settings(max_examples=400)
@given(n=st.integers(-10**30, 10**30), s=st.integers(-10**12, 10**12),
       r=st.integers(-10**12, 10**12))
def test_chain_shape_property_z(n, s, r):
    try:
        inst = build_instance(RING_Z, n, s, r)
    except InvalidInstanceError:
        assume(False)
    _assert_chain_shape(inst)


def test_chain_shape_violation_raises():
    # gcd(N, S) = 2 skips build_instance's check (r = 1, so rinv = 1):
    # a_1 = 2 is no unit mod 10, so b_t = -5 is not a unit times S
    inst = ProblemInstance(RING_Z, 12, 10, 1, 2, 1, None, True)
    with pytest.raises(AssertionError):
        build_chain(inst)


def _det_check(chain, inst):
    sign = 1
    for k in range(chain.t):
        det = chain.a[k] * chain.b[k + 1] - chain.a[k + 1] * chain.b[k]
        if det != (inst.S if sign > 0 else -inst.S):
            return False
        sign = -sign
    return True


def test_determinant_identity_int():
    rng = random.Random(404)
    for _ in range(60):
        n, s, r, _dv = plant_rational(rng)
        inst = build_instance(RING_Z, n, s, r)
        assert _det_check(build_chain(inst), inst)


def test_determinant_identity_quad_and_poly():
    rng = random.Random(405)
    for d in (-1,) + GENERAL_DS:
        for _ in range(15):
            inst, _pair = plant_quad(rng, d, 30, 1000)
            assert _det_check(build_chain(inst), inst)
    for _ in range(25):
        inst, _pair = plant_poly(rng)
        assert _det_check(build_chain(inst), inst)


def test_congruence_witness_on_planted_pairs():
    rng = random.Random(406)
    one = QuadInt.one(-1)
    for _ in range(25):
        inst, (x, y) = plant_quad(rng, -1, 100, 10**6)
        chain = build_chain(inst)
        assert congruence_witness(chain, x, y, inst)
        # a_1 is nonzero and reduced, so bumping x must break index 1
        assert not congruence_witness(chain, x + one, y, inst)
    for _ in range(25):
        inst, (f, g) = plant_poly(rng)
        chain = build_chain(inst)
        assert congruence_witness(chain, f, g, inst)
        assert not congruence_witness(chain, f + Poly.constant(1), g, inst)


def test_congruence_witness_known_solution():
    # 273 = 21 * 13 = (10*2+1)(10*1+3)
    inst = build_instance(RING_Z, 273, 10, 1)
    chain = build_chain(inst)
    assert congruence_witness(chain, 2, 1, inst)
    assert not congruence_witness(chain, 2, 2, inst)


def test_chain_length_bounds():
    rng = random.Random(407)
    for _ in range(20):
        inst, _ = plant_quad(rng, -1, 100, 10**6)
        chain = build_chain(inst)
        ns = inst.S.normsq()
        assert chain.t <= math.ceil(math.log2(ns)) + 2
    for d in GENERAL_DS:
        bound_base = math.log(16 / 15)
        for _ in range(10):
            inst, _ = plant_quad(rng, d, 30, 1000)
            chain = build_chain(inst)
            ns = inst.S.normsq()
            assert chain.t <= math.ceil(math.log(ns) / bound_base) + 2
    for _ in range(20):
        inst, _ = plant_poly(rng)
        chain = build_chain(inst)
        assert chain.t <= inst.S.degree + 1


def test_chain_c_side_reduced():
    rng = random.Random(408)
    for _ in range(15):
        inst, _ = plant_quad(rng, -1, 100, 10**6)
        chain = build_chain(inst)
        for ck in chain.c:
            assert reduce_mod(ck, inst.S, inst.ring) == ck


def _trial_divisors(n):
    low = [k for k in range(1, isqrt(n) + 1) if n % k == 0]
    pos = sorted(set(low + [n // k for k in low]))
    return tuple(sorted(-p for p in pos) + pos)


def test_signed_divisors_matches_trial_division():
    # the factorizer behind every Z ground truth (oracle_rational) as well
    # as the Z[x] lead lists
    rng = random.Random(11)
    ns = [720720, 9999991, 2**23, 3**14]
    ns += [rng.randrange(1, 10**7) for _ in range(300)]
    for n in ns:
        assert _signed_divisors(n) == _trial_divisors(n)
        assert _signed_divisors(-n) == _signed_divisors(n)
    # every n up to 30000, against a divisor sieve
    top = 30000
    sieve = [[] for _ in range(top + 1)]
    for dv in range(1, top + 1):
        for m in range(dv, top + 1, dv):
            sieve[m].append(dv)
    for n in range(1, top + 1):
        assert _signed_divisors(n) == tuple([-q for q in reversed(sieve[n])] + sieve[n])
    # every p^k <= 10^15 for the two smallest primes and the largest prime
    # whose square is at most 10^15
    for p in (2, 3, 31622743):
        k = 0
        while p**k <= 10**15:
            pos = [p**i for i in range(k + 1)]
            assert _signed_divisors(p**k) == tuple([-q for q in reversed(pos)] + pos)
            k += 1


def test_signed_divisors_near_2_63():
    p = 2**63 - 25  # the largest prime below 2^63
    assert _signed_divisors(p) == (-p, -1, 1, p)
    q1, q2 = 3037000453, 3037000493  # the two primes just below 2^31.5
    n = q1 * q2
    assert _signed_divisors(n) == (-n, -q2, -q1, -1, 1, q1, q2, n)
    assert _signed_divisors(q2 * q2) == (-q2 * q2, -q2, -1, 1, q2, q2 * q2)
    with pytest.raises(InvalidInstanceError):
        _signed_divisors(1 << 64)

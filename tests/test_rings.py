import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resdiv.base import InvalidInstanceError, RING_OPS
from resdiv.polynomials import Poly
from resdiv.rings import (
    DIV_NORM_BOUND,
    RING_Z,
    RING_ZI,
    RING_ZX,
    QuadInt,
    _parity_ok,
    canonical_associate,
    coerce_element,
    exact_div,
    floor_sqrt,
    int_sqrt,
    is_unit,
    mod_inverse,
    quad_div,
    quad_ring,
    quad_sqrt,
    reduce_mod,
    ring_div,
    ring_from_name,
    ring_gcd,
    ring_sqrt,
    units,
)

ALL_D = (-1, -2, -3, -7, -11)


def _rand_elt(rng, d, box=40):
    while True:
        u = rng.randint(-box, box)
        v = rng.randint(-box, box)
        if d % 4 == 1:
            u += (u - v) % 2
        else:
            u -= u % 2
            v -= v % 2
        try:
            return QuadInt(u, v, d)
        except ValueError:
            continue


# --- element construction ---------------------------------------------------

def test_parity_validation():
    QuadInt(1, 1, -3)  # (1+sqrt(-3))/2 is a ring element
    QuadInt(1, -1, -7)
    with pytest.raises(ValueError):
        QuadInt(1, 0, -3)
    with pytest.raises(ValueError):
        QuadInt(1, 0, -1)  # no half-integers outside d = 1 mod 4
    with pytest.raises(ValueError):
        QuadInt(1, 1, -2)


def test_constructor_takes_only_integer_coordinates():
    # floats and Fractions are refused, even integral ones; numpy integers
    # become Python ints, so products never wrap at 2^63
    for bad in (2.0, Fraction(4, 2)):
        with pytest.raises(ValueError):
            QuadInt(bad, 0, -1)
        with pytest.raises(ValueError):
            QuadInt(0, bad, -1)
    with pytest.raises(ValueError):
        QuadInt(2, 0, -1.0)
    z = QuadInt(np.int64(2**40), np.int64(2**40), np.int64(-1))
    assert (type(z.u), type(z.v), type(z.d)) == (int, int, int)
    cube = z * z * z
    assert cube == QuadInt(-(2**119), 2**119, -1)  # (2^39*(1+i))^3
    assert cube.normsq() == 2**237


def _coords(d, a, b):
    """Doubled coordinates of the ring's parity from any two integers."""
    if d % 4 == 1:
        return a, a + 2 * b
    return 2 * a, 2 * b


def _tick_count(fn):
    before = RING_OPS.ops
    out = fn()
    return out, RING_OPS.ops - before


def _valid(z, d):
    return (type(z.u) is int and type(z.v) is int and z.d == d
            and _parity_ok(z.u, z.v, d) and z == QuadInt(z.u, z.v, d))


BIG = st.integers(-(2**200), 2**200)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ALL_D), BIG, BIG, BIG, BIG, BIG)
def test_unchecked_results_are_valid_elements(d, a1, a2, b1, b2, n):
    # every arithmetic result is built without validation: it must be the
    # element the validating constructor builds, and tick as many ring
    # operations as each operation always has
    x, y = QuadInt(*_coords(d, a1, a2), d), QuadInt(*_coords(d, b1, b2), d)
    cases = [
        (lambda: x + y, 1), (lambda: x - y, 1), (lambda: x * y, 1),
        (lambda: -x, 0), (lambda: x.conj(), 0),
        (lambda: x + n, 1), (lambda: n + x, 1), (lambda: x - n, 1),
        (lambda: n - x, 1), (lambda: x * n, 1), (lambda: n * x, 1),
    ]
    for fn, ticks in cases:
        z, used = _tick_count(fn)
        assert _valid(z, d) and used == ticks
    assert x + n == x + QuadInt(2 * n, 0, d) and n - x == QuadInt(2 * n, 0, d) - x
    if y:
        (q, r), used = _tick_count(lambda: quad_div(x, y))
        assert _valid(q, d) and _valid(r, d) and used == 4
        assert q * y + r == x
    w = x * x
    root, used = _tick_count(lambda: quad_sqrt(w))
    assert root is not None and _valid(root, d) and root * root == w
    # its own tick, three int_sqrt ticks (the norm and both coordinates),
    # then one squaring per sign of v tried, +v first
    assert used == (1 if not w else 5 if root.v >= 0 else 6)
    other = QuadInt(2, 0, ALL_D[(ALL_D.index(d) + 1) % len(ALL_D)])
    for fn in (lambda: x + other, lambda: x - other, lambda: x * other,
               lambda: other - x, lambda: quad_div(x, other)):
        with pytest.raises(ValueError):
            fn()


def test_whole_coordinate_helpers():
    z = QuadInt.from_parts(3, -2, -7)
    assert (z.u, z.v) == (6, -4)
    assert z.normsq() == 9 + 7 * 4
    assert z.conj() == QuadInt.from_parts(3, 2, -7)


def test_half_integer_norm():
    w = QuadInt(1, 1, -3)
    assert w.normsq() == 1
    assert is_unit(w, quad_ring(-3))


def test_arithmetic_and_int_coercion():
    z = QuadInt.from_parts(2, 1, -1)
    assert z * z.conj() == QuadInt.from_parts(5, 0, -1)
    assert 3 + z == QuadInt.from_parts(5, 1, -1)
    assert z - 1 == QuadInt.from_parts(1, 1, -1)
    assert 2 * z == QuadInt.from_parts(4, 2, -1)
    with pytest.raises(ValueError):
        z + QuadInt.from_parts(1, 1, -2)


# --- Euclidean division -----------------------------------------------------

def test_quad_div_known_cases():
    # (7+3i) / (2+i): quotient 3, remainder 1
    q, r = quad_div(QuadInt.from_parts(7, 3, -1), QuadInt.from_parts(2, 1, -1))
    assert q == QuadInt.from_parts(3, 0, -1)
    assert r == QuadInt.from_parts(1, 0, -1)
    # exact factorization 5 = (1+2i)(1-2i)
    q, r = quad_div(QuadInt.from_parts(5, 0, -1), QuadInt.from_parts(1, 2, -1))
    assert q == QuadInt.from_parts(1, -2, -1) and not r
    # division by 1 is the identity
    z = QuadInt.from_parts(9, -4, -11)
    q, r = quad_div(z, QuadInt.one(-11))
    assert q == z and not r


def test_quad_div_half_coordinate_tie():
    # sqrt(-3) / 2 has the rational coordinate exactly between -1/2 and 1/2;
    # the tie resolves to the smaller doubled coordinate.
    q, r = quad_div(QuadInt(0, 2, -3), QuadInt(4, 0, -3))
    assert q == QuadInt(-1, 1, -3)
    assert r == QuadInt(2, 0, -3)
    assert 16 * r.normsq() <= 15 * QuadInt(4, 0, -3).normsq()


def test_quad_div_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        quad_div(QuadInt.one(-1), QuadInt.zero(-1))


@settings(max_examples=300)
@given(
    st.sampled_from(ALL_D),
    st.integers(-60, 60), st.integers(-60, 60),
    st.integers(-60, 60), st.integers(-60, 60),
)
def test_quad_div_postcondition(d, au, av, bu, bv):
    rng_fix = lambda u, v: (u + ((u - v) % 2), v) if d % 4 == 1 else (u - u % 2, v - v % 2)
    au, av = rng_fix(au, av)
    bu, bv = rng_fix(bu, bv)
    a, b = QuadInt(au, av, d), QuadInt(bu, bv, d)
    if not b:
        return
    q, r = quad_div(a, b)
    assert q * b + r == a
    num, den = DIV_NORM_BOUND[d]
    assert den * r.normsq() <= num * b.normsq()
    # determinism, bit for bit
    q2, r2 = quad_div(a, b)
    assert q == q2 and r == r2


def test_int_div_nearest():
    assert ring_div(7, 2, RING_Z) == (3, 1)
    assert ring_div(-7, 2, RING_Z) == (-4, 1)
    assert ring_div(7, -2, RING_Z) == (-4, -1)
    for a in range(-30, 30):
        for b in (1, 2, 3, -5, 7):
            q, r = ring_div(a, b, RING_Z)
            assert q * b + r == a and 2 * abs(r) <= abs(b)


def test_int_div_matches_gaussian_div():
    # Z rounds as quad_div does on real inputs, so Z chains are Z[i] chains
    for a in range(-60, 61):
        for m in range(1, 13):
            for b in (m, -m):
                q, r = quad_div(QuadInt.from_parts(a, 0, -1), QuadInt.from_parts(b, 0, -1))
                assert ring_div(a, b, RING_Z) == (q.u // 2, r.u // 2)
                assert q.v == 0 and r.v == 0


# --- square roots -----------------------------------------------------------

def test_int_sqrt_values():
    assert int_sqrt(0) == 0
    assert int_sqrt(144) == 12
    assert int_sqrt(2) is None
    assert floor_sqrt(2) == 1
    with pytest.raises(ValueError):
        int_sqrt(-1)


def test_quad_sqrt_values():
    assert quad_sqrt(QuadInt.from_parts(0, 2, -1)) == QuadInt.from_parts(1, 1, -1)
    assert quad_sqrt(QuadInt.from_parts(-4, 0, -1)) == QuadInt.from_parts(0, 2, -1)
    assert quad_sqrt(QuadInt.from_parts(3, 4, -1)) == QuadInt.from_parts(2, 1, -1)
    assert quad_sqrt(QuadInt.from_parts(3, 0, -1)) is None
    assert quad_sqrt(QuadInt.from_parts(1, 2, -1)) is None
    # ((1+sqrt(-3))/2)^2 = (-1+sqrt(-3))/2
    assert quad_sqrt(QuadInt(-1, 1, -3)) == QuadInt(1, 1, -3)


def test_quad_sqrt_roundtrip_random():
    rng = random.Random(11)
    for d in ALL_D:
        for _ in range(200):
            z = _rand_elt(rng, d)
            got = quad_sqrt(z * z)
            assert got in (z, -z)


def test_quad_sqrt_complete_on_small_box():
    # every square in the box is recognized, nothing else is
    for d in (-1, -3):
        squares = set()
        for u in range(-12, 13):
            for v in range(-12, 13):
                try:
                    z = QuadInt(u, v, d)
                except ValueError:
                    continue
                squares.add(z * z)
        for u in range(-20, 21):
            for v in range(-20, 21):
                try:
                    w = QuadInt(u, v, d)
                except ValueError:
                    continue
                got = quad_sqrt(w)
                if w in squares:
                    assert got is not None and got * got == w
                elif got is not None:
                    assert got * got == w  # a square from outside the box


# --- units, gcd, inverse ----------------------------------------------------

def test_units_per_ring():
    assert [len(units(d)) for d in ALL_D] == [4, 2, 6, 2, 2]
    for d in ALL_D:
        for mu in units(d):
            assert mu.normsq() == 1


def test_canonical_associate_stability():
    rng = random.Random(5)
    for d in ALL_D:
        for _ in range(50):
            z = _rand_elt(rng, d)
            reps = {canonical_associate(z * mu) for mu in units(d)}
            assert len(reps) == 1


def test_ring_gcd_values():
    assert ring_gcd(6, 4, RING_Z) == 2
    assert ring_gcd(0, -5, RING_Z) == 5
    g = ring_gcd(QuadInt.from_parts(1, 1, -1), QuadInt.from_parts(2, 0, -1), RING_ZI)
    assert g.normsq() == 2  # an associate of 1+i
    assert exact_div(QuadInt.from_parts(2, 0, -1), g, RING_ZI) is not None
    gp = ring_gcd(Poly([-1, 0, 1]), Poly([-1, 1]), RING_ZX)
    assert gp == Poly([-1, 1])  # monic normalization
    with pytest.raises(ValueError):
        ring_gcd(0, 0, RING_Z)


def test_mod_inverse_values():
    w = mod_inverse(QuadInt.from_parts(2, 0, -1), QuadInt.from_parts(3, 2, -1), RING_ZI)
    assert w == QuadInt.from_parts(-1, -1, -1)
    s = QuadInt.from_parts(3, 2, -1)
    assert not reduce_mod(QuadInt.from_parts(2, 0, -1) * w - 1, s, RING_ZI)
    assert mod_inverse(1, 17, RING_Z) == 1
    assert mod_inverse(Poly([0, 1]), Poly([1, 0, 1]), RING_ZX) == Poly([0, -1])
    with pytest.raises(InvalidInstanceError):
        mod_inverse(2, 4, RING_Z)


def test_mod_inverse_randomized():
    rng = random.Random(23)
    for ring in (RING_Z, RING_ZI, quad_ring(-3), quad_ring(-7)):
        done = 0
        while done < 150:
            if ring.is_int:
                s = rng.randint(2, 10**6)
                r = rng.randint(1, s - 1)
            else:
                s = _rand_elt(rng, ring.d, 50)
                r = _rand_elt(rng, ring.d, 20)
                if not s or not r or is_unit(s, ring):
                    continue
            try:
                w = mod_inverse(r, s, ring)
            except InvalidInstanceError:
                continue
            assert not reduce_mod(r * w - (1 if ring.is_int else QuadInt.one(ring.d)),
                                  s, ring)
            done += 1


# --- generic dispatch -------------------------------------------------------

def test_ring_names_roundtrip():
    for name in ("z", "zi", "q-2", "q-3", "q-7", "q-11", "zx"):
        assert ring_from_name(name).name == name
    assert ring_from_name("zi") is RING_ZI
    with pytest.raises(ValueError):
        ring_from_name("q-5")
    with pytest.raises(ValueError):
        quad_ring(-5)


def test_coerce_element():
    assert coerce_element(7, RING_ZI) == QuadInt.from_parts(7, 0, -1)
    assert coerce_element(3, RING_ZX) == Poly.constant(3)
    for z in (QuadInt.from_parts(2, 0, -1), QuadInt.from_parts(1, 1, -1)):
        with pytest.raises(ValueError):
            coerce_element(z, RING_Z)
    with pytest.raises(ValueError):
        coerce_element(QuadInt.from_parts(1, 1, -2), RING_ZI)


def test_exact_div():
    assert exact_div(QuadInt.from_parts(5, 0, -1),
                     QuadInt.from_parts(1, 2, -1), RING_ZI) == QuadInt.from_parts(1, -2, -1)
    assert exact_div(QuadInt.from_parts(5, 1, -1),
                     QuadInt.from_parts(1, 2, -1), RING_ZI) is None
    assert exact_div(Poly([-1, 0, 1]), Poly([1, 1]), RING_ZX) == Poly([-1, 1])


def test_integer_exact_div():
    # exact quotients by floor division: one tick per call, whatever the
    # signs, and the quotient ring_div's nearest rounding gives
    rng = random.Random(19)
    for _ in range(2000):
        b = rng.choice([-1, 1]) * rng.randint(1, 10**6)
        a = b * rng.randint(-(10**6), 10**6) + rng.choice([0, 0, rng.randint(-(10**6), 10**6)])
        q, r = ring_div(a, b, RING_Z)
        got, used = _tick_count(lambda: exact_div(a, b, RING_Z))
        assert got == (q if r == 0 else None) and used == 1
    assert exact_div(0, -7, RING_Z) == 0
    with pytest.raises(ZeroDivisionError):
        exact_div(5, 0, RING_Z)


def test_ring_sqrt_dispatch():
    assert ring_sqrt(49, RING_Z) == 7
    assert ring_sqrt(-4, RING_Z) is None
    assert ring_sqrt(Poly([1, 2, 1]), RING_ZX) in (Poly([1, 1]), Poly([-1, -1]))


def test_op_counter_ticks():
    RING_OPS.reset()
    assert RING_OPS.ops == 0
    quad_div(QuadInt.from_parts(7, 3, -1), QuadInt.from_parts(2, 1, -1))
    assert RING_OPS.ops > 0

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resdiv import polynomials
from resdiv.base import MINUS_INFINITY
from resdiv.polynomials import Poly, poly_div, poly_sqrt


def test_zero_polynomial_basics():
    z = Poly.zero()
    assert not z
    assert z.degree is MINUS_INFINITY
    assert z == Poly([0, 0, 0])
    assert z + Poly([1, 2]) == Poly([1, 2])


def test_trailing_zeros_normalized():
    assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
    assert Poly([Fraction(2, 2)]).coeffs == (1,)  # Fractions collapse to int


def test_degree_lead_monic():
    p = Poly([3, 0, 2])
    assert p.degree == 2 and p.lead == 2
    assert p.lead != 1
    assert Poly([7, 1]).lead == 1
    assert Poly([1, Fraction(1, 2)]).is_integral() is False


def test_arithmetic_known_products():
    x = Poly.x()
    assert (x + 1) * (x - 1) == x**2 - 1
    assert (x + 1) ** 2 == Poly([1, 2, 1])
    assert (2 * x + 1) * (x + 1) == Poly([1, 3, 2])
    assert x * x**3 == Poly([0, 0, 0, 0, 1])


_rationals = st.fractions(min_value=-40, max_value=40, max_denominator=15)
_coeff_lists = st.one_of(st.lists(_rationals, max_size=7),
                         st.lists(st.integers(-60, 60), max_size=7))


def _ref(cs):
    """Fraction-per-coefficient reference: trailing zeros stripped."""
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _ref_div(a, b):
    """Schoolbook long division of Fraction lists, b nonzero."""
    rem, n = list(a), len(b) - 1
    q = [Fraction(0)] * max(len(a) - n, 0)
    for top in range(len(a) - 1, n - 1, -1):
        f = rem[top] / b[-1]
        q[top - n] = f
        for j, c in enumerate(b):
            rem[top - n + j] -= f * c
    return _ref(q), _ref(rem)


def _assert_canonical(p):
    assert p.den > 0 and gcd(p.den, *p.nums) == 1
    assert p.nums[-1] != 0 if p.nums else p.den == 1
    assert p.coeffs == tuple(Fraction(v, p.den) for v in p.nums)
    assert all(type(c) is int or c.denominator > 1 for c in p.coeffs)


@settings(max_examples=300)
@given(_coeff_lists, _coeff_lists, st.sampled_from((0, 1, -1, 2, 3, Fraction(-1, 2))))
def test_arithmetic_matches_fraction_reference(ac, bc, x0):
    a, b = Poly(ac), Poly(bc)
    ra, rb = _ref(ac), _ref(bc)
    prod = [Fraction(0)] * max(len(ra) + len(rb) - 1, 0)
    for i, ca in enumerate(ra):
        for j, cb in enumerate(rb):
            prod[i + j] += ca * cb
    n = max(len(ra), len(rb))
    pad_a, pad_b = ra + [0] * (n - len(ra)), rb + [0] * (n - len(rb))
    results = [(a + b, [u + v for u, v in zip(pad_a, pad_b)]),
               (a - b, [u - v for u, v in zip(pad_a, pad_b)]),
               (a * b, prod)]
    if rb:
        results += zip(poly_div(a, b), _ref_div(ra, rb))
    for p, want in results:
        _assert_canonical(p)
        assert list(p.coeffs) == _ref(want)
    for p in (a, b, a + b, a * b):
        assert p(x0) == sum(c * Fraction(x0) ** i for i, c in enumerate(p.coeffs))
    assert poly_sqrt(a * a) in (a, -a)
    # == and hash agree with coefficient equality, whatever the path
    for p, other in ((a, b), (a, Poly(a.coeffs)), (a * b, b * a), (a - b, -(b - a))):
        assert (p == other) == (p.coeffs == other.coeffs)
        if p == other:
            assert hash(p) == hash(other)


class _NoFraction:
    def __new__(cls, *args, **kwargs):
        raise AssertionError("Fraction built inside polynomial arithmetic")


def test_arithmetic_builds_no_fraction(monkeypatch):
    """+, -, *, poly_div, poly_sqrt and == on rational polynomials run on
    integers alone: with Fraction made unconstructible in the module they
    still run, and agree with the results taken before."""
    a = Poly([Fraction(1, 3), Fraction(-5, 2), 0, Fraction(7, 4)])
    b = Poly([Fraction(-1, 5), Fraction(3, 2)])
    c = Poly([2, -3, 6])
    cases = (lambda: a + b, lambda: a - b, lambda: b - 1, lambda: -a,
             lambda: a * b, lambda: 3 * a, lambda: a * c,
             lambda: poly_div(a, b), lambda: poly_div(a, c), lambda: poly_div(c, b),
             lambda: poly_sqrt(b * b), lambda: poly_sqrt(a), lambda: poly_sqrt(c * c),
             lambda: a == b, lambda: a * b == b * a)
    before = [f() for f in cases]
    monkeypatch.setattr(polynomials, "Fraction", _NoFraction)
    assert [f() for f in cases] == before


def test_poly_div_examples():
    # (x^3+1) / x^2 -> q = x, r = 1
    q, r = poly_div(Poly([1, 0, 0, 1]), Poly([0, 0, 1]))
    assert q == Poly.x() and r == Poly.one()
    # anything / 1 divides exactly
    p = Poly([3, -2, 5])
    q, r = poly_div(p, Poly.one())
    assert q == p and not r
    # (2x^2+3x+1) / (2x+1) -> q = x+1, r = 0
    q, r = poly_div(Poly([1, 3, 2]), Poly([1, 2]))
    assert q == Poly([1, 1]) and not r
    # negative and non-unit leading coefficients, rational divisors
    a = Poly([Fraction(1, 2), -4, 0, 3, Fraction(-2, 7)])
    for b in (Poly([1, -3]), Poly([Fraction(-1, 5), Fraction(3, 2)]),
              Poly.constant(-6), Poly.constant(Fraction(2, 3))):
        q, r = poly_div(a, b)
        assert (list(q.coeffs), list(r.coeffs)) == _ref_div(_ref(a.coeffs), _ref(b.coeffs))
        assert q * b + r == a and r.degree < b.degree
    # x^3 - 1 over -3x + 1: q = -(1/3)x^2 - (1/9)x - 1/27, r = -26/27
    q, r = poly_div(Poly([-1, 0, 0, 1]), Poly([1, -3]))
    assert q == Poly([Fraction(-1, 27), Fraction(-1, 9), Fraction(-1, 3)])
    assert r == Fraction(-26, 27)
    # dividend of lower degree than the divisor: q = 0, r = a
    q, r = poly_div(Poly([Fraction(1, 2), 5]), Poly([1, 0, -3]))
    assert not q and r == Poly([Fraction(1, 2), 5])


def test_poly_div_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        poly_div(Poly.one(), Poly.zero())


@given(
    st.lists(st.integers(-50, 50), min_size=1, max_size=7),
    st.lists(st.integers(-50, 50), min_size=1, max_size=7),
)
def test_poly_div_postcondition(ac, bc):
    a, b = Poly(ac), Poly(bc)
    if not b:
        return
    q, r = poly_div(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


@given(
    st.lists(st.integers(-30, 30), min_size=1, max_size=6),
    st.lists(st.integers(-30, 30), min_size=1, max_size=5),
)
def test_poly_div_monic_integral(ac, bc):
    """Integral dividend over a monic integral divisor stays integral."""
    a = Poly(ac)
    b = Poly(bc + [1])
    q, r = poly_div(a, b)
    assert q.is_integral() and r.is_integral()
    assert q * b + r == a


def test_poly_sqrt_examples():
    assert poly_sqrt(Poly([1, 2, 1])) in (Poly([1, 1]), Poly([-1, -1]))
    got = poly_sqrt(Poly([9, 12, 10, 4, 1]))
    assert got in (Poly([3, 2, 1]), Poly([-3, -2, -1]))
    assert poly_sqrt(Poly([1, 1, 1])) is None


def test_poly_sqrt_edge_shapes():
    assert poly_sqrt(Poly.zero()) == Poly.zero()
    assert poly_sqrt(Poly.constant(4)) == Poly.constant(2)
    assert poly_sqrt(Poly.constant(5)) is None
    # odd degree can never be a square
    assert poly_sqrt(Poly([0, 0, 0, 1])) is None
    # zero constant term: even power of x strips off
    p = Poly([2, 1])
    assert poly_sqrt(p * p * Poly([0, 0, 1])) == p * Poly.x()
    assert poly_sqrt(Poly([0, 1, 1])) is None  # x*(x+1) has an odd x-power


def test_poly_sqrt_rational_coefficients():
    # p = P/d is a square in Q[x] exactly when P*d is one in Z[x]
    x = Poly.x()
    for p in (Poly([Fraction(1, 2), 1]), x * Fraction(1, 2) + Fraction(1, 3),
              (x + 1) * Fraction(1, 2)):
        assert poly_sqrt(p * p) in (p, -p)
    assert poly_sqrt(Poly([0, 0, 0, 0, Fraction(9, 4)])) == Poly([0, 0, Fraction(3, 2)])
    for p in (2 * (x + 1) ** 2, Poly([0, 0, Fraction(3, 4)]), -((x + 1) ** 2), x**3):
        assert poly_sqrt(p) is None


@settings(max_examples=200)
@given(st.lists(st.integers(-100, 100), min_size=1, max_size=10))
def test_poly_sqrt_roundtrip_monic(coeffs):
    p = Poly(coeffs + [1])
    got = poly_sqrt(p * p)
    assert got in (p, -p)


def test_poly_sqrt_rejects_perturbations():
    rng = random.Random(7)
    for _ in range(100):
        p = Poly([rng.randint(-40, 40) for _ in range(rng.randint(1, 6))] + [1])
        sq = p * p + Poly([0, rng.randint(1, 9)])
        assert poly_sqrt(sq) is None or poly_sqrt(sq) ** 2 == sq


def test_str_canonical_forms():
    assert str(Poly.zero()) == "0"
    assert str(Poly([1, 2, 1])) == "1 + 2*x + x^2"
    assert str(Poly([0, -1])) == "-x"
    assert str(Poly([Fraction(1, 2), 0, -3])) == "1/2 - 3*x^2"

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    assert not p.is_monic()
    assert Poly([7, 1]).is_monic()
    assert Poly([1, Fraction(1, 2)]).is_integral() is False


def test_arithmetic_known_products():
    x = Poly.x()
    assert (x + 1) * (x - 1) == x**2 - 1
    assert (x + 1) ** 2 == Poly([1, 2, 1])
    assert (2 * x + 1) * (x + 1) == Poly([1, 3, 2])
    assert x.shifted(3) == Poly.monomial(1, 4)


_rationals = st.fractions(min_value=-40, max_value=40, max_denominator=15)


@settings(max_examples=200)
@given(st.lists(_rationals, max_size=7), st.lists(_rationals, max_size=7),
       st.sampled_from((0, 1, -1, 2, 3, Fraction(-1, 2))))
def test_rational_product_and_evaluation(ac, bc, x0):
    a, b = Poly(ac), Poly(bc)
    # the coefficient-by-coefficient Fraction convolution is the reference
    ref = [Fraction(0)] * max(len(ac) + len(bc) - 1, 0)
    for i, ca in enumerate(ac):
        for j, cb in enumerate(bc):
            ref[i + j] += ca * cb
    prod = a * b
    assert prod == Poly(ref)
    assert all(type(c) is int or c.denominator > 1 for c in prod.coeffs)
    assert prod(x0) == a(x0) * b(x0)
    assert (a + b)(x0) == a(x0) + b(x0)


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
    assert poly_sqrt((p * p).shifted(2)) is not None
    assert poly_sqrt(Poly([0, 1, 1])) is None  # x*(x+1) has an odd x-power


def test_poly_sqrt_rational_coefficients():
    p = Poly([Fraction(1, 2), 1])
    got = poly_sqrt(p * p)
    assert got in (p, -p)


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

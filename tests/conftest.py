"""Shared fixtures: planted-instance corpora.

Every corpus instance is built as N = (S*x + r)*(S*y + r2) from randomly
drawn coordinates, so each carries a known solution pair.  build_instance
reduces r (and computes rPrime as its own reduced representative), which
shifts the planted coordinates; the builders return the shifted pair so
tests can assert recovery directly.
"""

from __future__ import annotations

import importlib.util
import math
import random
import sys
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest
import sympy

from resdiv.base import InvalidInstanceError
from resdiv.families import cohen_instance, seven_signed_instance, standalone_instance
from resdiv.polynomials import Poly
from resdiv.remseq import build_instance
from resdiv.rings import RING_ZX, QuadInt, exact_div, is_unit, quad_ring
from resdiv.solver import _disc_coeffs

CORPUS_SEED = 20260815
GENERAL_DS = (-2, -3, -7, -11)

_X = sympy.symbols("x")


def rand_quad(rng: random.Random, d: int, ns_lo: int, ns_hi: int) -> QuadInt:
    """Nonzero element with normsq roughly log-uniform in [ns_lo, ns_hi]."""
    for _ in range(200):
        target = int(math.exp(rng.uniform(math.log(ns_lo), math.log(ns_hi))))
        a = rng.randint(-isqrt(target), isqrt(target))
        rem = max(target - a * a, 0) // -d
        b = rng.choice((1, -1)) * isqrt(rem)
        if d % 4 == 1 and rng.random() < 0.5:
            z = QuadInt(2 * a + 1, 2 * b + 1, d)
        else:
            z = QuadInt(2 * a, 2 * b, d)
        if z and ns_lo <= z.normsq() <= ns_hi:
            return z
    raise RuntimeError("rand_quad exhausted")


def rand_quad_disk(rng: random.Random, d: int, ns_max: int) -> QuadInt:
    """Nonzero element with normsq <= ns_max."""
    for _ in range(500):
        um = isqrt(4 * ns_max)
        vm = isqrt(4 * ns_max // -d)
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
    raise RuntimeError("rand_quad_disk exhausted")


def plant_quad(rng: random.Random, d: int, ns_lo: int, ns_hi: int):
    """One gate-satisfying instance with a planted solution pair."""
    ring = quad_ring(d)
    while True:
        s_el = rand_quad(rng, d, ns_lo, ns_hi)
        if is_unit(s_el, ring):
            continue
        n_s = s_el.normsq()
        r_el = rand_quad_disk(rng, d, max(n_s // 2, 1))
        r2_el = rand_quad_disk(rng, d, max(n_s // 2, 1))
        coord_cap = max(isqrt(n_s) // 4, 2)
        x_el = rand_quad_disk(rng, d, coord_cap)
        y_el = rand_quad_disk(rng, d, coord_cap)
        if rng.random() < 0.04:
            x_el = QuadInt(0, 0, d)
        dv = s_el * x_el + r_el
        cof = s_el * y_el + r2_el
        if not dv or not cof:
            continue
        n_el = dv * cof
        if n_el.normsq() >= n_s**3:
            continue
        try:
            inst = build_instance(ring, n_el, s_el, r_el)
        except InvalidInstanceError:
            continue
        assert inst.gate_ok
        x_shift = exact_div(r_el - inst.r, s_el, ring)
        y_shift = exact_div(r2_el - inst.rPrime, s_el, ring)
        assert x_shift is not None and y_shift is not None
        return inst, (x_el + x_shift, y_el + y_shift)


def rand_poly(rng: random.Random, deg: int, height: int,
              monic: bool = False) -> Poly:
    coeffs = [rng.randint(-height, height) for _ in range(deg + 1)]
    coeffs[-1] = 1 if monic else (coeffs[-1] or rng.choice((1, -1)))
    return Poly(coeffs)


def plant_poly(rng: random.Random, max_deg_s: int = 6, height: int = 50):
    """Planted Z[x] instance; deg f + deg g <= deg S keeps the gate exact."""
    while True:
        deg_s = rng.randint(2, max_deg_s)
        s_el = rand_poly(rng, deg_s, height, monic=rng.random() < 0.5)
        r_el = rand_poly(rng, rng.randint(0, deg_s - 1), height)
        r2_el = rand_poly(rng, rng.randint(0, deg_s - 1), height)
        deg_f = rng.randint(0, deg_s)
        deg_g = rng.randint(0, deg_s - deg_f)
        f_el = rand_poly(rng, deg_f, 8)
        g_el = rand_poly(rng, deg_g, 8)
        if rng.random() < 0.05:
            f_el = Poly.zero()
        dv = s_el * f_el + r_el
        cof = s_el * g_el + r2_el
        if not dv or not cof:
            continue
        n_el = dv * cof
        if 3 * s_el.degree < n_el.degree:
            continue
        try:
            inst = build_instance(RING_ZX, n_el, s_el, r_el)
        except InvalidInstanceError:
            continue
        x_shift = exact_div(r_el - inst.r, s_el, RING_ZX)
        y_shift = exact_div(r2_el - inst.rPrime, s_el, RING_ZX)
        assert x_shift is not None and y_shift is not None
        return inst, (f_el + x_shift, g_el + y_shift)


def plant_rational(rng: random.Random, s_lo: int = 50, s_hi: int = 5000):
    """Planted plain-integer instance with S**3 > N."""
    while True:
        s = rng.randint(s_lo, s_hi)
        r = rng.randint(1, s - 1)
        r2 = rng.randint(1, s - 1)
        cap = max(isqrt(s) // 2, 1)
        x = rng.randint(-cap, cap)
        y = rng.randint(-cap, cap)
        dv = s * x + r
        cof = s * y + r2
        n = dv * cof
        if n == 0 or abs(n) >= s**3:
            continue
        if math.gcd(n, s) != 1 or math.gcd(r, s) != 1:
            continue
        return n, s, r, dv


def sqrt_rational(c):
    """Exact square root of a nonnegative rational (int or Fraction), or
    None: the reference for the package's integer square tests."""
    if c < 0:
        return None
    c = Fraction(c)
    sn, sd = isqrt(c.numerator), isqrt(c.denominator)
    if sn * sn == c.numerator and sd * sd == c.denominator:
        root = Fraction(sn, sd)
        return root.numerator if root.denominator == 1 else root
    return None


def fold_rational(E, F, G, m) -> tuple[int, int, int]:
    """The Fraction reference for RowSystem's folded images: (L*e, L*f*m,
    L*g*m^2) for rationals (E, F, G) = (e, f, g)/L over integers, L > 0
    their least common denominator.  D(n/m) = E*(n/m)^2 + F*(n/m) + G is a
    rational square exactly when (L*e*n + L*f*m)*n + L*g*m^2 =
    L^2*m^2*D(n/m) is an integer square."""
    den = math.lcm(E.denominator, F.denominator, G.denominator)
    return (E.numerator * (den // E.denominator) * den,
            F.numerator * (den // F.denominator) * den * m,
            G.numerator * (den // G.denominator) * den * m * m)


def row_coeffs(row):
    """(E, F, G) with D(lam) = E*lam^2 + F*lam + G, exactly in the ring, of
    a solver.RowSystem: the solver's formulas on the instance's terms and
    the row's.  No search forms them; fastscan sieves on their images in
    F_p, and the tests compare with these."""
    return _disc_coeffs(row.c, row.inst.terms.ring, row._terms)


def family_triples() -> list[tuple[int, int, int]]:
    """(N, S, r) of the 38 integer family instances: the standalone record,
    cohen levels 3..20 and seven-signed bases 2..20."""
    fams = [standalone_instance()] + [cohen_instance(lv) for lv in range(3, 21)]
    fams += [seven_signed_instance(base) for base in range(2, 21)]
    return [(fi.N, fi.S, fi.r) for fi in fams]


def perfbench_module(name: str):
    """perfbench/<name>.py, loaded by path once (perfbench is a directory
    of scripts, not a package)."""
    key = f"perfbench_{name}"
    if key not in sys.modules:
        path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
        spec = importlib.util.spec_from_file_location(key, path)
        sys.modules[key] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[key])
    return sys.modules[key]


def sympy_norm_factors(n: int) -> dict[int, int]:
    return {int(p): int(e) for p, e in sympy.factorint(n).items()}


def sympy_poly_factors(p: Poly):
    """(content, ((ascending coeffs, exponent), ...)) of an integral Poly."""
    sp = sympy.Poly(list(reversed([int(c) for c in p.coeffs])), _X)
    cont, prim = sp.primitive()
    const, pairs = sympy.factor_list(prim)
    content = abs(int(cont * const))
    factors = tuple(
        (tuple(int(c) for c in reversed(f.all_coeffs())), int(e))
        for f, e in pairs
    )
    return content, factors


@pytest.fixture(scope="session")
def zi_corpus():
    rng = random.Random(CORPUS_SEED)
    return [plant_quad(rng, -1, 100, 10**6) for _ in range(200)]


@pytest.fixture(scope="session")
def general_corpora():
    out = {}
    for d in GENERAL_DS:
        rng = random.Random(CORPUS_SEED + d)
        out[d] = [plant_quad(rng, d, 30, 1000) for _ in range(200)]
    return out


@pytest.fixture(scope="session")
def poly_corpus():
    rng = random.Random(CORPUS_SEED + 1)
    return [plant_poly(rng) for _ in range(200)]


@pytest.fixture(scope="session")
def z_corpus():
    rng = random.Random(CORPUS_SEED + 2)
    return [plant_rational(rng) for _ in range(200)]

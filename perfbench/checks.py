"""Output checks, run after the clock stops.

Every reported divisor is re-verified with arithmetic that does not go
through the package's element classes: doubled-coordinate integer tuples
for the quadratic rings, sympy for Z[x], plain ints for Z.  Planted
divisors must appear in the report, family instances must meet their
promised counts, and every instance the resdiv.oracle functions cover is
compared against them in full.  check_item returns None on success and a
one-line reason otherwise.
"""

from __future__ import annotations

import math

import sympy

from resdiv.oracle import (
    RATIONAL_LIMIT,
    oracle_poly,
    oracle_quadratic,
    oracle_quadratic_factored,
    oracle_rational,
)

from workloads import SEARCH_CHECKS, SEARCH_TARGET, Item

# the x-scan oracle is complete up to this normsq(S) at its default factor
XSCAN_MAX_NORM_S = 1087
# normsq(N) small enough for sympy to factor in milliseconds
FACTOR_MAX_NORM_N = 10**27

_X = sympy.symbols("x")


def _qdiv(a, b, d):
    """a/b for doubled coordinates (u, v) of (u + v*sqrt(d))/2, or None
    when b does not divide a in the ring."""
    n4 = b[0] * b[0] - d * b[1] * b[1]
    if n4 == 0:
        return None
    wu = 2 * (a[0] * b[0] - d * a[1] * b[1])
    wv = 2 * (a[1] * b[0] - a[0] * b[1])
    if wu % n4 or wv % n4:
        return None
    qu, qv = wu // n4, wv // n4
    ok = (qu - qv) % 2 == 0 if d % 4 == 1 else qu % 2 == 0 and qv % 2 == 0
    return (qu, qv) if ok else None


def _quad_divisor_ok(dv, inst) -> bool:
    d = inst.ring.d
    n, s = (inst.N.u, inst.N.v), (inst.S.u, inst.S.v)
    t = (dv.u, dv.v)
    cof = _qdiv(n, t, d)
    if cof is None:
        return False
    if _qdiv((t[0] - inst.r.u, t[1] - inst.r.v), s, d) is None:
        return False
    return _qdiv((cof[0] - inst.rPrime.u, cof[1] - inst.rPrime.v), s, d) is not None


def _sym(p):
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in p.coeffs]
    return sympy.Poly(list(reversed(coeffs)) or [0], _X, domain="QQ")


def _zdivides(a, b) -> bool:
    """b | a in Z[x] (b nonzero)."""
    q, rem = a.div(b)
    return rem.is_zero and all(c.is_integer for c in q.all_coeffs())


def _poly_divisor_ok(dv, inst) -> bool:
    if not dv.is_integral():
        return False
    n, s, t = _sym(inst.N), _sym(inst.S), _sym(dv)
    diff = t - _sym(inst.r)
    return _zdivides(n, t) and (diff.is_zero or _zdivides(diff, s))


def _poly_oracle(inst):
    """Every Z[x] divisor in the class, from sympy's factorization, or None
    when the factor lattice is past the oracle's enumeration limit."""
    sp = sympy.Poly(list(reversed([int(c) for c in inst.N.coeffs])), _X)
    cont, prim = sp.primitive()
    const, pairs = sympy.factor_list(prim)
    factors = tuple(
        (tuple(int(c) for c in reversed(f.all_coeffs())), int(e)) for f, e in pairs
    )
    try:
        res = oracle_poly(inst.N.coeffs, inst.S.coeffs, inst.r.coeffs,
                          abs(int(cont * const)), factors)
    except ValueError:
        return None
    return set(res.divisors)


def _check_search(item: Item, rep) -> str | None:
    inst = item.inst
    found = set(rep.divisors)
    if item.planted is not None and item.planted not in found:
        return f"planted divisor {item.planted} missing"
    if inst.ring.is_quad:
        for dv in found:
            if not _quad_divisor_ok(dv, inst):
                return f"reported {dv} is not a divisor in the class"
        oracle = None
        n_s = inst.S.normsq()
        if n_s <= XSCAN_MAX_NORM_S:
            oracle = oracle_quadratic(inst.ring, inst.N, inst.S, inst.r, inst.rPrime)
        elif inst.ring.d == -1 and inst.N.normsq() <= FACTOR_MAX_NORM_N:
            fac = {int(p): int(e) for p, e in sympy.factorint(inst.N.normsq()).items()}
            oracle = oracle_quadratic_factored(inst.N, inst.S, inst.r, fac)
        if oracle is not None and set(oracle.divisors) != found:
            return f"oracle finds {len(oracle.divisors)} divisors, report {len(found)}"
        return None
    for dv in found:
        if not _poly_divisor_ok(dv, inst):
            return f"reported {dv} is not a divisor in the class"
    oracle = _poly_oracle(inst)
    if oracle is not None and oracle != {tuple(dv.coeffs) for dv in found}:
        return f"oracle finds {len(oracle)} divisors, report {len(found)}"
    return None


def _int_divisors_ok(divs, n, s, r) -> bool:
    return all(dv and n % dv == 0 and (dv - r) % s == 0 for dv in divs)


def _check_family(item: Item, rep) -> str | None:
    fi = item.fam
    if not rep.ok:
        return "verify_family reports a mismatch"
    if not _int_divisors_ok(rep.divisors, fi.N, fi.S, fi.r):
        return "reported value is not a divisor in the class"
    if fi.expected_positive is not None and len(rep.positive) != fi.expected_positive:
        return f"{len(rep.positive)} positive divisors, promised {fi.expected_positive}"
    if fi.expected_signed is not None and len(rep.divisors) != fi.expected_signed:
        return f"{len(rep.divisors)} signed divisors, promised {fi.expected_signed}"
    if abs(fi.N) <= RATIONAL_LIMIT and oracle_rational(fi.N, fi.S, fi.r).divisors != rep.divisors:
        return "divisors differ from trial division"
    return None


def _hunt_hits(s: int, r: int) -> tuple[dict[int, int], int]:
    """The record hunt over one modulus, redone by trial division: each
    hit with its positive divisor count, and the number of candidates
    within the check budget."""
    cube = s**3
    hits = {}
    checked = 0
    seen = set()
    for k in range(1, cube):
        rho = k * s + r
        if rho >= cube:
            break
        if math.gcd(s, rho) != 1:
            continue
        for m in range(1, (cube - 1) // rho + 1):
            n = rho * m
            if n < 2 or n in seen:
                continue
            seen.add(n)
            if math.gcd(n, s) != 1:
                continue
            if checked == SEARCH_CHECKS:
                return hits, checked
            checked += 1
            pos = sum(1 for dv in oracle_rational(n, s, r).divisors if dv > 0)
            if pos >= SEARCH_TARGET:
                hits[n] = pos
    return hits, checked


def _check_hunt(item: Item, out) -> str | None:
    hits, checked = _hunt_hits(*item.hunt)
    if out.checked != checked:
        return f"hunt checked {out.checked} candidates, expected {checked}"
    if {h.N: h.expected_positive for h in out.hits} != hits:
        return f"hunt found {len(out.hits)} records, trial division {len(hits)}"
    return None


def check_item(item: Item, out) -> str | None:
    if item.kind == "search":
        return _check_search(item, out)
    if item.kind == "family":
        return _check_family(item, out)
    return _check_hunt(item, out)

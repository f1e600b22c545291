import math
import random
from fractions import Fraction

import pytest
from conftest import (
    GENERAL_DS,
    family_triples,
    fold_rational,
    plant_poly,
    plant_quad,
    plant_rational,
    rand_quad_disk,
    row_coeffs,
    sqrt_rational,
    sympy_poly_factors,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from resdiv import polynomials, solver
from resdiv.algorithms import find_divisors
from resdiv.base import InvalidInstanceError
from resdiv.polynomials import Poly
from resdiv.oracle import oracle_poly
from resdiv.remseq import build_chain, build_instance
from resdiv.rings import (
    RING_Z,
    RING_ZX,
    QuadInt,
    exact_div,
    int_sqrt,
    quad_ring,
    reduce_mod,
    ring_sqrt,
)
from resdiv.solver import (
    _EVAL_POINTS,
    FinalRow,
    RowSystem,
    SolutionPair,
    _horner,
    candidate_radius,
    enumerate_residues,
    integer_shifts,
    poly_rhs_candidates,
    shift_denominator,
    solve_system,
    trivial_divisor_check,
)


def test_candidate_radius():
    assert candidate_radius(-1) == 12
    for d in GENERAL_DS:
        assert candidate_radius(d) == 530


# --- residue enumeration ------------------------------------------------------

def _brute_residues(c, S, rbound, ring):
    d = ring.d
    limit = rbound * rbound * S.normsq()
    span = 2 * (rbound + 2)
    out = []
    for u in range(-span, span + 1):
        for v in range(-span, span + 1):
            try:
                lam = QuadInt(u, v, d)
            except ValueError:
                continue
            gamma = c + lam * S
            if gamma.normsq() < limit:
                out.append(gamma)
    return sorted(out, key=lambda g: (g.normsq(), g.u, g.v))


def test_enumerate_residues_zero_class():
    ring = quad_ring(-1)
    got = enumerate_residues(QuadInt.zero(-1), QuadInt.from_parts(5, 0, -1), 6, ring)
    assert got == _brute_residues(QuadInt.zero(-1), QuadInt.from_parts(5, 0, -1), 6, ring)
    assert got[0] == QuadInt.zero(-1)
    for z in (QuadInt.from_parts(5, 0, -1), QuadInt.from_parts(-5, 0, -1),
              QuadInt.from_parts(0, 5, -1), QuadInt.from_parts(0, -5, -1)):
        assert z in got
    # every member is in the class of c and inside the norm bound
    for g in got:
        assert not reduce_mod(g, QuadInt.from_parts(5, 0, -1), ring)
        assert g.normsq() < 36 * 25


def test_enumerate_residues_matches_bruteforce():
    rng = random.Random(31)
    for d in (-1, -3, -7):
        ring = quad_ring(d)
        for _ in range(12):
            while True:
                s = rand_quad_disk(rng, d, 200)
                if s and s.normsq() > 2:
                    break
            c = reduce_mod(rand_quad_disk(rng, d, 400), s, ring)
            rbound = rng.randint(3, 7)
            got = enumerate_residues(c, s, rbound, ring)
            assert got == _brute_residues(c, s, rbound, ring)


def test_enumerate_residues_sorted_and_bounded():
    ring = quad_ring(-11)
    s = QuadInt.from_parts(4, 1, -11)
    c = reduce_mod(QuadInt.from_parts(3, 0, -11), s, ring)
    for rbound in (4, 9, 12):
        got = enumerate_residues(c, s, rbound, ring)
        assert got == sorted(got, key=lambda g: (g.normsq(), g.u, g.v))
        assert len(got) <= 4 * (rbound + 1) * (rbound + 1)
        assert len(set(got)) == len(got)


def test_enumerate_residues_rejects_other_rings():
    with pytest.raises(ValueError):
        enumerate_residues(QuadInt.zero(-1), QuadInt.one(-1), 3, RING_Z)


# --- polynomial candidate shifts ----------------------------------------------

def _poly_gammas(shifts, a, b, c, inst):
    m = shift_denominator(a, b, inst)
    return [c + Fraction(n, m) * inst.S for n in shifts]


def test_poly_rhs_requires_poly_instance():
    inst = build_instance(RING_Z, 273, 10, 1)
    with pytest.raises(ValueError):
        poly_rhs_candidates(Poly.constant(1), Poly.constant(1), inst)


def test_poly_rhs_contains_reduced_c_and_stays_in_class():
    inst = build_instance(RING_ZX, Poly([1, 1, 0, 0, 4]), Poly([1, 0, 1]),
                          Poly.constant(1))
    chain = build_chain(inst)
    for k in range(1, chain.t):
        c, a, b = chain.c[k], chain.a[k], chain.b[k]
        shifts = poly_rhs_candidates(a, b, inst)
        cands = _poly_gammas(shifts, a, b, c, inst)
        assert shifts[0] == 0 and cands[0] == c
        assert len(set(map(str, cands))) == len(cands)
        # in the order the search has always visited the gammas in
        assert cands == sorted(cands, key=lambda g: (g.degree if g else -1, g.coeffs))
        for g in cands:
            # any shift above c is a rational-constant multiple of S
            diff = g - c
            if diff:
                assert diff.degree == inst.S.degree
                ratio = Poly.constant(Fraction(diff.lead) / Fraction(inst.S.lead))
                assert ratio * inst.S == diff


def test_poly_rhs_order_matches_gamma_order():
    # S = 2x^3 - 3x: no constant term and a negative lowest coefficient, so
    # the shifts come in descending order; then random plants
    s_el = Poly([0, -3, 0, 2])
    n_el = (s_el * Poly([2, 1]) + 1) * (s_el * Poly([1, -1]) + Poly([1, 1]))
    insts = [build_instance(RING_ZX, n_el, s_el, Poly.constant(1))]
    rng = random.Random(37)
    insts += [plant_poly(rng)[0] for _ in range(30)]
    for inst in insts:
        chain = build_chain(inst)
        for k in range(1, chain.t + 1):
            shifts = poly_rhs_candidates(chain.a[k], chain.b[k], inst)
            cands = _poly_gammas(shifts, chain.a[k], chain.b[k], chain.c[k], inst)
            assert cands == sorted(cands, key=lambda g: (g.degree if g else -1, g.coeffs))
            assert len(set(cands)) == len(cands)
    chain = build_chain(insts[0])
    a, b = chain.a[1], chain.b[1]
    m = shift_denominator(a, b, insts[0])
    assert [Fraction(n, m) for n in poly_rhs_candidates(a, b, insts[0])] == [
        0, Fraction(1, 2), Fraction(-1, 2)]


def test_poly_rhs_empty_lead_list_collapses():
    inst = build_instance(RING_ZX, Poly([1, 1, 0, 0, 2]), Poly([1, 0, 2]),
                          Poly.constant(1))
    assert inst.lead_list == ()
    chain = build_chain(inst)
    k = 1
    assert poly_rhs_candidates(chain.a[k], chain.b[k], inst) == [0]


def test_poly_rhs_covers_planted_row():
    # for a planted pair (f, g) some chain row satisfies
    # a_k*f + b_k*g in candidates(k); that is the sweep's completeness hook
    rng = random.Random(33)
    hits = 0
    for _ in range(40):
        inst, (f, g) = plant_poly(rng)
        if not f or not g:
            continue
        chain = build_chain(inst)
        found = False
        for k in range(chain.t + 1):
            gamma = chain.a[k] * f + chain.b[k] * g
            shifts = poly_rhs_candidates(chain.a[k], chain.b[k], inst)
            if gamma in _poly_gammas(shifts, chain.a[k], chain.b[k], chain.c[k], inst):
                found = True
                break
        assert found
        hits += 1
    assert hits >= 25  # the zero-coordinate plants are the only skips


def _fraction_rhs_candidates(a, b, inst):
    # the shifts as rationals lam, each reduced, sorted by lam*sign(s_k):
    # the formulas of poly_rhs_candidates' docstring, computed in Fractions
    shifts = set()
    l_s = inst.S.lead
    q = inst.N.lead // (l_s * l_s)
    for d_l in inst.lead_list:
        if q % d_l:
            continue
        for num in (a.lead * d_l + b.lead * (q // d_l), a.lead * d_l, b.lead * (q // d_l)):
            if num:
                shifts.add(Fraction(num) / l_s)
    sign = 1 if next(v for v in inst.S.coeffs if v) > 0 else -1
    return [0] + sorted(shifts, key=lambda lam: lam * sign)


def test_poly_rhs_integer_shifts_match_fraction_formula(poly_corpus):
    # n/m of every row's output is the Fraction reference, in the same
    # order, on the criterion-4 Z[x] corpus, whose moduli include negative
    # leads (so m < 0) and whose rows include rational leads (so m is more
    # than lead(S))
    neg_lead = rational_lead = rows = 0
    for inst, _ in poly_corpus:
        neg_lead += inst.S.lead < 0
        chain = build_chain(inst)
        for k in range(1, chain.t + 1):
            a, b = chain.a[k], chain.b[k]
            m = shift_denominator(a, b, inst)
            got = poly_rhs_candidates(a, b, inst)
            assert all(isinstance(n, int) for n in got)
            assert [Fraction(n, m) for n in got] == _fraction_rhs_candidates(a, b, inst)
            rational_lead += abs(m) != abs(inst.S.lead)
            rows += 1
    assert neg_lead >= 40 and 500 <= rational_lead < rows, (neg_lead, rational_lead, rows)


# --- the exact solver -----------------------------------------------------------

def test_solve_system_known_quadratic_row():
    inst = build_instance(RING_Z, 273, 10, 1)
    got = solve_system(1, -3, -1, inst)
    assert set(got) == {SolutionPair(2, 1), SolutionPair(-4, -1)}
    assert got == solve_system(1, -3, -1, inst)  # deterministic
    for x, y in got:
        assert (10 * x + 1) * (10 * y + 3) == 273


def test_solve_system_non_square_discriminant():
    inst = build_instance(RING_Z, 273, 10, 1)
    assert solve_system(1, 1, 0, inst) == []


def test_solve_system_degenerate_rows():
    inst = build_instance(RING_Z, 273, 10, 1)
    assert solve_system(1, 0, 2, inst) == [SolutionPair(2, 1)]
    assert solve_system(0, 1, 1, inst) == [SolutionPair(2, 1)]
    assert solve_system(0, 0, 5, inst) == []
    assert solve_system(1, 0, 3, inst) == []  # 31 does not divide 273


def test_solve_system_recovers_planted_quadratic():
    rng = random.Random(34)
    for d in (-1, -3, -11):
        for _ in range(8):
            inst, (x, y) = plant_quad(rng, d, 50, 5000)
            chain = build_chain(inst)
            for k in range(chain.t + 1):
                a, b = chain.a[k], chain.b[k]
                if not a or not b:
                    continue
                gamma = a * x + b * y
                assert SolutionPair(x, y) in solve_system(a, b, gamma, inst)


def test_solve_system_recovers_planted_poly():
    rng = random.Random(35)
    done = 0
    while done < 12:
        inst, (f, g) = plant_poly(rng)
        chain = build_chain(inst)
        rows = [k for k in range(chain.t + 1) if chain.a[k] and chain.b[k]]
        if not rows:
            continue
        for k in rows:
            gamma = chain.a[k] * f + chain.b[k] * g
            assert SolutionPair(f, g) in solve_system(chain.a[k], chain.b[k], gamma, inst)
        done += 1


def test_solve_system_results_always_verify():
    rng = random.Random(36)
    for _ in range(20):
        inst, _ = plant_quad(rng, -1, 100, 10**5)
        chain = build_chain(inst)
        k = rng.randrange(1, chain.t)
        gamma = rng.choice(enumerate_residues(
            chain.c[k], inst.S, 4, inst.ring))
        for x, y in solve_system(chain.a[k], chain.b[k], gamma, inst):
            assert (inst.S * x + inst.r) * (inst.S * y + inst.rPrime) == inst.N


# --- the row discriminant D(lam) = E*lam^2 + F*lam + G ----------------------------

def _per_gamma_disc(a, b, gamma, inst):
    # A1^2 - 4*A2*A0 built directly from gamma, the way the solver once did
    # for every candidate
    S, r, rp, N = inst.S, inst.r, inst.rPrime, inst.N
    a2 = -(S * S * a)
    a1 = S * S * gamma + S * rp * b - S * r * a
    a0 = S * r * gamma + b * (r * rp - N)
    return a1 * a1 - 4 * a2 * a0


def _planted_rows(rng):
    """(instance, planted pair, random-shift maker) in Z, the five quadratic
    rings and Z[x]."""
    for _ in range(6):
        n, s, r, dv = plant_rational(rng)
        inst = build_instance(RING_Z, n, s, r)
        x = exact_div(dv - inst.r, s, RING_Z)
        y = exact_div(n // dv - inst.rPrime, s, RING_Z)
        yield inst, (x, y), lambda: rng.randint(-40, 40)
    for d in (-1,) + GENERAL_DS:
        for _ in range(4):
            inst, pair = plant_quad(rng, d, 30, 1000)
            yield inst, pair, lambda d=d: rand_quad_disk(rng, d, 900)
    for _ in range(5):
        inst, pair = plant_poly(rng)
        yield inst, pair, lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4))


def test_row_discriminant_matches_per_gamma():
    rng = random.Random(38)
    planted = {}
    for inst, (x, y), rand_shift in _planted_rows(rng):
        ring, S = inst.ring, inst.S
        chain = build_chain(inst)
        for k in range(1, chain.t + 1):
            a, b, c = chain.a[k], chain.b[k], chain.c[k]
            if not a or not b:
                continue
            row = RowSystem(a, b, c, inst)
            E, F, G = row_coeffs(row)
            shifts = [0, rand_shift(), rand_shift()]
            if ring.is_poly:
                shifts += [Fraction(n, row.m) for n in poly_rhs_candidates(a, b, inst)[1:3]]
            else:
                shifts += [rand_shift(), rand_shift()]
            lam_p = exact_div(a * x + b * y - c, S, ring)
            if not ring.is_poly or lam_p.degree <= 0:
                lam_p = lam_p.coeff(0) if ring.is_poly else lam_p
                shifts.append(lam_p)
                assert SolutionPair(x, y) in row.solve(c + lam_p * S)
                planted[ring.name] = planted.get(ring.name, 0) + 1
            for lam in shifts:
                gamma = c + lam * S
                want = _per_gamma_disc(a, b, gamma, inst)
                assert E * lam * lam + F * lam + G == want
                assert row.disc(gamma) == want
                assert row.solve(gamma) == solve_system(a, b, gamma, inst)
                if ring.is_int:
                    square = want >= 0 and int_sqrt(want) is not None
                    assert row.keep([lam]) == ([lam] if square else [])
    rings = {"z", "zi", "zx"} | {quad_ring(d).name for d in GENERAL_DS}
    assert set(planted) == rings
    assert min(planted.values()) >= 4, planted


# reference: every product of the row quadratic formed on the row, from
# S, r, r' and N themselves

def _ref_row_terms(S, r, rp, N, a, b):
    s2 = S * S
    sr = S * r
    a2 = -(s2 * a)
    return s2, sr, a2, 4 * a2, S * rp * b - sr * a, b * (r * rp - N)


def _ref_disc_coeffs(S, c, terms):
    s2, sr, _, a2x4, beta, delta = terms
    a1 = s2 * c + beta
    s3 = s2 * S
    return s3 * s3, 2 * (a1 * s3) - a2x4 * (S * sr), a1 * a1 - a2x4 * (sr * c + delta)


def _ref_folded(row):
    inst, m = row.inst, row.m
    xs = (inst.S, inst.r, inst.rPrime, inst.N, row.a, row.b, row.c)
    if inst.ring.is_poly:
        L = math.lcm(inst.rPrime.den, row.a.den, row.b.den, row.c.den)
        scale = [L // p.den for p in xs]
        scale[3] *= L
        images = [[_horner(p, x0) * w for p, w in zip(xs, scale)] for x0 in _EVAL_POINTS]
    else:
        L, images = 1, [xs]
    l6 = L**6
    out = []
    for S, r, rp, N, a, b, c in images:
        e, f, g = _ref_disc_coeffs(S, c, _ref_row_terms(S, r, rp, N, a, b))
        k = math.gcd(l6, e, f, g)
        den = l6 // k
        out.append((e // k * den, f // k * den * m, g // k * den * m * m))
    return out


def _ref_solve(row, gamma):
    inst, ring = row.inst, row.inst.ring
    s2, sr, a2, a2x4, beta, delta = _ref_row_terms(inst.S, inst.r, inst.rPrime, inst.N,
                                                   row.a, row.b)
    a1 = s2 * gamma + beta
    disc = a1 * a1 - a2x4 * (sr * gamma + delta)
    root = ring_sqrt(disc, ring)
    out = []
    if root is None:
        return disc, out
    for signed in (root, -root):
        x = exact_div(-a1 + signed, 2 * a2, ring)
        if x is None:
            continue
        y = exact_div(gamma - row.a * x, row.b, ring)
        if y is None:
            continue
        pair = solver._accept(x, y, inst)
        if pair and pair not in out:
            out.append(pair)
    return disc, out


def test_instance_terms_match_row_reference(z_corpus, zi_corpus, general_corpora, poly_corpus):
    # the instance's share of the row quadratic, formed once per instance,
    # gives exactly the E, F, G, discriminants, folded images and solutions
    # of forming every product on each row; gammas at the row's c, at a few
    # shifts and at the planted pair's a*x + b*y, which every row solves
    rng = random.Random(39)
    cases = []
    for n, s, r, dv in z_corpus:
        inst = build_instance(RING_Z, n, s, r)
        cases.append((inst, ((dv - inst.r) // s, (n // dv - inst.rPrime) // s)))
    cases += zi_corpus + general_corpora[-2] + poly_corpus
    rows = solved = 0
    rings = set()
    for inst, (x, y) in cases:
        ring, S = inst.ring, inst.S
        chain = build_chain(inst)
        for k in range(1, chain.t):
            a, b, c = chain.a[k], chain.b[k], chain.c[k]
            row = RowSystem(a, b, c, inst)
            assert row_coeffs(row) == _ref_disc_coeffs(
                S, c, _ref_row_terms(S, inst.r, inst.rPrime, inst.N, a, b))
            if ring.is_quad:
                lams = [0, rand_quad_disk(rng, ring.d, 100)]
            else:
                assert row._folded == _ref_folded(row)
                if ring.is_poly:
                    lams = [Fraction(n, row.m) for n in poly_rhs_candidates(a, b, inst)[:3]]
                else:
                    lams = [0, rng.randint(-14, 14)]
            for gamma in [c + lam * S for lam in lams] + [a * x + b * y]:
                disc, pairs = _ref_solve(row, gamma)
                assert row.disc(gamma) == disc
                assert row.solve(gamma) == pairs
                solved += bool(pairs)
            rows += 1
            rings.add(ring.name)
    assert rings == {"z", "zi", "q-2", "zx"}
    assert rows >= 3000 and solved >= rows


# --- the shift tests on scalar images ----------------------------------------------

_fractions = st.fractions(min_value=-60, max_value=60, max_denominator=12)


def _row_with_images(folded):
    # a RowSystem with the given folded images; keep() reads nothing else
    row = object.__new__(RowSystem)
    row.__dict__["_folded"] = folded
    return row


@settings(max_examples=400)
@given(E=_fractions, F=_fractions, G=_fractions, h=_fractions, square=st.booleans(),
       n=st.integers(-200, 200), m=st.integers(-30, 30).filter(bool))
def test_folded_test_is_rational_squareness(E, F, G, h, square, n, m):
    # RowSystem.keep on one image folded from (E, F, G) keeps n exactly
    # when D(n/m) = E*(n/m)^2 + F*(n/m) + G is a rational square; square
    # makes D(n/m) = h^2, so 0 (h = 0) and squares are drawn often, and m
    # takes both signs
    lam = Fraction(n, m)
    if square:
        G = h * h - E * lam * lam - F * lam
    row = _row_with_images([fold_rational(E, F, G, m)])
    want = sqrt_rational(E * lam * lam + F * lam + G) is not None
    assert row.keep([n]) == ([n] if want else [])
    if square:
        assert want


@settings(max_examples=400)
@given(k=st.integers(-40, 40), k0=st.integers(-200, 200), d=st.integers(-12, 12).filter(bool),
       N=st.integers(-300, 300), n=st.integers(-30, 30))
def test_final_row_test_is_integral_divisor(k, k0, d, N, n):
    # FinalRow.keep on one image (k, k0, d, N) keeps n exactly when the
    # cofactor (k*n + k0)/d is an integer dividing N (0 only when N is 0)
    row = object.__new__(FinalRow)
    row.images = [(k, k0, d, N)]
    cof = Fraction(k * n + k0, d)
    want = cof.denominator == 1 and (N % cof == 0 if cof else N == 0)
    assert row.keep([n]) == ([n] if want else [])


@settings(max_examples=300)
@given(h=st.lists(_fractions, max_size=6), e=st.lists(_fractions, max_size=5),
       f=st.lists(_fractions, max_size=5), n=st.integers(-200, 200),
       m=st.integers(-12, 12).filter(bool),
       zero_at=st.sampled_from((None,) + _EVAL_POINTS))
def test_prefilter_passes_every_square(h, e, f, n, m, zero_at):
    # D(n/m) = h^2 in Q[x], written as E*lam^2 + F*lam + G for arbitrary E,
    # F: the folded test passes at every evaluation point; zero_at makes h,
    # and so D, vanish at one of them
    hp = Poly(h)
    if zero_at is not None:
        hp = hp * Poly([-zero_at, 1])
    E, F, lam = Poly(e), Poly(f), Fraction(n, m)
    G = hp * hp - E * lam * lam - F * lam
    row = _row_with_images([fold_rational(E(x0), F(x0), G(x0), m) for x0 in _EVAL_POINTS])
    assert row.keep([n]) == [n]


@settings(max_examples=300)
@given(coeffs=st.one_of(st.lists(_fractions, max_size=7),
                        st.lists(st.integers(-10**9, 10**9), max_size=7)),
       negate=st.booleans())
@example(coeffs=[], negate=False)
def test_integer_image_is_the_value(coeffs, negate):
    # the integer image at each evaluation point over the denominator is
    # the value there, for rational and integral p, either sign of lead(p)
    # and the zero polynomial
    p = -Poly(coeffs) if negate else Poly(coeffs)
    for x0 in _EVAL_POINTS:
        assert Fraction(_horner(p, x0), p.den) == p(x0)


def _expanded_efg(a, b, c, inst):
    # E, F and G of the solver docstring, expanded as polynomials
    S, r, rp, N = inst.S, inst.r, inst.rPrime, inst.N
    a2 = -(S * S * a)
    a1 = S * S * c + S * rp * b - S * r * a
    a0 = S * r * c + b * (r * rp - N)
    return S ** 6, 2 * a1 * S ** 3 - 4 * a2 * S * S * r, a1 * a1 - 4 * a2 * a0


def _poly_rows(inst):
    chain = build_chain(inst)
    for k in range(1, chain.t + 1):
        a, b, c = chain.a[k], chain.b[k], chain.c[k]
        if a and b:
            yield a, b, c


def test_point_scalars_match_expanded_polynomials(poly_corpus):
    # the folded scalars from the row's inputs at each x0 are L^2 times
    # the values there of E, F*m and G*m^2, with E, F and G expanded in
    # Q[x] and L the lcm of the denominators of E(x0), F(x0) and G(x0)
    rows = 0
    for inst, _ in poly_corpus:
        for a, b, c in _poly_rows(inst):
            E, F, G = _expanded_efg(a, b, c, inst)
            row = RowSystem(a, b, c, inst)
            m = row.m
            assert len(row._folded) == len(_EVAL_POINTS)
            for x0, folded in zip(_EVAL_POINTS, row._folded):
                den = math.lcm(*(Fraction(p(x0)).denominator for p in (E, F, G)))
                assert folded == tuple(v * den * den
                                       for v in (E(x0), F(x0) * m, G(x0) * m * m))
            rows += 1
    assert rows >= 400


def _solution_pairs(inst):
    content, factors = sympy_poly_factors(inst.N)
    orc = oracle_poly(tuple(inst.N.coeffs), tuple(inst.S.coeffs),
                      tuple(inst.r.coeffs), content, factors)
    pairs = []
    for coeffs in orc.divisors:
        dv = Poly(coeffs)
        cof = exact_div(inst.N, dv, RING_ZX)
        pairs.append(SolutionPair(exact_div(dv - inst.r, inst.S, RING_ZX),
                                  exact_div(cof - inst.rPrime, inst.S, RING_ZX)))
    return pairs


def test_prefilter_keeps_every_solution_shift(poly_corpus):
    # on every quadratic row of the criterion-4 Z[x] corpus, the shifts at
    # which the reference solver returns a pair (the oracle's divisors give
    # them all) pass the prefilter; on the first 50 instances every shift
    # goes to the reference solver (no row, no prefilter), and a sample of
    # the rejected shifts on the rest
    shifts_seen = rejected = kept = 0
    for n, (inst, _) in enumerate(poly_corpus):
        pairs = _solution_pairs(inst)
        for a, b, c in _poly_rows(inst):
            row = RowSystem(a, b, c, inst)
            shifts = poly_rhs_candidates(a, b, inst)
            passed = row.keep(shifts)
            for s_n in shifts:
                shifts_seen += 1
                if s_n not in passed:
                    rejected += 1
                    if n < 50 or rejected % 100 == 1:
                        gamma = c + Fraction(s_n, row.m) * inst.S
                        assert solve_system(a, b, gamma, inst) == []
            for pair in pairs:
                gamma = a * pair.x + b * pair.y
                lam = exact_div(gamma - c, inst.S, RING_ZX)
                s_n = lam.coeff(0) * row.m
                if lam.degree <= 0 and s_n in shifts:
                    assert pair in solve_system(a, b, gamma, inst)
                    assert s_n in passed
                    kept += 1
    assert kept >= 200
    assert 0 < rejected < shifts_seen


# --- the Z shift tests -----------------------------------------------------------

def test_int_shift_tests_keep_every_solution_shift(z_corpus):
    # every shift of every Z row, quadratic and final, over the 38 family
    # instances and the criterion-4 Z corpus: a shift the exact test rejects
    # gives no pair in the reference solver (no row), and a shift it keeps
    # solves to the reference's pairs
    shifts = integer_shifts(candidate_radius(0))
    counts = {"quad": [0, 0], "final": [0, 0]}
    cases = family_triples() + [c[:3] for c in z_corpus]
    for inst in (build_instance(RING_Z, n, s, r) for n, s, r in cases):
        chain = build_chain(inst)
        for k in range(1, chain.t + 1):
            a, b, c = chain.a[k], chain.b[k], chain.c[k]
            row = RowSystem(a, b, c, inst) if k < chain.t else None
            test = row or FinalRow(a, b, c, inst)
            kind = "quad" if row else "final"
            for lam in shifts:
                gamma = c + lam * inst.S
                want = solve_system(a, b, gamma, inst)
                passed = test.keep([lam]) == [lam]
                got = solve_system(a, b, gamma, inst, row) if passed else []
                assert got == want
                counts[kind][passed] += 1
    for kind, (rejected, passed) in counts.items():
        assert rejected > 0 and passed > 0, (kind, counts)


def test_poly_rows_with_rational_rprime():
    # the criterion-4 corpus has integral r' only: here S is non-monic, the
    # planted divisor is S*f + r with f a multiple of lead(S), and its
    # cofactor j*x^deg(S) + w is S*y0 + r' with y0 = j/lead(S) and r'
    # rational.  Every row keeps exactly the shifts the rational test
    # keeps, over a range of shifts, and on the final row the planted one
    # n = y0*u*m where it is an integer; the divisor is found
    rng = random.Random(1509)
    planted = 0
    while planted < 40:
        deg = rng.randint(2, 4)
        lead = rng.choice((2, 3, -2, 5, -6))
        S = Poly([rng.randint(-9, 9) for _ in range(deg)] + [lead])
        r = Poly([rng.randint(-9, 9) for _ in range(rng.randint(1, deg))])
        j = rng.choice([v for v in range(-7, 8) if v % lead])
        cof = Poly([rng.randint(-9, 9) for _ in range(deg)] + [j])
        dv = S * (lead * rng.choice((1, -1, 2))) + r
        try:
            inst = build_instance(RING_ZX, dv * cof, S, r)
        except InvalidInstanceError:
            continue
        if inst.rPrime.is_integral():
            continue
        y0 = Fraction(j, lead)
        assert exact_div(cof - inst.rPrime, S, RING_ZX) == y0
        chain = build_chain(inst)
        for k in range(1, chain.t):
            a, b, c = chain.a[k], chain.b[k], chain.c[k]
            shifts = sorted(set(poly_rhs_candidates(a, b, inst)) | set(range(-30, 31)))
            row = RowSystem(a, b, c, inst)
            ref = _rational_shift_test(a, b, c, inst, False)
            assert row.keep(shifts) == [n for n in shifts if ref(Fraction(n, row.m))]
        a, b, c = chain.a[chain.t], chain.b[chain.t], chain.c[chain.t]
        final = FinalRow(a, b, c, inst)
        n_y0 = y0 * Fraction(b.lead, S.lead) * final.m
        shifts = set(poly_rhs_candidates(a, b, inst)) | set(range(-30, 31))
        if n_y0.denominator == 1:
            shifts.add(int(n_y0))
            planted += 1
        shifts = sorted(shifts)
        ref = _rational_shift_test(a, b, c, inst, True)
        want = [n for n in shifts if ref(Fraction(n, final.m))]
        assert final.keep(shifts) == want
        assert n_y0.denominator != 1 or n_y0 in want
        assert dv in find_divisors(inst).divisors


def test_poly_final_row_keeps_every_solution_shift(poly_corpus):
    # on the final row of every criterion-4 Z[x] instance (monic and
    # non-monic S), each shift at which the unfiltered solver returns a
    # pair passes the evaluation test, and some shifts are rejected
    seen = rejected = kept = nonmonic = 0
    for inst, _ in poly_corpus:
        chain = build_chain(inst)
        a, b, c = chain.a[chain.t], chain.b[chain.t], chain.c[chain.t]
        final = FinalRow(a, b, c, inst)
        nonmonic += inst.S.lead not in (1, -1)
        for n in poly_rhs_candidates(a, b, inst):
            seen += 1
            pairs = solve_system(a, b, Fraction(n, final.m) * inst.S, inst)
            if final.keep([n]):
                kept += bool(pairs)
            else:
                assert pairs == []
                rejected += 1
    assert kept >= 80 and nonmonic >= 50
    assert 0 < rejected < seen


# --- the integer shift tests against the rational ones -----------------------------

def _rational_shift_test(a, b, c, inst, final):
    """The reference for keep(): the shift test on a rational lam, with no
    shift denominator and nothing folded.  Quadratic row: the discriminant A1^2 - 4*A2*A0,
    built from gamma = c + lam*S, is a square in Z, resp. a rational
    square at every evaluation point in Z[x] (built there from the values
    of S, r, r', N, a, b and gamma, which evaluation respects).  Final
    row: y = lam/u, and the cofactor S*y + r' is an integer dividing N,
    in Z and at every evaluation point in Z[x]."""
    S = inst.S
    if inst.ring.is_poly:
        def images(p):
            return [p(x0) for x0 in _EVAL_POINTS]
        inv_u = Fraction(S.lead) / b.lead
    else:
        def images(v):
            return [v]
        inv_u = b // S
    if not final:
        rows = list(zip(*map(images, (S, inst.r, inst.rPrime, inst.N, a, b, c))))

        def square(lam):
            for s_x, r_x, rp_x, n_x, a_x, b_x, c_x in rows:
                gamma = c_x + lam * s_x
                a2 = -(s_x * s_x * a_x)
                a1 = s_x * s_x * gamma + s_x * rp_x * b_x - s_x * r_x * a_x
                a0 = s_x * r_x * gamma + b_x * (r_x * rp_x - n_x)
                if sqrt_rational(a1 * a1 - 4 * a2 * a0) is None:
                    return False
            return True
        return square
    points = list(zip(images(S), images(inst.rPrime), images(inst.N)))

    def passes(lam):
        y = lam * inv_u
        for s_x, rp_x, n_x in points:
            cof = s_x * y + rp_x
            if cof.denominator != 1 or (n_x % cof if cof else n_x):
                return False
        return True
    return passes


def test_integer_shift_tests_match_rational_tests(z_corpus, poly_corpus):
    # on every row of the 38 families and the criterion-4 Z and Z[x]
    # corpora, keep() on the integer shifts n keeps exactly the n whose
    # lam = n/m passes the rational test
    cases = family_triples() + [c[:3] for c in z_corpus]
    insts = [build_instance(RING_Z, n, s, r) for n, s, r in cases]
    insts += [inst for inst, _ in poly_corpus]
    counts = {}
    for inst in insts:
        poly = inst.ring.is_poly
        chain = build_chain(inst)
        for k in range(1, chain.t + 1):
            a, b, c = chain.a[k], chain.b[k], chain.c[k]
            final = k == chain.t
            test = (FinalRow if final else RowSystem)(a, b, c, inst)
            if poly:
                shifts = poly_rhs_candidates(a, b, inst)
            else:
                shifts = integer_shifts(candidate_radius(0))
            ref = _rational_shift_test(a, b, c, inst, final)
            want = [n for n in shifts if ref(Fraction(n, test.m) if poly else n)]
            assert test.keep(shifts) == want
            tally = counts.setdefault((inst.ring.name, final), [0, 0])
            tally[0] += len(shifts) - len(want)
            tally[1] += len(want)
    assert len(counts) == 4
    for key, (rejected, kept) in counts.items():
        assert rejected > 0 and kept > 0, (key, counts)


class _NoFraction:
    def __new__(cls, *args, **kwargs):
        raise AssertionError("Fraction built in a Z[x] shift test")


def test_poly_shift_tests_build_no_fraction(poly_corpus, monkeypatch):
    # shift_denominator, poly_rhs_candidates and keep() of fresh RowSystem
    # and FinalRow objects run on integers alone: with Fraction made
    # unconstructible in solver and polynomials they still run on every
    # row of the criterion-4 Z[x] corpus and agree with the results taken
    # before, whose m is lead(S)*lcm(den lead(a), den lead(b)) from the
    # Fraction views
    rows = []
    for inst, _ in poly_corpus:
        chain = build_chain(inst)
        rows += [(chain.a[k], chain.b[k], chain.c[k], inst, k == chain.t)
                 for k in range(1, chain.t + 1)]

    def run():
        out = []
        for a, b, c, inst, final in rows:
            shifts = poly_rhs_candidates(a, b, inst)
            test = (FinalRow if final else RowSystem)(a, b, c, inst)
            out.append((shift_denominator(a, b, inst), shifts, test.keep(shifts)))
        return out

    before = run()
    assert [m for m, *_ in before] == [
        inst.S.lead * math.lcm(Fraction(a.lead).denominator, Fraction(b.lead).denominator)
        for a, b, _, inst, _ in rows]
    rational = sum(isinstance(a.lead, Fraction) or isinstance(b.lead, Fraction)
                   for a, b, *_ in rows)
    assert rational >= 500
    monkeypatch.setattr(solver, "Fraction", _NoFraction)
    monkeypatch.setattr(polynomials, "Fraction", _NoFraction)
    assert run() == before


# --- the two sweep-invisible solutions ------------------------------------------

def test_trivial_divisors_unit_residue():
    inst = build_instance(RING_Z, 320320, 69, 1)
    got = trivial_divisor_check(inst)
    assert SolutionPair(0, 4642) in got  # divisor 1
    assert SolutionPair(211, 0) in got  # divisor 14560 = N / 22
    assert len(got) == 2


def test_trivial_divisors_273():
    inst = build_instance(RING_Z, 273, 10, 1)
    got = trivial_divisor_check(inst)
    assert SolutionPair(0, 27) in got  # divisor 1
    assert SolutionPair(9, 0) in got  # divisor 91 = 273 / 3
    assert len(got) == 2


def test_trivial_divisors_partial():
    # 277 is prime: r = 3 divides nothing, but N/r' = -277 is a divisor
    inst = build_instance(RING_Z, 277, 10, 3)
    assert inst.rPrime == -1
    got = trivial_divisor_check(inst)
    assert got == [SolutionPair(-28, 0)]

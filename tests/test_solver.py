import random
from fractions import Fraction

import pytest
from conftest import (
    GENERAL_DS,
    family_triples,
    plant_poly,
    plant_quad,
    plant_rational,
    rand_quad_disk,
    sympy_poly_factors,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from resdiv.polynomials import Poly
from resdiv.oracle import oracle_poly
from resdiv.remseq import build_chain, build_instance
from resdiv.rings import RING_Z, RING_ZX, QuadInt, exact_div, int_sqrt, quad_ring, reduce_mod
from resdiv.solver import (
    _EVAL_POINTS,
    FinalRow,
    RowSystem,
    SolutionPair,
    _scaled_point,
    _squares_at_points,
    candidate_radius,
    enumerate_residues,
    integer_shifts,
    poly_rhs_candidates,
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

def _poly_gammas(shifts, c, inst):
    return [c + lam * inst.S for lam in shifts]


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
        cands = _poly_gammas(shifts, c, inst)
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
            cands = _poly_gammas(shifts, chain.c[k], inst)
            assert cands == sorted(cands, key=lambda g: (g.degree if g else -1, g.coeffs))
            assert len(set(cands)) == len(cands)
    chain = build_chain(insts[0])
    assert poly_rhs_candidates(chain.a[1], chain.b[1], insts[0]) == [
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
            if gamma in _poly_gammas(shifts, chain.c[k], inst):
                found = True
                break
        assert found
        hits += 1
    assert hits >= 25  # the zero-coordinate plants are the only skips


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
            E, F, G = row.coeffs()
            shifts = [0, rand_shift(), rand_shift()]
            if ring.is_poly:
                shifts += poly_rhs_candidates(a, b, inst)[1:3]
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
                    root = row.shift_root(lam)
                    assert root == (int_sqrt(want) if want >= 0 else None)
                    if root is not None:
                        assert row.solve(gamma, root) == row.solve(gamma)
    rings = {"z", "zi", "zx"} | {quad_ring(d).name for d in GENERAL_DS}
    assert set(planted) == rings
    assert min(planted.values()) >= 4, planted


# --- the Z[x] evaluation prefilter ------------------------------------------------

_fractions = st.fractions(min_value=-60, max_value=60, max_denominator=12)


@settings(max_examples=300)
@given(h=st.lists(_fractions, max_size=6), e=st.lists(_fractions, max_size=5),
       f=st.lists(_fractions, max_size=5), lam=_fractions,
       zero_at=st.sampled_from((None,) + _EVAL_POINTS))
def test_prefilter_passes_every_square(h, e, f, lam, zero_at):
    # D(lam) = h^2 in Q[x], written as E*lam^2 + F*lam + G for arbitrary E, F;
    # zero_at makes h, and so D, vanish at one of the evaluation points
    hp = Poly(h)
    if zero_at is not None:
        hp = hp * Poly([-zero_at, 1])
    E, F = Poly(e), Poly(f)
    G = hp * hp - E * lam * lam - F * lam
    points = [_scaled_point(E(x0), F(x0), G(x0)) for x0 in _EVAL_POINTS]
    assert _squares_at_points(points, lam)


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
    # the scalars from the row's inputs at each x0 are the values there of
    # E, F and G expanded in Q[x]
    rows = 0
    for inst, _ in poly_corpus:
        for a, b, c in _poly_rows(inst):
            E, F, G = _expanded_efg(a, b, c, inst)
            points = RowSystem(a, b, c, inst)._points
            assert len(points) == len(_EVAL_POINTS)
            for x0, (e, f, g, den) in zip(_EVAL_POINTS, points):
                assert den > 0
                assert (Fraction(e, den), Fraction(f, den), Fraction(g, den)) == \
                    (E(x0), F(x0), G(x0))
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
            passed = [lam for lam in shifts if row.square_at_points(lam)]
            for lam in shifts:
                shifts_seen += 1
                if lam not in passed:
                    rejected += 1
                    if n < 50 or rejected % 100 == 1:
                        assert solve_system(a, b, c + lam * inst.S, inst) == []
            for pair in pairs:
                gamma = a * pair.x + b * pair.y
                lam = exact_div(gamma - c, inst.S, RING_ZX)
                if lam.degree <= 0 and lam.coeff(0) in shifts:
                    assert pair in solve_system(a, b, gamma, inst)
                    assert lam.coeff(0) in passed
                    kept += 1
    assert kept >= 200
    assert 0 < rejected < shifts_seen


# --- the Z shift tests -----------------------------------------------------------

def test_int_shift_tests_keep_every_solution_shift(z_corpus):
    # every shift of every Z row, quadratic and final, over the 38 family
    # instances and the criterion-4 Z corpus: a shift the exact test rejects
    # gives no pair in the reference solver (no row, no root), and a shift
    # it keeps solves to the reference's pairs
    shifts = integer_shifts(candidate_radius(0))
    counts = {"quad": [0, 0], "final": [0, 0]}
    cases = family_triples() + [c[:3] for c in z_corpus]
    for inst in (build_instance(RING_Z, n, s, r) for n, s, r in cases):
        chain = build_chain(inst)
        for k in range(1, chain.t + 1):
            a, b, c = chain.a[k], chain.b[k], chain.c[k]
            row = RowSystem(a, b, c, inst) if k < chain.t else None
            final = FinalRow(b, inst) if row is None else None
            kind = "quad" if row else "final"
            for lam in shifts:
                gamma = c + lam * inst.S
                want = solve_system(a, b, gamma, inst)
                if row:
                    root = row.shift_root(lam)
                    passed = root is not None
                    got = solve_system(a, b, gamma, inst, row, root) if passed else []
                else:
                    passed = final.passes(lam)
                    got = solve_system(a, b, gamma, inst) if passed else []
                assert got == want
                counts[kind][passed] += 1
    for kind, (rejected, passed) in counts.items():
        assert rejected > 0 and passed > 0, (kind, counts)


def test_poly_final_row_keeps_every_solution_shift(poly_corpus):
    # on the final row of every criterion-4 Z[x] instance (monic and
    # non-monic S), each shift at which the unfiltered solver returns a
    # pair passes the evaluation test, and some shifts are rejected
    seen = rejected = kept = nonmonic = 0
    for inst, _ in poly_corpus:
        chain = build_chain(inst)
        b = chain.b[chain.t]
        final = FinalRow(b, inst)
        nonmonic += inst.S.lead not in (1, -1)
        for lam in poly_rhs_candidates(chain.a[chain.t], b, inst):
            seen += 1
            pairs = solve_system(chain.a[chain.t], b, lam * inst.S, inst)
            if final.passes(lam):
                kept += bool(pairs)
            else:
                assert pairs == []
                rejected += 1
    assert kept >= 80 and nonmonic >= 50
    assert 0 < rejected < seen


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

import random
from math import isqrt, prod
from types import SimpleNamespace

import numpy as np
from conftest import GENERAL_DS, plant_quad, rand_quad, rand_quad_disk

from resdiv import fastscan
from resdiv.algorithms import find_divisors
from resdiv.base import InvalidInstanceError
from resdiv.bench import sample_instance
from resdiv.fastscan import (
    _DENSE_POINTS,
    _class_table,
    _disc_images,
    _images,
    _mod_small,
    _Pool,
    _quad_row,
    _split_primes,
    _squares,
    _survivors,
    fast_row_candidates,
    get_pool,
    sieve_rows,
)
from resdiv.remseq import _is_prime64, build_chain, build_instance
from resdiv.rings import QuadInt, exact_div, quad_ring
from resdiv.solver import (
    SolutionPair,
    candidate_radius,
    enumerate_residues,
    integer_shifts,
    solve_system,
)


def test_split_primes_gaussian():
    # p = 1 mod 4 and p >= 13, in order
    assert _split_primes(-1) == (13, 17, 29, 37, 41, 53, 61, 73)


def test_integer_shifts_are_the_real_pool_points():
    # the Z sweep is the Gaussian pool restricted to the real axis, in order
    assert candidate_radius(0) == candidate_radius(-1) == 12
    for rbound in (3, 12):
        pool = get_pool(-1, rbound)
        real = [int(u) // 2 for u, v in zip(pool.lu, pool.lv) if v == 0]
        assert integer_shifts(rbound) == real
    assert len(integer_shifts(12)) == 29


def test_split_primes_properties():
    for d in (-1,) + GENERAL_DS:
        primes = _split_primes(d)
        assert len(primes) == 8
        assert len(set(primes)) == 8
        for p in primes:
            assert p >= 13
            assert _is_prime64(p)
            assert (2 * d) % p != 0
            assert pow(d % p, (p - 1) // 2, p) == 1  # d is a QR: p splits


def test_pool_is_cached_and_sorted():
    pool = get_pool(-1, 5)
    assert get_pool(-1, 5) is pool
    assert pool.lu[0] == 0 and pool.lv[0] == 0
    # witnesses' (i, j) follow the pool order, so pin all of it
    for d, rb in ((-1, 5), (-3, 4), (-11, 3)):
        pool = get_pool(d, rb)
        lu, lv = pool.lu.tolist(), pool.lv.tolist()
        keys = [(u * u - d * v * v, u, v) for u, v in zip(lu, lv)]
        assert keys == sorted(set(keys))


def test_pool_covers_the_lambda_disk():
    for d, rb in ((-1, 6), (-3, 5), (-11, 4)):
        pool = get_pool(d, rb)
        box = 4 * (rb + 2) * (rb + 2)
        expected = set()
        span = isqrt(box) + 1
        for u in range(-span, span + 1):
            for v in range(-span, span + 1):
                if u * u + (-d) * v * v > box:
                    continue
                try:
                    QuadInt(u, v, d)
                except ValueError:
                    continue
                expected.add((u, v))
        got = set(zip(pool.lu.tolist(), pool.lv.tolist()))
        assert got == expected


def _exact_squares(E, F, G, pool):
    """_squares for exact E, F and G: their images, then one column."""
    e, f, g = _images([E, F, G], pool)[:, :, None].transpose(1, 0, 2)
    return _squares(e, f, g, pool)[:, 0]


def test_pool_class_index_matches_coordinates():
    rng = random.Random(2)
    for d in (-1,) + GENERAL_DS:
        pool = get_pool(d, 4)
        assert pool.slices[0].start == 0 and pool.slices[-1].stop == pool.plus.size
        for k, p in enumerate(pool.primes):
            assert pool.cls[k].dtype == np.int16
            assert (pool.cls[k] == (pool.lu % p) * p + pool.lv % p).all()
            assert pool.slices[k].stop - pool.slices[k].start == p * p
            E, F, G = (rand_quad(rng, d, 1, 10**12) for _ in range(3))
            full = _class_table(_exact_squares(E, F, G, pool), pool, k)
            assert full.shape == (p * p,)
            some = np.array(rng.sample(range(p * p), 40), dtype=np.int16)
            assert (full.take(some) == full[some]).all()


def _is_square_mod(z, p):
    return z % p == 0 or pow(z, (p - 1) // 2, p) == 1


def test_disc_sq_matches_component_squareness():
    # every class of every prime in every ring, against D(lam) computed
    # exactly in O_K at one lam of the class and tested for squareness in
    # both F_p components; E, F and G have negative coordinates and
    # coordinates far past 2^63
    rng = random.Random(81)
    signs = ((-1, 1), (1, -1), (-1, -1), (1, 1))
    for d in (-1,) + GENERAL_DS:
        pool = get_pool(d, 4)
        for k, p in enumerate(pool.primes):
            # coordinates near 10^40 in every prime, one small coefficient
            # in every other one; sign patterns rotate over E, F and G
            bounds = [(10**79, 10**81)] * 3
            if k % 2:
                bounds[k % 3] = (1, 10**6)
            E, F, G = (
                QuadInt(su * abs(z.u), sv * abs(z.v), d)
                for z, (su, sv) in zip(
                    (rand_quad(rng, d, lo, hi) for lo, hi in bounds),
                    signs[k % 4:] + signs[:k % 4],
                )
            )
            assert max(abs(E.u), abs(F.u), abs(G.u)) > 1 << 63
            s = next(z for z in range(1, p) if z * z % p == d % p)
            half = pow(2, -1, p)
            got = _class_table(_exact_squares(E, F, G, pool), pool, k).tolist()
            want = []
            for cu in range(p):
                for cv in range(p):
                    # lam = (lu + lv*sqrt(d))/2 with lu = cu, lv = cv mod p
                    lu, lv = cu, cv
                    if d % 4 == 1:
                        lv += p * ((lu - lv) % 2)
                    else:
                        lu += p * (lu % 2)
                        lv += p * (lv % 2)
                    lam = QuadInt(lu, lv, d)
                    D = E * lam * lam + F * lam + G
                    want.append(_is_square_mod((D.u + s * D.v) * half, p)
                                and _is_square_mod((D.u - s * D.v) * half, p))
            assert got == want


def test_row_images_match_exact_coefficients():
    # the solver's formulas on images in F_p give the exact E, F and G of
    # every row reduced mod each p_k, in both components, in every ring;
    # the inputs have coordinates up to 10^90 and every sign pattern, and
    # E, F and G come from an expansion of their own
    rng = random.Random(83)
    signs = ((-1, 1), (1, -1), (-1, -1), (1, 1))
    for d in (-1,) + GENERAL_DS:
        pool = get_pool(d, 4)

        def rand_el(k):
            z = rand_quad(rng, d, 1, 10**180 if k % 3 else 10**6)
            su, sv = signs[k % 4]
            return QuadInt(su * abs(z.u), sv * abs(z.v), d)

        for trial in range(3):
            S, r, rp, N = (rand_el(trial + k) for k in range(4))
            inst = SimpleNamespace(S=S, r=r, rPrime=rp, N=N)
            rows = [tuple(rand_el(trial + k + j) for j in range(3)) for k in range(5)]
            images = _disc_images(rows, inst, pool)
            assert [v.shape for v in images] == [(16, 1), (16, 5), (16, 5)]
            e, f, g = np.broadcast_arrays(*images)
            for j, (a, b, c) in enumerate(rows):
                core = S * S * c + S * rp * b - S * r * a
                s3 = S * S * S
                E = s3 * s3
                F = 2 * s3 * core + 4 * s3 * S * a * r
                G = core * core + 4 * s3 * a * r * c + 4 * S * S * a * b * (r * rp - N)
                assert max(abs(G.u), abs(G.v)) > 1 << 63
                for k, p in enumerate(pool.primes):
                    s_k = next(z for z in range(1, p) if z * z % p == d % p)
                    half = pow(2, -1, p)
                    for comp, root in ((k, s_k), (8 + k, -s_k)):
                        want = [(X.u + root * X.v) * half % p for X in (E, F, G)]
                        got = [int(v[comp, j]) % p for v in (e, f, g)]
                        assert got == want


def test_batched_sieve_matches_one_row_sieve(monkeypatch):
    # sieve_rows over all quadratic rows of a chain at once keeps, row by
    # row, the survivors of sieving each row alone, on dense and on
    # class-table pools in every ring; chains of 9 and more rows fill
    # more than one byte of the packed dense sieve
    rng = random.Random(84)
    cases = [(-1, 8, sample_instance(rng, k)) for k in (12, 25, 40)]
    cases += [(d, rb, plant_quad(rng, d, lo, hi)[0])
              for d, rb in ((-1, 8), (-2, 12), (-3, 8), (-7, 14), (-11, 16))
              for lo, hi in ((30, 1000), (10**12, 10**14))]
    longest = kept = 0
    for d, rb, inst in cases:
        with monkeypatch.context() as m:
            m.setattr(fastscan, "_DENSE_POINTS", 0)
            loop_pool = _Pool(d, rb)
        rows = build_chain(inst).triples[1:-1]
        longest = max(longest, len(rows))
        for pool in (get_pool(d, rb), loop_pool):
            batched = sieve_rows(rows, inst, pool)
            assert batched == [sieve_rows([row], inst, pool)[0] for row in rows]
            kept += sum(map(len, batched))
    assert longest > 8 and kept


# per ring, a radius whose pool is just past _DENSE_POINTS
_LOOP_RADIUS = {-1: 36, -2: 42, -3: 34, -7: 40, -11: 46}


def test_survivors_match_class_tables_at_every_point():
    # both sieve paths keep exactly the points at which every prime's class
    # table, gathered prime by prime at every point, holds, in pool order;
    # pools on both sides of _DENSE_POINTS in every ring.  D is
    # (alpha*lam + beta)^2 + M*rho with coordinates near 10^40, so it is a
    # square mod the primes dividing M and survivors thin out prime by
    # prime, from the whole pool (M the product of all eight) to the rare
    # ones of a D without that shape
    rng = random.Random(82)
    for d in (-1,) + GENERAL_DS:
        for rb in (4, _LOOP_RADIUS[d]):
            pool = get_pool(d, rb)
            assert (pool.dense is None) == (pool.lu.size > _DENSE_POINTS)
            assert (pool.dense is None) == (rb > 4)
            oks, wants = [], []
            for drop in (0, 1, 2, 4, 8):
                alpha, beta, rho = (rand_quad(rng, d, 10**39, 10**41) for _ in range(3))
                M = prod(rng.sample(pool.primes, 8 - drop))
                E, F, G = alpha * alpha, 2 * alpha * beta, beta * beta + M * rho
                assert max(abs(E.u), abs(F.u), abs(G.u)) > 1 << 63
                ok = _exact_squares(E, F, G, pool)
                per_prime = [_class_table(ok, pool, k).take(cls)
                             for k, cls in enumerate(pool.cls)]
                want = np.flatnonzero(np.all(per_prime, axis=0)).tolist()
                assert _survivors(ok[:, None], pool) == [want]
                oks.append(ok)
                wants.append(want)
                if drop == 0:
                    assert len(want) == pool.lu.size
                if pool.dense is not None:
                    for k, hit in enumerate(per_prime):
                        dense_hit = ok.take(pool.dense[k]) & ok.take(pool.dense[8 + k])
                        assert (dense_hit == hit).all()
            # the five as the columns of one sieve
            assert _survivors(np.stack(oks, axis=1), pool) == wants


def test_quad_row_matches_discriminant_reference(monkeypatch):
    # every pool point whose D(lam) is a square in both F_p components for
    # all eight primes, in pool order, and no other, by both sieve paths:
    # the pool as built (dense, as every pool here is small) and the same
    # pool built with _DENSE_POINTS zeroed (class tables); each pool holds
    # more points than the first prime has classes, and some rows leave no
    # more survivors than the second prime has classes, so the class-table
    # path gathers its tables at more points than they hold and at fewer
    rng = random.Random(79)
    for d, rb in ((-1, 8), (-2, 12), (-3, 8), (-7, 14), (-11, 16)):
        pool = get_pool(d, rb)
        with monkeypatch.context() as m:
            m.setattr(fastscan, "_DENSE_POINTS", 0)
            loop_pool = _Pool(d, rb)
        assert pool.dense is not None and loop_pool.dense is None
        assert pool.lu.size > pool.primes[0] ** 2
        roots = [next(z for z in range(1, p) if z * z % p == d % p) for p in pool.primes]
        lams = [QuadInt(u, v, d) for u, v in zip(pool.lu.tolist(), pool.lv.tolist())]
        survivor_rows = 0
        for _ in range(3):
            inst, _ = plant_quad(rng, d, 30, 1000)
            S, r, rp, N = inst.S, inst.r, inst.rPrime, inst.N
            chain = build_chain(inst)
            for k in range(1, chain.t + 1):
                a, b, c = chain.a[k], chain.b[k], chain.c[k]
                if not a or not b:
                    continue
                core = S * S * c + S * rp * b - S * r * a
                s3 = S * S * S
                E = s3 * s3
                F = 2 * s3 * core + 4 * s3 * S * a * r
                G = core * core + 4 * s3 * a * r * c + 4 * S * S * a * b * (r * rp - N)
                first = 0
                expected = []
                for lam in lams:
                    D = E * lam * lam + F * lam + G
                    ok = [
                        _is_square_mod((D.u + D.v * s) * ((p + 1) // 2), p)
                        and _is_square_mod((D.u - D.v * s) * ((p + 1) // 2), p)
                        for p, s in zip(pool.primes, roots)
                    ]
                    first += ok[0]
                    if all(ok):
                        expected.append(c + lam * S)
                assert _quad_row(a, b, c, inst, pool) == expected
                assert _quad_row(a, b, c, inst, loop_pool) == expected
                survivor_rows += 0 < first <= pool.primes[1] ** 2
        assert survivor_rows


def _row_pairs(inst, gammas, a, b):
    out = set()
    for gamma in gammas:
        out.update(solve_system(a, b, gamma, inst))
    return out


def test_fast_never_drops_exact_solutions():
    # per-row: the filtered candidates yield every pair the plain disk
    # walk yields (the filter may add shell candidates near the rim; all of
    # them pass through the same exact solver, so extras are harmless)
    rng = random.Random(71)
    rb = 8
    for d in (-1, -3, -7):
        pool = get_pool(d, rb)
        for _ in range(6):
            inst, _ = plant_quad(rng, d, 30, 1000)
            chain = build_chain(inst)
            for k in range(1, chain.t + 1):
                a, b, c = chain.a[k], chain.b[k], chain.c[k]
                fast = _row_pairs(inst, fast_row_candidates(a, b, c, inst, pool), a, b)
                exact = _row_pairs(inst, enumerate_residues(c, inst.S, rb, inst.ring), a, b)
                assert fast >= exact


def _plant_past_int64(rng, d, ns_lo, ns_hi):
    """Instance with normsq(N) >= 2^63 and a small cofactor coordinate y,
    so the final chain row (a_t = 0) carries the planted solution."""
    ring = quad_ring(d)
    while True:
        s_el = rand_quad(rng, d, ns_lo, ns_hi)
        n_s = s_el.normsq()
        r_el = rand_quad_disk(rng, d, n_s // 2)
        r2_el = rand_quad_disk(rng, d, n_s // 2)
        x_el = rand_quad_disk(rng, d, isqrt(n_s) // 4)
        y_el = rand_quad_disk(rng, d, 2)
        n_el = (s_el * x_el + r_el) * (s_el * y_el + r2_el)
        if not n_el or not 1 << 63 <= n_el.normsq() < n_s**3:
            continue
        try:
            return build_instance(ring, n_el, s_el, r_el)
        except InvalidInstanceError:
            continue


def test_fast_never_drops_exact_solutions_past_int64():
    # normsq(N) >= 2^63 in every ring: the linear-row norm test reduces
    # normsq(N) by digits (small S) or runs on Python ints (large S), and
    # every row, the final a_t = 0 row included, keeps every exact pair
    rng = random.Random(77)
    final_hits = 0
    for d, rb in ((-1, 12), (-2, 6), (-3, 6), (-7, 6), (-11, 6)):
        pool = get_pool(d, rb)
        for ns_lo, ns_hi in ((1 << 24, 1 << 32), (1 << 56, 1 << 64)):
            inst = _plant_past_int64(rng, d, ns_lo, ns_hi)
            chain = build_chain(inst)
            for k in range(1, chain.t + 1):
                a, b, c = chain.a[k], chain.b[k], chain.c[k]
                fast = _row_pairs(inst, fast_row_candidates(a, b, c, inst, pool), a, b)
                exact = _row_pairs(inst, enumerate_residues(c, inst.S, rb, inst.ring), a, b)
                assert fast >= exact
                final_hits += k == chain.t and bool(exact)
    assert final_hits >= 8


def test_final_row_matches_norm_reference(monkeypatch):
    # the final row (0, u*S, 0) keeps exactly the pool gammas lam*S whose
    # cofactor S*lam*conj(u) + r' has a norm dividing normsq(N), in pool
    # order: on int64 arrays for a small S (normsq(N) below and past 2^63)
    # and on Python ints for an S past the guard; and on Python ints for
    # every instance with the guard at 0, which sends all of them there
    rng = random.Random(80)
    hits = 0
    int64_rows = []  # per instance, 1 if its final row ran on int64
    real = fastscan._mod_small

    def spy(n, m):
        int64_rows[-1] = 1
        return real(n, m)

    monkeypatch.setattr(fastscan, "_mod_small", spy)
    for d, rb in ((-1, 8), (-2, 5), (-3, 6), (-7, 5), (-11, 5)):
        pool = get_pool(d, rb)
        lams = [QuadInt(u, v, d) for u, v in zip(pool.lu.tolist(), pool.lv.tolist())]
        insts = [plant_quad(rng, d, 30, 1000)[0]]
        insts += [_plant_past_int64(rng, d, 1 << 24, 1 << 32),
                  _plant_past_int64(rng, d, 1 << 56, 1 << 64)]
        for inst in insts:
            chain = build_chain(inst)
            a, b, c = chain.a[chain.t], chain.b[chain.t], chain.c[chain.t]
            w = exact_div(b, inst.S, inst.ring).conj()
            n_n = inst.N.normsq()
            want = []
            for lam in lams:
                ne = (inst.S * lam * w + inst.rPrime).normsq()
                if ne and n_n % ne == 0:
                    want.append(lam * inst.S)
            int64_rows.append(0)
            assert fast_row_candidates(a, b, c, inst, pool) == want
            with monkeypatch.context() as m:
                m.setattr(fastscan, "_INT64_GUARD", 0)
                int64_rows.append(0)
                assert fast_row_candidates(a, b, c, inst, pool) == want
            hits += len(want)
    assert hits >= 15
    # in every ring the small-S instances ran on int64 and the large-S one
    # past the guard; with the guard at 0, all of them ran past it
    assert int64_rows == [1, 0, 1, 0, 0, 0] * 5


def test_mod_small_matches_python_mod():
    rng = random.Random(76)
    mixed = [1, 2, 3, (1 << 62) - 1]
    mixed += [rng.randrange(1, 1 << rng.randrange(1, 63)) for _ in range(60)]
    for ms in (mixed, [1], [(1 << 62) - 1], [1, 7, 1000, 65537]):
        m = np.array(ms, dtype=np.int64)
        for bits in (0, 1, 30, 62, 63, 64, 100, 257, 400):
            for _ in range(4):
                n = rng.randrange(1 << bits) if bits else 0
                assert _mod_small(n, m).tolist() == [n % v for v in ms]


def test_final_row_does_not_flood_the_solver():
    # protocol samples have normsq(N) >= 2^63; the final row (a_t = 0)
    # must still be cut by the norm test instead of handing the exact
    # solver every pool point
    rng = random.Random(78)
    pool_size = get_pool(-1).lu.size
    for k in (12, 25, 40):
        inst = sample_instance(rng, k)
        assert inst.N.normsq() >= 1 << 63
        fast = find_divisors(inst)
        assert fast.stats["candidates"] < pool_size
        assert fast.divisors == find_divisors(inst, engine="exact").divisors


def test_engines_agree_gaussian_full_radius():
    rng = random.Random(72)
    for _ in range(12):
        inst, (x, y) = plant_quad(rng, -1, 100, 10**6)
        fast = find_divisors(inst, engine="fast")
        exact = find_divisors(inst, engine="exact")
        assert fast.divisors == exact.divisors
        planted = inst.S * x + inst.r
        assert planted in fast.divisors


def test_engines_agree_general_reduced_radius():
    rng = random.Random(73)
    for d in GENERAL_DS:
        for _ in range(4):
            inst, (x, y) = plant_quad(rng, d, 30, 1000)
            fast = find_divisors(inst, rbound=25, engine="fast")
            exact = find_divisors(inst, rbound=25, engine="exact")
            assert set(fast.divisors) >= set(exact.divisors)
            assert inst.S * x + inst.r in fast.divisors


def test_linear_row_bigint_fallback():
    # coordinates near 1e9 push the row magnitudes past the int64 guard,
    # so the linear rows run on arrays of Python ints; results must match
    # the reference walk
    rng = random.Random(74)
    inst, (x, y) = plant_quad(rng, -1, 10**18, 4 * 10**18)
    fast = find_divisors(inst, engine="fast")
    exact = find_divisors(inst, engine="exact")
    assert fast.divisors == exact.divisors
    assert inst.S * x + inst.r in fast.divisors


def test_true_gamma_survives_all_prime_filters():
    rng = random.Random(75)
    pool = get_pool(-1, 12)
    for _ in range(10):
        inst, (x, y) = plant_quad(rng, -1, 100, 10**6)
        chain = build_chain(inst)
        hit = False
        for k in range(1, chain.t + 1):
            a, b = chain.a[k], chain.b[k]
            if not a or not b:
                continue
            gamma = a * x + b * y
            if gamma.normsq() >= 144 * inst.S.normsq():
                continue  # outside the sweep radius; another row covers it
            assert gamma in fast_row_candidates(a, b, chain.c[k], inst, pool)
            hit = True
        trivially_found = not x or not y
        assert hit or trivially_found

"""Acceptance gate: the eight package-level criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print; without -s they still appear in captured output on failure.  The
randomized corpora come from conftest session fixtures, so criteria 4-6
check the exact same instances every run.
"""

import json
import math
import random
import time

from conftest import sympy_norm_factors, sympy_poly_factors

from resdiv.algorithms import divisors_rational, find_divisors
from resdiv.bench import run_bench
from resdiv.cli import main
from resdiv.families import cohen_instance, seven_signed_instance, verify_family
from resdiv.oracle import (
    oracle_poly,
    oracle_quadratic,
    oracle_quadratic_factored,
    oracle_rational,
)
from resdiv.polynomials import Poly, poly_sqrt
from resdiv.remseq import build_chain
from resdiv.rings import DIV_NORM_BOUND, quad_ring


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print("\n" + line)
    assert ok, line


def test_criterion_1_standalone_record(tmp_path):
    t0 = time.perf_counter()
    rep = divisors_rational(104254876089000, 105787, 1)
    elapsed = time.perf_counter() - t0
    positives = tuple(d for d in rep.divisors if d > 0)
    alpha = math.log(105787) / math.log(104254876089000)

    out = tmp_path / "standalone.json"
    code = main(["find", "--ring", "z", "-N", "104254876089000", "-S", "105787",
                 "-r", "1", "--format", "json", "--out", str(out)])
    doc = json.loads(out.read_text())
    cli_positives = [int(d) for d in doc["divisors"] if int(d) > 0]

    ok = (
        len(positives) == 6
        and positives == (1, 211575, 1798380, 42843736, 492121125, 380492248500)
        and abs(alpha - 0.3584) < 1e-4
        and elapsed < 1.0
        and code == 0
        and cli_positives == list(positives)
        and abs(doc["alpha"] - alpha) < 1e-12
    )
    _report(1, "standalone record", ok,
            f"6 positive divisors, alpha={alpha:.6f}, {elapsed * 1e3:.0f} ms")


def test_criterion_2_cohen_family():
    t0 = time.perf_counter()
    bad = []
    for level in range(3, 21):
        fi = cohen_instance(level)
        if fi.S**3 <= fi.N:
            bad.append((level, "gate"))
            continue
        rep = verify_family(fi)
        if not rep.ok or len(rep.positive) != 6:
            bad.append((level, len(rep.positive)))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 10.0
    _report(2, "six-divisor family", ok,
            f"levels 3..20, {elapsed:.2f} s" + (f", failures {bad}" if bad else ""))


def test_criterion_3_seven_signed_family():
    t0 = time.perf_counter()
    bad = []
    for base in range(2, 21):
        fi = seven_signed_instance(base)
        if fi.S**3 <= fi.N:
            bad.append((base, "gate"))
            continue
        rep = verify_family(fi)
        if not rep.ok or len(rep.divisors) != 7:
            bad.append((base, len(rep.divisors)))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 10.0
    _report(3, "seven-signed family", ok,
            f"bases 2..20, {elapsed:.2f} s" + (f", failures {bad}" if bad else ""))


def test_criterion_4_oracle_equivalence(zi_corpus, general_corpora, poly_corpus,
                                        z_corpus):
    t0 = time.perf_counter()
    mismatches = []
    counts = {}
    seconds = {}  # per ring group, for tracing the total back to a ring

    for n, s, r, _dv in z_corpus:
        rep = divisors_rational(n, s, r)
        if rep.divisors != oracle_rational(n, s, r).divisors:
            mismatches.append(("z", n, s, r))
    counts["z"] = len(z_corpus)
    seconds["z"] = time.perf_counter() - t0 - sum(seconds.values())

    for inst, _pair in zi_corpus:
        rep = find_divisors(inst)
        orc = oracle_quadratic_factored(inst.N, inst.S, inst.r,
                                        sympy_norm_factors(inst.N.normsq()))
        if rep.divisors != orc.divisors:
            mismatches.append(("zi", str(inst.N), str(inst.S), str(inst.r)))
    counts["zi"] = len(zi_corpus)
    seconds["zi"] = time.perf_counter() - t0 - sum(seconds.values())

    for d, corpus in general_corpora.items():
        ring = quad_ring(d)
        for inst, _pair in corpus:
            rep = find_divisors(inst)
            orc = oracle_quadratic(ring, inst.N, inst.S, inst.r, inst.rPrime)
            if rep.divisors != orc.divisors:
                mismatches.append((ring.name, str(inst.N), str(inst.S), str(inst.r)))
        counts[ring.name] = len(corpus)
        seconds[ring.name] = time.perf_counter() - t0 - sum(seconds.values())

    for inst, _pair in poly_corpus:
        rep = find_divisors(inst)
        content, factors = sympy_poly_factors(inst.N)
        orc = oracle_poly(tuple(inst.N.coeffs), tuple(inst.S.coeffs),
                          tuple(inst.r.coeffs), content, factors)
        if tuple(tuple(dv.coeffs) for dv in rep.divisors) != orc.divisors:
            mismatches.append(("zx", str(inst.N), str(inst.S), str(inst.r)))
    counts["zx"] = len(poly_corpus)
    seconds["zx"] = time.perf_counter() - t0 - sum(seconds.values())

    elapsed = time.perf_counter() - t0
    sizes = ", ".join(f"{k}:{v} in {seconds[k]:.1f} s" for k, v in counts.items())
    ok = not mismatches and all(v >= 200 for v in counts.values()) \
        and elapsed < 300.0
    _report(4, "oracle equivalence", ok,
            f"{sizes}, {elapsed:.1f} s"
            + (f", first mismatch {mismatches[0]}" if mismatches else ""))


def _determinant_exceptions(inst, chain):
    out = 0
    sign = 1
    for k in range(chain.t):
        det = chain.a[k] * chain.b[k + 1] - chain.a[k + 1] * chain.b[k]
        if det != (inst.S if sign > 0 else -inst.S):
            out += 1
        sign = -sign
    return out


def test_criterion_5_lemma_invariants(zi_corpus, general_corpora, poly_corpus):
    t0 = time.perf_counter()
    exceptions = []

    def check(tag, cond):
        if not cond:
            exceptions.append(tag)

    for inst, (x, y) in zi_corpus:
        chain = build_chain(inst)
        ns = inst.S.normsq()
        check(("zi", "det"), _determinant_exceptions(inst, chain) == 0)
        num, den = DIV_NORM_BOUND[-1]
        for k in range(1, chain.t + 1):
            check(("zi", "divnorm"),
                  den * chain.a[k].normsq() <= num * chain.a[k - 1].normsq())
        for k in range(chain.t):
            prod = chain.a[k] * chain.b[k + 1]
            check(("zi", "ab"),
                  4**k * prod.normsq() <= (2 ** (k + 1) - 1) ** 2 * ns)
        strict = 2 * inst.r.normsq() < ns and 2 * inst.rPrime.normsq() < ns
        if x and y and strict:
            check(("zi", "xy"), x.normsq() <= 25 * ns and y.normsq() <= 25 * ns)
            check(("zi", "xyprod"), (x * y).normsq() < 81 * ns)
        if x and y:
            check(("zi", "smallterm"), any(
                (chain.a[k] * x + chain.b[k] * y).normsq() < 144 * ns
                for k in range(chain.t + 1)))

    for d, corpus in general_corpora.items():
        num, den = DIV_NORM_BOUND[d]
        for inst, (x, y) in corpus:
            chain = build_chain(inst)
            ns = inst.S.normsq()
            check((d, "det"), _determinant_exceptions(inst, chain) == 0)
            for k in range(1, chain.t + 1):
                check((d, "divnorm"),
                      den * chain.a[k].normsq() <= num * chain.a[k - 1].normsq())
            for k in range(chain.t):
                prod = chain.a[k] * chain.b[k + 1]
                lhs = prod.normsq() * 16 ** (2 * (k + 1))
                rhs = 256 * (16 ** (k + 1) - 15 ** (k + 1)) ** 2 * ns
                check((d, "ab"), lhs <= rhs)
            if x and y:
                check((d, "xy"),
                      x.normsq() < 1089 * ns and y.normsq() < 1089 * ns)
                check((d, "xyprod"), (x * y).normsq() < 4356 * ns)
                check((d, "smallterm"), any(
                    (chain.a[k] * x + chain.b[k] * y).normsq() < 280900 * ns
                    for k in range(chain.t + 1)))

    for inst, (f, g) in poly_corpus:
        chain = build_chain(inst)
        degs = inst.S.degree
        check(("zx", "det"), _determinant_exceptions(inst, chain) == 0)
        for k in range(chain.t):
            check(("zx", "ab"), (chain.a[k] * chain.b[k + 1]).degree == degs)
        if f and g:
            check(("zx", "xy"), f.degree + g.degree <= degs)
            check(("zx", "smallterm"), any(
                (chain.a[k] * f + chain.b[k] * g).degree <= degs
                for k in range(chain.t + 1)))

    elapsed = time.perf_counter() - t0
    ok = not exceptions
    _report(5, "lemma invariant suite", ok,
            f"zero exceptions, {elapsed:.1f} s" if ok
            else f"{len(exceptions)} exceptions, first {exceptions[0]}")


def test_criterion_6_divisor_count_ceiling(z_corpus):
    t0 = time.perf_counter()
    worst = 0
    over = []
    for n, s, r, _dv in z_corpus:
        rep = divisors_rational(n, s, r)
        pos = sum(1 for d in rep.divisors if d > 0)
        worst = max(worst, pos)
        if pos > 12:
            over.append((n, s, r, pos))
    elapsed = time.perf_counter() - t0
    ok = not over
    _report(6, "divisor-count ceiling", ok,
            f"max positives {worst} of 12 allowed, {len(z_corpus)} instances, "
            f"{elapsed:.1f} s")


def test_criterion_7_complexity_scaling():
    t0 = time.perf_counter()
    rows = run_bench([10, 20, 30, 40], 20, seed=42)
    elapsed = time.perf_counter() - t0
    by_k = {row.k: row for row in rows}
    ops_ratio = by_k[40].mean_ops / by_k[10].mean_ops
    time_ratio = by_k[40].mean_s / by_k[10].mean_s
    ok = ops_ratio <= 12.0 and time_ratio < 30.0 and elapsed < 600.0
    _report(7, "complexity scaling", ok,
            f"ops 40/10 = {ops_ratio:.2f} (<= 12), time 40/10 = {time_ratio:.2f} "
            f"(< 30), {elapsed:.1f} s")


def test_criterion_8_poly_sqrt():
    t0 = time.perf_counter()
    rng = random.Random(808)
    bad_root = bad_reject = 0
    for _ in range(1000):
        deg = rng.randint(0, 10)
        coeffs = [rng.randint(-100, 100) for _ in range(deg)] + [1]
        p = Poly(coeffs)
        sq = p * p
        if poly_sqrt(sq) not in (p, -p):
            bad_root += 1
        qdeg = rng.randint(0, 8)
        q = Poly([rng.randint(-100, 100) for _ in range(qdeg)]
                 + [rng.randint(1, 100)])
        perturbed = sq + Poly([0] + list(q.coeffs))
        if poly_sqrt(perturbed) is not None:
            bad_reject += 1
    elapsed = time.perf_counter() - t0
    ok = bad_root == 0 and bad_reject == 0 and elapsed < 10.0
    _report(8, "polynomial square root", ok,
            f"1000 round-trips, 1000 rejections, {elapsed:.1f} s")

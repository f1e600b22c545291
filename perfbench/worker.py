"""Run one workload in this (fresh) process and print one JSON line.

Started by run.py, never by hand.  Three modes:

--setup-only   import, build the workload's pools, make the first block,
               report the time since --t0 (the parent's spawn time)
timed          the closed loop: one caller sends items one at a time, in
               whole blocks, until --seconds have passed and the workload's
               MIN_BLOCKS are done, timing the reference loop between
               items (reference.py), then checks every output with the
               clock stopped
--trace 1      a fixed prefix of blocks, each item run untraced and
               traced in alternating order (the overhead pairs), spans and
               counts from the traced runs
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import resdiv  # noqa: E402

if not Path(resdiv.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"resdiv imported from {resdiv.__file__}, not from the checkout")

from resdiv.base import RING_OPS  # noqa: E402

import workloads as W  # noqa: E402
from reference import REF_EVERY, reading_s, reference_s  # noqa: E402

OUT_DIR = ROOT / ".perfbench"
MAX_REASONS = 5
REF_WARMUP = 3  # untimed passes of the reference loop before the first reading


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run(item):
    """(output, error text) for one item; an exception is a failed item."""
    try:
        return W.run_item(item), None
    except Exception as exc:  # counted against fail_frac, never fatal
        return None, f"{type(exc).__name__}: {exc}"


def _check_all(results, failures: dict[int, str]) -> dict[int, str]:
    """Add each failed item's first failure reason, keyed by item index."""
    import checks

    for item, out, err in results:
        why = err or checks.check_item(item, out)
        if why:
            failures.setdefault(item.index, f"item {item.index} ({item.label}): {why}")
    return failures


def timed(args, blocks, block) -> dict:
    """Whole blocks until --seconds have passed and the workload's
    MIN_BLOCKS are done, with a reading of the host's speed before the
    first item, whenever REF_EVERY seconds of work have passed, and after
    the last item (reference.py).  The gated figures are in refs, wall
    time over the median reading; the wall-clock figures are reported
    beside them."""
    lat = []
    results = []
    for _ in range(REF_WARMUP):
        reference_s()
    readings = [reading_s()]
    deadline = perf_counter() + args.seconds
    since = 0.0
    for done in itertools.count(1):
        for item in block:
            t = perf_counter()
            out, err = _run(item)
            dt = perf_counter() - t
            lat.append(dt)
            results.append((item, out, err))
            since += dt
            if since >= REF_EVERY:
                readings.append(reading_s())
                since = 0.0
        if perf_counter() >= deadline and done >= W.MIN_BLOCKS[args.workload]:
            break
        block = next(blocks)
    readings.append(reading_s())
    rss = _peak_rss_mb()
    failures = _check_all(results, {})
    n = len(lat)
    ref = statistics.median(readings)
    crossing = [t for t, (it, _, _) in zip(lat, results) if it.crossing]
    p90 = statistics.quantiles(lat, n=10)[-1] if n >= 2 else lat[0]
    return {
        "correct": not failures,
        "attempted": n,
        "failed": len(failures),
        "reasons": list(failures.values())[:MAX_REASONS],
        "instances_per_ref": n * ref / sum(lat),
        "latency_ref_p50": statistics.median(lat) / ref,
        "instances_per_s": n / sum(lat),
        "latency_ms_p50": 1000 * statistics.median(lat),
        "latency_ms_p90": 1000 * p90,
        "beyond_p90": sum(1 for x in lat if x > p90),
        "ref_ms": 1000 * ref,
        "readings": len(readings),
        "peak_rss_mb": rss,
        "crossing": len(crossing),
        "crossing_s": sum(crossing),
    }


def _fingerprint(item, out):
    """What must not change between an untraced and a traced run."""
    if out is None:
        return None
    if item.kind == "search":
        s = out.stats
        return (out.divisors, s["t"], s["candidates"], s["solves"])
    if item.kind == "family":
        return out.divisors
    return (out.checked, tuple(h.N for h in out.hits))


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "resdiv").glob("*.py")) + sorted(
        Path(__file__).resolve().parent.glob("*.py")
    ):
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _same_as_last_run(workload, seed, counts) -> bool:
    """Exact counts must repeat for a seed: compare with the counts an
    earlier traced run of the same code and seed left behind."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"counts-{workload}-{seed}-{_source_digest()}.json"
    if path.exists():
        return json.loads(path.read_text()) == counts
    path.write_text(json.dumps(counts, sort_keys=True))
    return True


def traced(args) -> dict:
    import numpy as np

    from tracing import ITEM, NAMES, Tracer, busy_and_self, layer_shares

    tracer = Tracer()
    tracer.install()
    pool_points = W.warm_pools(args.workload)
    tracer.uninstall()
    items = [item for block in itertools.islice(W.blocks(args.workload, args.seed),
                                                W.TRACE_BLOCKS[args.workload])
             for item in block]
    traced_item = tracer.wrap(ITEM, W.run_item)

    def plain(item):
        RING_OPS.reset()
        t = perf_counter()
        out, err = _run(item)
        return perf_counter() - t, RING_OPS.ops, out, err

    def spanned(item):
        tracer.current_request = item.index
        tracer.install()
        RING_OPS.reset()
        t = perf_counter()
        try:
            out, err = traced_item(item), None
        except Exception as exc:
            out, err = None, f"{type(exc).__name__}: {exc}"
        dt = perf_counter() - t
        tracer.uninstall()
        return dt, RING_OPS.ops, out, err

    untraced_s = traced_s = 0.0
    ops_total = 0
    results = []
    failures = {}
    for k, item in enumerate(items):
        if item.crossing:
            # a crossing item runs for tens of seconds; trace it once
            _, ops, out, err = spanned(item)
        else:
            # alternate which run goes first, so warm caches favour neither
            if k % 2 == 0:
                tu, ops_u, out_u, _ = plain(item)
                tt, ops, out, err = spanned(item)
            else:
                tt, ops, out, err = spanned(item)
                tu, ops_u, out_u, _ = plain(item)
            untraced_s += tu
            traced_s += tt
            if ops_u != ops or _fingerprint(item, out_u) != _fingerprint(item, out):
                failures[item.index] = f"item {item.index}: counts differ between runs"
        ops_total += ops
        results.append((item, out, err))
    _check_all(results, failures)
    reasons = list(failures.values())

    spans = tracer.arrays()
    OUT_DIR.mkdir(exist_ok=True)
    np.savez(OUT_DIR / f"trace-{args.workload}-{args.seed}.npz",
             names=np.array(NAMES), **spans)

    counts = dict(tracer.counts, **{"rings.ops": ops_total})
    repeatable = _same_as_last_run(args.workload, args.seed, counts)
    if not repeatable:
        reasons.append("exact counts differ from an earlier run with this seed")

    n = len(items)
    ids = [it.index for it in items]
    busy, own = busy_and_self(spans, ids)
    setup_busy, _ = busy_and_self(spans, [-1])
    c = tracer.counts
    per = {
        "fastscan.row_candidates.busy_ms": 1000 * busy["fastscan.fast_row_candidates"] / n,
        "fastscan.rows": c["fastscan.rows"] / n,
        "fastscan.candidates": c["fastscan.candidates"] / n,
        "fastscan.survivor_ratio": c["fastscan.candidates"] / c["fastscan.row_points"]
        if c["fastscan.row_points"] else 0.0,
        "fastscan.get_pool.busy_s": busy["fastscan.get_pool"] + setup_busy["fastscan.get_pool"],
        "fastscan.pool_points": pool_points,
        "solver.solve_system.busy_ms": 1000 * busy["solver.solve_system"] / n,
        "solver.solve_calls": c["solver.solve_calls"] / n,
        "solver.accepted": c["solver.accepted"] / n,
        "solver.accept_ratio": c["solver.accepted"] / c["solver.solve_calls"]
        if c["solver.solve_calls"] else 0.0,
        "solver.poly_rhs_candidates.busy_ms": 1000 * busy["solver.poly_rhs_candidates"] / n,
        "solver.trivial_divisor_check.busy_ms": 1000 * busy["solver.trivial_divisor_check"] / n,
        "remseq.build_instance.busy_ms": 1000 * busy["remseq.build_instance"] / n,
        "remseq.build_chain.busy_ms": 1000 * busy["remseq.build_chain"] / n,
        "remseq.chain_rows": c["remseq.chain_rows"] / n,
        "algorithms.find_divisors.self_ms": 1000 * own["algorithms.find_divisors"] / n,
        "families.verify_family.self_ms": 1000 * own["families.verify_family"] / n,
        "families.search_records.self_ms": 1000 * own["families.search_records"] / n,
        "families.checked": c["families.checked"] / n,
        "families.hits": c["families.hits"] / n,
        "oracle.rational.busy_ms": 1000 * busy["oracle.rational"] / n,
        "rings.ops": ops_total / n,
        "trace.overhead_frac": traced_s / untraced_s - 1 if untraced_s else 0.0,
    }
    shares = {"all": layer_shares(own)}
    crossing = [it.index for it in items if it.crossing]
    if crossing:
        shares["crossing"] = layer_shares(busy_and_self(spans, crossing)[1])
        bulk = [i for i in ids if i not in crossing]
        shares["bulk"] = layer_shares(busy_and_self(spans, bulk)[1])
    return {
        "correct": not failures and repeatable,
        "attempted": n,
        "failed": len(failures),
        "reasons": reasons[:MAX_REASONS],
        "per_layer": per,
        "shares": shares,
        "crossing": len(crossing),
        "spans": int(spans["name"].size),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=list(W.STREAMS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    if args.trace:
        res = traced(args)
    else:
        W.warm_pools(args.workload)
        blocks = W.blocks(args.workload, args.seed)
        first = next(blocks)
        setup_s = time.time() - args.t0
        if args.setup_only:
            res = {"setup_s": setup_s}
        else:
            res = dict(timed(args, blocks, first), setup_s=setup_s)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())

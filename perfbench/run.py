"""The resdiv benchmark: every workload, every output checked.

    python3 perfbench/run.py --workload zi-scale --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 [--trace 1]

Run from the root of a source checkout; the package is imported from its
src/ directory, never from an installed copy.  Each workload runs in its own
fresh process (worker.py), so set-up time and peak memory never carry over
pools built for another workload.  The load is a closed loop: one caller in
one process sends the next item when the previous one completes.

With --trace 0 the end-to-end metrics of BENCHMARK.json are measured with
tracing off.  Throughput and latency are gated in refs, wall time over
the median of readings of the host's speed taken through the run
(reference.py), because the shared host's speed drifts more than a gate
could allow; the summary gives the wall-clock figures beside them.  Set-up time is the
median of several fresh set-ups.  With
--trace 1 a separate traced run gives the per-layer metrics.  A readable
summary comes first; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  fail_frac is
failed / attempted.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 7  # fresh set-ups per timed run, the measured one included
RUN_LIMIT_S = 170  # each workload's processes end within this


class BenchError(RuntimeError):
    pass


def _spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path.name} not found; run from the root of a checkout")
    return json.loads(path.read_text())


def _spawn(workload, args, deadline, *, setup_only=False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--t0", repr(time.time())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: worker still running after the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def _timed(workload, args, spec, deadline) -> tuple[dict, dict]:
    setups = [_spawn(workload, args, deadline, setup_only=True)["setup_s"]
              for _ in range(SETUP_RUNS - 1)]
    res = _spawn(workload, args, deadline)
    setups.append(res["setup_s"])
    values = dict(res, setup_s=statistics.median(setups))
    metrics = {m["name"]: _metric(values[m["name"]], m["unit"]) for m in spec["end_to_end"]}

    n = res["attempted"]
    print(f"{workload}  seed {args.seed}  closed loop, 1 caller, {args.seconds} s:"
          f" {n} items")
    for name, m in metrics.items():
        print(f"  {name:<18} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':<18} {res['failed'] / n:.6g}  ({res['failed']}/{n})")
    print(f"  1 ref = {res['ref_ms']:.4g} ms, the median of {res['readings']}"
          " readings of the reference loop (reference.py); wall clock:")
    print(f"  {'instances_per_s':<18} {res['instances_per_s']:.6g} 1/s")
    print(f"  {'latency_ms_p50':<18} {res['latency_ms_p50']:.6g} ms")
    if res["beyond_p90"] >= 10:
        print(f"  {'latency_ms_p90':<18} {res['latency_ms_p90']:.6g} ms"
              f"  (n={n}, {res['beyond_p90']} beyond)")
    else:
        print(f"  {'latency_ms_p90':<18} not reported: n={n},"
              f" only {res['beyond_p90']} samples beyond p90")
    print(f"  setup_s is the median of {len(setups)} fresh set-ups")
    if workload == "quad-general":
        print(f"  instances crossing normsq(N) >= 2^63: {res['crossing']} of {n},"
              f" {res['crossing_s']:.4g} s in all")
    return res, metrics


def _traced(workload, args, spec, deadline) -> tuple[dict, dict]:
    res = _spawn(workload, args, deadline)
    per = res["per_layer"]
    metrics = {m["name"]: _metric(per[m["name"]], m["unit"]) for m in spec["per_layer"]}

    print(f"{workload}  seed {args.seed}  traced: {res['attempted']} items,"
          f" {res['spans']} spans, {res['crossing']} crossing the int64 guard")
    for part, shares in res["shares"].items():
        text = ", ".join(f"{layer} {100 * s:.1f}%" for layer, s in shares.items() if s)
        print(f"  self time by layer ({part} items): {text}")
    for name, m in metrics.items():
        print(f"  {name:<38} {m['value']:.6g} {m['unit']}")
    print("  expected to move (layer_map.json):")
    for row in json.loads((HERE / "layer_map.json").read_text())["rows"]:
        for mv in row["moves"]:
            if workload in mv["workloads"]:
                print(f"    {', '.join(row['metrics'])} -> {mv['metric']}")
    return res, metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        spec = _spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload != "all" and args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; one of {names} or all")
        if not (ROOT / "src" / "resdiv" / "__init__.py").is_file():
            raise BenchError("src/resdiv not found; run from the root of a checkout")
        chosen = names if args.workload == "all" else [args.workload]
        run = _traced if args.trace else _timed
        out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in chosen:
            deadline = time.monotonic() + RUN_LIMIT_S
            res, metrics = run(workload, args, spec, deadline)
            for reason in res["reasons"]:
                print(f"  FAILED {reason}")
            out["correct"] = out["correct"] and res["correct"]
            out["attempted"] += res["attempted"]
            out["failed"] += res["failed"]
            prefix = f"{workload}." if len(chosen) > 1 else ""
            out["metrics"].update({prefix + k: v for k, v in metrics.items()})
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

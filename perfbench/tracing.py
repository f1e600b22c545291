"""Spans and counts around the package's public calls, kept in memory.

A traced run replaces the module attributes through which the package
calls its own layers (resdiv.algorithms.solve_system, resdiv.fastscan.
get_pool, ...) with wrappers that record a span per call: name, start,
end, parent span and the request (benchmark item) it belongs to.  The
wrappers live here, outside the package, and are removed again after each
traced item, so untraced runs execute the package unmodified.  Exact counts
are taken from the wrapped calls' results at the same boundaries.
"""

from __future__ import annotations

from array import array
from time import perf_counter

import numpy as np

from resdiv import algorithms, families, fastscan

ITEM = "bench.item"


def _rows(counts, out, args):
    counts["fastscan.rows"] += 1
    counts["fastscan.candidates"] += len(out)
    counts["fastscan.row_points"] += args[4].lu.size


def _solves(counts, out, args):
    counts["solver.solve_calls"] += 1
    counts["solver.accepted"] += len(out)


def _chain(counts, out, args):
    counts["remseq.chain_rows"] += out.t


def _hunt(counts, out, args):
    counts["families.checked"] += out.checked
    counts["families.hits"] += len(out.hits)


# (module, attribute, span name, count hook); the attribute is where the
# caller looks the function up, which is not always the defining module
PATCHES = (
    (algorithms, "find_divisors", "algorithms.find_divisors", None),
    (algorithms, "build_instance", "remseq.build_instance", None),
    (algorithms, "build_chain", "remseq.build_chain", _chain),
    (algorithms, "trivial_divisor_check", "solver.trivial_divisor_check", None),
    (algorithms, "poly_rhs_candidates", "solver.poly_rhs_candidates", None),
    (algorithms, "solve_system", "solver.solve_system", _solves),
    (fastscan, "get_pool", "fastscan.get_pool", None),
    (fastscan, "fast_row_candidates", "fastscan.fast_row_candidates", _rows),
    (families, "divisors_rational", "algorithms.divisors_rational", None),
    (families, "verify_family", "families.verify_family", None),
    (families, "search_records", "families.search_records", _hunt),
    (families, "oracle_rational", "oracle.rational", None),
)
NAMES = (ITEM,) + tuple(p[2] for p in PATCHES)
COUNTS = (
    "fastscan.rows", "fastscan.candidates", "fastscan.row_points",
    "solver.solve_calls", "solver.accepted", "remseq.chain_rows",
    "families.checked", "families.hits",
)


class Tracer:
    """Span store (parallel arrays, one entry per call) plus counters."""

    def __init__(self) -> None:
        self.name = array("b")
        self.parent = array("q")
        self.request = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts = dict.fromkeys(COUNTS, 0)
        self.current_request = -1
        self._stack: list[int] = []
        self._saved: list = []

    def wrap(self, span_name: str, fn, hook=None):
        nid = NAMES.index(span_name)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.request.append(self.current_request)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if hook is not None:
                hook(self.counts, out, args)
            return out

        return traced

    def install(self) -> None:
        for module, attr, span_name, hook in PATCHES:
            orig = getattr(module, attr)
            self._saved.append((module, attr, orig))
            setattr(module, attr, self.wrap(span_name, orig, hook))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int8).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "request": np.frombuffer(self.request, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }


def busy_and_self(spans: dict[str, np.ndarray], requests=None):
    """Per span name: total duration and self time (duration minus the
    part its child spans cover), in seconds, optionally restricted to a
    set of request ids."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=dur.size)
    self_t = dur - child
    keep = np.ones(dur.size, dtype=bool)
    if requests is not None:
        keep = np.isin(spans["request"], np.asarray(list(requests), dtype=np.int64))
    busy = {}
    own = {}
    for nid, name in enumerate(NAMES):
        sel = keep & (spans["name"] == nid)
        busy[name] = float(dur[sel].sum())
        own[name] = float(self_t[sel].sum())
    return busy, own


def layer_shares(own: dict[str, float]) -> dict[str, float]:
    """Self time summed by layer (the module part of each span name), as a
    share of all traced item time; "bench" is the benchmark's own loop."""
    total = sum(own.values())
    shares: dict[str, float] = {}
    for name, t in own.items():
        layer = name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + (t / total if total else 0.0)
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))

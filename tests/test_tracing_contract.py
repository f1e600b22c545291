"""The benchmark's tracer wraps package functions by module attribute; a
refactor that drops one of those call sites, or changes what a count hook
reads, fails here, not in a traced benchmark run."""

import random

from conftest import perfbench_module

from resdiv import algorithms, families
from resdiv.base import RING_OPS
from resdiv.bench import sample_instance
from resdiv.fastscan import get_pool
from resdiv.remseq import build_instance
from resdiv.rings import RING_Z


def test_every_traced_call_site_exists():
    patches = perfbench_module("tracing").PATCHES
    assert len(patches) >= 12
    for module, attr, span, _ in patches:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({span})"


def test_count_hooks_run_on_every_kind_of_search():
    # one Z[i] search (fastscan rows), one Z search and one record hunt,
    # through the module attributes the benchmark calls, with the tracer in
    tracing = perfbench_module("tracing")
    before = [getattr(module, attr) for module, attr, _, _ in tracing.PATCHES]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        zi = algorithms.find_divisors(sample_instance(random.Random(5), 12))
        z = algorithms.find_divisors(build_instance(RING_Z, 1001 * 2003, 1000, 1))
        hunt = families.search_records([11], target=3, r=1, max_checks=20)
    finally:
        tracer.uninstall()
    assert zi.stats["t"] and 1001 in z.divisors and hunt.checked
    for name in ("fastscan.rows", "fastscan.row_points", "solver.solve_calls",
                 "remseq.chain_rows", "families.checked"):
        assert tracer.counts[name] > 0, name
    # one fast_row_candidates call per Z[i] chain row, each over the whole
    # pool (Z searches use no pool), and the sieve's survivors are the
    # search's candidates
    assert tracer.counts["fastscan.rows"] == zi.stats["t"]
    assert tracer.counts["fastscan.candidates"] == zi.stats["candidates"]
    assert (tracer.counts["fastscan.row_points"]
            == tracer.counts["fastscan.rows"] * get_pool(-1).lu.size)
    assert len(tracer.start) > 0
    after = [getattr(module, attr) for module, attr, _, _ in tracing.PATCHES]
    assert all(a is b for a, b in zip(after, before))


def test_repeated_search_counts_the_same():
    # a traced benchmark run searches each item twice, once with spans and
    # once without, and fails it unless both count the same ring operations
    # and report the same; what one search caches in the instance must not
    # change the next, nor stay behind (a timed run keeps every item)
    inst = sample_instance(random.Random(6), 20)
    runs = []
    for _ in range(2):
        RING_OPS.reset()
        rep = algorithms.find_divisors(inst)
        runs.append((RING_OPS.ops, rep.divisors, rep.stats["candidates"]))
        assert inst._terms is None
    assert runs[0] == runs[1] and runs[0][0] > 0

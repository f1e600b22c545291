import random

import pytest

from resdiv.bench import (
    BenchRow,
    format_csv,
    format_dat,
    run_bench,
    sample_instance,
    scale_bounds,
)
from resdiv.rings import RING_Z, RING_ZI, RING_ZX, quad_ring


def test_scale_bounds_frozen():
    assert scale_bounds(10) == (2155, 4641)


def test_scale_bounds_are_exact():
    for k in (5, 10, 20, 30, 40):
        lo, hi = scale_bounds(k)
        assert lo**3 >= 10**k > (lo - 1) ** 3
        assert hi**3 < 10 ** (k + 1) <= (hi + 1) ** 3


def test_sample_instance_constraints():
    rng = random.Random(99)
    for ring in (RING_ZI, quad_ring(-3)):
        lo_s, hi_s = scale_bounds(10)
        for _ in range(8):
            inst = sample_instance(rng, 10, ring)
            assert inst.ring is ring
            n, s, r = inst.N, inst.S, inst.r
            assert 10**10 <= abs(n.u) // 2 < 10**11
            assert 10**10 <= abs(n.v) // 2 < 10**11
            assert lo_s <= s.u // 2 <= hi_s
            assert lo_s <= s.v // 2 <= hi_s
            assert 2 * r.normsq() <= s.normsq()
            assert s.normsq() ** 3 >= n.normsq()


def test_sample_instance_deterministic():
    a = sample_instance(random.Random(7), 12)
    b = sample_instance(random.Random(7), 12)
    assert (a.N, a.S, a.r) == (b.N, b.S, b.r)


def test_sample_instance_ring_guard():
    with pytest.raises(ValueError):
        sample_instance(random.Random(0), 5, RING_Z)
    with pytest.raises(ValueError):
        sample_instance(random.Random(0), 5, RING_ZX)


def test_run_bench_ring_guard():
    # the ring is checked before any pool is built for it
    for ring in (RING_Z, RING_ZX):
        with pytest.raises(ValueError):
            run_bench([5], 1, 0, ring)


def test_run_bench_rows():
    rows = run_bench([5, 6], 3, seed=1)
    assert [row.k for row in rows] == [5, 6]
    for row in rows:
        assert row.samples == 3
        assert 0 <= row.min_s <= row.mean_s <= row.max_s
        assert row.mean_ops > 0


def test_format_csv():
    rows = [BenchRow(10, 0.5, 0.25, 1.0, 4, 123.0),
            BenchRow(20, 1.5, 1.0, 2.0, 4, 456.0)]
    text = format_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "k,mean_s,min_s,max_s,samples"
    assert lines[1] == "10,0.5,0.25,1,4"
    assert len(lines) == 3 and text.endswith("\n")


def test_format_dat():
    rows = [BenchRow(10, 0.5, 0.25, 1.0, 4, 123.0)]
    text = format_dat(rows)
    lines = text.splitlines()
    assert lines[0] == "# k mean_s min_s max_s samples"
    assert lines[1].split() == ["10", "0.5", "0.25", "1", "4"]

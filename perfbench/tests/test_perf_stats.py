"""Percentiles with sample counts, failures as +inf, and self time."""

import math

import pytest

from pb import tracing
from pb.stats import FAILED, TailTooThin, percentile, self_time, union_length


def test_percentile_carries_its_sample_count():
    found = percentile(range(1, 101), 90)
    assert (found.value, found.count, found.beyond) == (90, 100, 10)


def test_percentile_refuses_a_tail_with_fewer_than_ten_beyond():
    with pytest.raises(TailTooThin):
        percentile(range(1, 100), 90)  # rank 90 of 99: nine beyond
    with pytest.raises(TailTooThin):
        percentile(range(1, 1000), 99)
    assert percentile(range(1, 1001), 99).beyond == 10


def test_percentile_refuses_an_empty_sample():
    with pytest.raises(TailTooThin):
        percentile([], 50)


def test_failures_enter_as_infinity():
    ok = [float(v) for v in range(1, 91)]
    tail = percentile(ok + [FAILED] * 20, 90)
    assert math.isinf(tail.value)
    assert percentile(ok + [FAILED] * 20, 50).value == 55.0
    # a failure never makes a percentile look better than without it
    assert percentile(ok + [FAILED] * 11, 50).value >= percentile(ok, 50).value


def test_union_counts_overlaps_once():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([]) == 0
    assert union_length([(2, 2), (3, 1)]) == 0


def test_self_time_subtracts_overlapping_children_once():
    # two pool workers' jobs overlap inside one engine.run span
    assert self_time(0, 10, [(1, 5), (3, 8)]) == 3
    # children poking outside the parent are clipped, not over-subtracted
    assert self_time(0, 10, [(-5, 2), (9, 20)]) == 7
    assert self_time(0, 10, [(0, 10), (0, 10)]) == 0


def test_nested_spans_self_times_add_up_to_the_root():
    recorder = tracing.new_recorder()
    with tracing.span(recorder, "root"):
        with tracing.span(recorder, "child"):
            with tracing.span(recorder, "grandchild"):
                pass
    table = tracing.layer_table(recorder)
    total = sum(row["self_s"] for row in table.values())
    assert total == pytest.approx(table["root"]["total_s"], abs=1e-9)
    assert {name: row["calls"] for name, row in table.items()} == {
        "root": 1, "child": 1, "grandchild": 1}


def test_layer_table_does_not_double_subtract_pool_jobs():
    """Two pool workers' jobs recorded under one span overlap in time."""
    recorder = tracing.new_recorder()
    tracing.record(recorder, "engine.run", 0, 10_000_000_000)
    (run,) = recorder.spans()
    tracing.record(recorder, "engine.pool.job", 1_000_000_000, 5_000_000_000, parent=run)
    tracing.record(recorder, "engine.pool.job", 3_000_000_000, 8_000_000_000, parent=run)
    table = tracing.layer_table(recorder)
    assert table["engine.run"]["self_s"] == pytest.approx(3.0)
    assert table["engine.pool.job"] == {"calls": 2, "total_s": 9.0, "self_s": 9.0}

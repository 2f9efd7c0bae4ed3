"""The result line holds exactly the metrics BENCHMARK.json lists, and
the serve schedule's mix of costs does not depend on the seed."""

from collections import Counter

import pytest

import run
from pb import serve
from pb.common import metric


def test_every_workload_can_fill_the_end_to_end_metrics():
    units = run.manifest_units(0)
    assert units == {"setup_s": "s", "peak_rss_mb": "MB", "latency_ms": "ms"}


def test_missing_per_layer_metrics_read_zero_in_their_unit():
    units = run.manifest_units(1)
    metrics = {"simcore.run.self_s": metric(1.5, "s")}
    missing = run.complete(metrics, trace=1)
    assert "simcore.run.self_s" not in missing
    assert set(metrics) == set(units)
    assert metrics["serve.job.p50_ms"] == {"value": 0, "unit": "ms"}
    assert metrics["simcore.run.self_s"]["value"] == 1.5


def test_missing_end_to_end_metric_is_reported_not_filled():
    metrics = {"setup_s": metric(0.3, "s"), "peak_rss_mb": metric(40.0, "MB")}
    assert run.complete(metrics, trace=0) == ["latency_ms"]
    assert "latency_ms" not in metrics


@pytest.mark.parametrize("metrics", [
    {"jobs_per_s": metric(18.0, "jobs/s")},
    {"latency_ms": metric(0.02, "s")},
])
def test_unlisted_metric_or_unit_is_a_benchmark_fault(metrics):
    with pytest.raises(RuntimeError, match="differ from BENCHMARK.json"):
        run.complete(metrics, trace=0)


def _mix(seed):
    ops = serve.make_schedule(seed, 20.0)
    return (
        Counter(op.kind for op in ops),
        Counter((op.kind, op.specs[0]["benchmark"]) for op in ops if op.kind in ("repeat", "fetch")),
        Counter(spec["benchmark"] for op in ops if op.kind in ("run", "burst", "mixed")
                for spec in op.specs),
        sum(1 for op in ops if op.kind == "step"
            and len(op.step["occupancy"]) == serve.LONG_SAMPLES),
    )


def test_serve_schedule_mix_does_not_depend_on_the_seed():
    first = _mix(1)
    for seed in (2, 3, 41293330):
        assert _mix(seed) == first
    repeats = {bench: n for (kind, bench), n in first[1].items() if kind == "repeat"}
    assert len(set(repeats.values())) == 1 and len(repeats) == len(serve.BENCHMARKS)
    assert first[3] == round(serve.LONG_STEP_SHARE * first[0]["step"])

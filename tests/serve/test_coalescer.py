"""Tests for the request coalescer.

The contract under test (the service's central claim): N concurrent
single-run submissions produce at most ceil(N / max_batch) ``run_batch``
calls, and every caller gets a result byte-identical to what a direct
serial ``run_experiment`` would have produced.
"""

import asyncio
import json
import math

import pytest

from repro.engine.jobs import SweepJob
from repro.harness.experiment import run_experiment
from repro.harness.persistence import result_to_dict
from repro.obs.spans import SpanRecorder
from repro.serve.coalescer import RequestCoalescer, group_key


def make_job(seed=1, **kwargs):
    kwargs.setdefault("max_instructions", 1500)
    return SweepJob.make("adpcm-encode", seed=seed, **kwargs)


class TestGroupKey:
    def test_seed_is_not_part_of_the_key(self):
        assert group_key(make_job(seed=1)) == group_key(make_job(seed=2))

    def test_everything_else_is(self):
        base = group_key(make_job())
        assert group_key(make_job(scheme="pid")) != base
        assert group_key(make_job(max_instructions=2000)) != base
        assert group_key(make_job(record_history=True)) != base


class FakeBatcher:
    """Records run_batch calls; returns one marker result per seed."""

    def __init__(self):
        self.calls = []

    def __call__(self, benchmark, scheme="adaptive", seeds=(), **kwargs):
        seeds = list(seeds)
        self.calls.append({"benchmark": benchmark.name, "scheme": scheme,
                           "seeds": seeds})
        return [f"{benchmark.name}/{scheme}/seed={s}" for s in seeds]


def submit_all(coalescer, jobs):
    async def _main():
        results = await asyncio.gather(
            *[coalescer.submit(job) for job in jobs]
        )
        await coalescer.drain()
        return results

    return asyncio.run(_main())


class TestBatching:
    def test_full_batch_cuts_immediately(self):
        batcher = FakeBatcher()
        coalescer = RequestCoalescer(
            max_batch=4, max_delay_s=60.0, run_batch_fn=batcher
        )
        jobs = [make_job(seed=s) for s in range(1, 5)]
        results = submit_all(coalescer, jobs)
        # one batch, one group, seeds in submission order
        assert len(batcher.calls) == 1
        assert batcher.calls[0]["seeds"] == [1, 2, 3, 4]
        assert results == [f"adpcm-encode/adaptive/seed={s}" for s in (1, 2, 3, 4)]

    def test_partial_batch_flushes_on_timer(self):
        batcher = FakeBatcher()
        coalescer = RequestCoalescer(
            max_batch=8, max_delay_s=0.01, run_batch_fn=batcher
        )
        results = submit_all(coalescer, [make_job(seed=7)])
        assert len(batcher.calls) == 1
        assert results == ["adpcm-encode/adaptive/seed=7"]

    def test_ceiling_bound_on_run_batch_calls(self):
        batcher = FakeBatcher()
        n, max_batch = 10, 4
        coalescer = RequestCoalescer(
            max_batch=max_batch, max_delay_s=0.01, run_batch_fn=batcher
        )
        jobs = [make_job(seed=s) for s in range(n)]
        submit_all(coalescer, jobs)
        assert len(batcher.calls) <= math.ceil(n / max_batch)
        assert sorted(s for c in batcher.calls for s in c["seeds"]) == list(range(n))

    def test_heterogeneous_jobs_split_into_groups(self):
        batcher = FakeBatcher()
        coalescer = RequestCoalescer(
            max_batch=4, max_delay_s=0.01, run_batch_fn=batcher
        )
        jobs = [
            make_job(seed=1),
            make_job(seed=2, scheme="pid"),
            make_job(seed=3),
        ]
        results = submit_all(coalescer, jobs)
        # one flush, two groups -> two run_batch calls
        assert len(batcher.calls) == 2
        by_scheme = {c["scheme"]: c["seeds"] for c in batcher.calls}
        assert by_scheme == {"adaptive": [1, 3], "pid": [2]}
        # each caller still got its own seed's result
        assert results[1] == "adpcm-encode/pid/seed=2"

    def test_batch_failure_propagates_to_all_awaiters(self):
        def exploding(*args, **kwargs):
            raise RuntimeError("backend down")

        coalescer = RequestCoalescer(
            max_batch=2, max_delay_s=0.01, run_batch_fn=exploding
        )

        async def _main():
            return await asyncio.gather(
                coalescer.submit(make_job(seed=1)),
                coalescer.submit(make_job(seed=2)),
                return_exceptions=True,
            )

        results = asyncio.run(_main())
        assert all(isinstance(r, RuntimeError) for r in results)
        assert all("backend down" in str(r) for r in results)

    def test_stats_accounting(self):
        batcher = FakeBatcher()
        coalescer = RequestCoalescer(
            max_batch=2, max_delay_s=0.01, run_batch_fn=batcher
        )
        submit_all(coalescer, [make_job(seed=s) for s in range(4)])
        stats = coalescer.stats()
        assert stats["submitted"] == 4
        assert stats["batched_runs"] == 4
        assert stats["run_batch_calls"] == len(batcher.calls)
        assert stats["pending"] == 0

    @pytest.mark.parametrize("bad", [dict(max_batch=0), dict(max_delay_s=-1)])
    def test_invalid_config_rejected(self, bad):
        with pytest.raises(ValueError):
            RequestCoalescer(**bad)


class TestSpans:
    """Each flush records one ``coalescer.flush`` span with one
    ``coalescer.run_batch`` child per config group."""

    @staticmethod
    def _by_name(tracer):
        spans = {}
        for span in tracer.spans():
            spans.setdefault(span["name"], []).append(span)
        return spans

    def test_flush_and_group_spans_are_recorded(self):
        tracer = SpanRecorder()
        coalescer = RequestCoalescer(
            max_batch=4, max_delay_s=0.01, run_batch_fn=FakeBatcher(),
            tracer=tracer,
        )
        submit_all(coalescer, [
            make_job(seed=1),
            make_job(seed=2, scheme="pid"),
            make_job(seed=3),
        ])
        spans = self._by_name(tracer)
        (flush,) = spans["coalescer.flush"]
        assert flush["attrs"] == {"requests": 3, "groups": 2}
        groups = spans["coalescer.run_batch"]
        assert sorted(g["attrs"]["runs"] for g in groups) == [1, 2]
        for group in groups:
            assert group["parent_id"] == flush["span_id"]
            assert group["trace_id"] == flush["trace_id"]
            assert "error" not in group["attrs"]

    def test_failed_group_span_is_recorded_with_its_error(self):
        def exploding(*args, **kwargs):
            raise RuntimeError("backend down")

        tracer = SpanRecorder()
        coalescer = RequestCoalescer(
            max_batch=2, max_delay_s=0.01, run_batch_fn=exploding,
            tracer=tracer,
        )

        async def _main():
            return await asyncio.gather(
                coalescer.submit(make_job(seed=1)),
                coalescer.submit(make_job(seed=2)),
                return_exceptions=True,
            )

        assert all(isinstance(r, RuntimeError) for r in asyncio.run(_main()))
        spans = self._by_name(tracer)
        (flush,) = spans["coalescer.flush"]
        (group,) = spans["coalescer.run_batch"]
        assert group["parent_id"] == flush["span_id"]
        assert group["attrs"]["error"] == "RuntimeError: backend down"


class TestSerialIdentity:
    """Coalesced execution is byte-identical to serial run_experiment."""

    N = 6
    MAX_BATCH = 3

    def test_concurrent_submissions_match_serial_results(self):
        counting = {"calls": 0}
        from repro.simcore import run_batch

        def counted_run_batch(*args, **kwargs):
            counting["calls"] += 1
            return run_batch(*args, **kwargs)

        coalescer = RequestCoalescer(
            max_batch=self.MAX_BATCH,
            max_delay_s=0.05,
            run_batch_fn=counted_run_batch,
        )
        jobs = [make_job(seed=seed) for seed in range(1, self.N + 1)]
        coalesced = submit_all(coalescer, jobs)

        assert counting["calls"] <= math.ceil(self.N / self.MAX_BATCH)

        for job, result in zip(jobs, coalesced):
            serial = run_experiment(
                "adpcm-encode",
                scheme="adaptive",
                seed=job.seed,
                max_instructions=1500,
                record_history=False,
            )
            coalesced_bytes = json.dumps(
                result_to_dict(result), sort_keys=True
            )
            serial_bytes = json.dumps(result_to_dict(serial), sort_keys=True)
            assert coalesced_bytes == serial_bytes, (
                f"seed {job.seed}: coalesced result diverged from serial"
            )

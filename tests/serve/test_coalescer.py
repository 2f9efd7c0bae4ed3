"""Tests for the request coalescer.

The contract under test (the service's central claim): N concurrent
single-run submissions produce at most ceil(N / max_batch) engine calls,
each request is settled from its own job outcome, and every caller gets
a result byte-identical to what a direct serial ``run_experiment`` would
have produced.
"""

import asyncio
import dataclasses
import json
import math

import pytest

from repro.engine.jobs import SweepJob, run_job
from repro.engine.scheduler import SweepEngine
from repro.harness.experiment import run_experiment
from repro.harness.persistence import result_to_dict
from repro.obs.spans import SpanRecorder
from repro.serve.coalescer import RequestCoalescer


def make_job(seed=1, **kwargs):
    kwargs.setdefault("max_instructions", 1500)
    return SweepJob.make("adpcm-encode", seed=seed, **kwargs)


def marker(job):
    """A fake runner: one marker "result" per job, no simulation."""
    return f"{job.benchmark.name}/{job.scheme}/seed={job.seed}"


class Backend:
    """An engine factory that records the jobs of every engine call."""

    def __init__(self, runner=marker, **engine_kwargs):
        self.runner = runner
        self.engine_kwargs = engine_kwargs
        self.calls = []

    def __call__(self):
        engine = SweepEngine(runner=self.runner, **self.engine_kwargs)
        run = engine.run

        def recorded(jobs):
            self.calls.append(list(jobs))
            return run(jobs)

        engine.run = recorded
        return engine

    def seeds(self):
        return [[job.seed for job in jobs] for jobs in self.calls]


def submit_all(coalescer, jobs):
    async def _main():
        results = await asyncio.gather(
            *[coalescer.submit(job) for job in jobs], return_exceptions=True
        )
        await coalescer.drain()
        return results

    return asyncio.run(_main())


def exploding_factory():
    engine = SweepEngine(runner=marker)

    def run(jobs):
        raise RuntimeError("backend down")

    engine.run = run
    return engine


class TestBatching:
    def test_full_batch_cuts_immediately(self):
        backend = Backend()
        coalescer = RequestCoalescer(
            max_batch=4, max_delay_s=60.0, engine_factory=backend
        )
        jobs = [make_job(seed=s) for s in range(1, 5)]
        results = submit_all(coalescer, jobs)
        # one batch, one engine call, jobs in submission order
        assert backend.seeds() == [[1, 2, 3, 4]]
        assert results == [f"adpcm-encode/adaptive/seed={s}" for s in (1, 2, 3, 4)]

    def test_partial_batch_flushes_on_timer(self):
        backend = Backend()
        coalescer = RequestCoalescer(
            max_batch=8, max_delay_s=0.01, engine_factory=backend
        )
        results = submit_all(coalescer, [make_job(seed=7)])
        assert backend.seeds() == [[7]]
        assert results == ["adpcm-encode/adaptive/seed=7"]

    def test_ceiling_bound_on_run_batch_calls(self):
        backend = Backend()
        n, max_batch = 10, 4
        coalescer = RequestCoalescer(
            max_batch=max_batch, max_delay_s=0.01, engine_factory=backend
        )
        jobs = [make_job(seed=s) for s in range(n)]
        submit_all(coalescer, jobs)
        assert len(backend.calls) <= math.ceil(n / max_batch)
        assert sorted(s for seeds in backend.seeds() for s in seeds) == list(range(n))

    def test_mixed_configs_share_one_engine_call(self):
        """Three jobs in two configs: one engine call, submission order,
        and each result byte-identical to a direct run_experiment."""
        backend = Backend(runner=run_job)
        coalescer = RequestCoalescer(
            max_batch=3, max_delay_s=60.0, engine_factory=backend
        )
        jobs = [
            make_job(seed=1),
            make_job(seed=2, scheme="pid"),
            make_job(seed=3),
        ]
        results = submit_all(coalescer, jobs)
        assert backend.calls == [jobs]
        for job, result in zip(jobs, results):
            direct = run_experiment(
                "adpcm-encode",
                scheme=job.scheme,
                seed=job.seed,
                max_instructions=1500,
                record_history=False,
            )
            assert json.dumps(result_to_dict(result), sort_keys=True) == (
                json.dumps(result_to_dict(direct), sort_keys=True)
            ), f"{job.scheme} seed {job.seed} diverged from run_experiment"

    def test_failing_job_fails_only_its_own_request(self):
        def runner(job):
            if job.seed == 2:
                raise ValueError("seed 2 exploded")
            return marker(job)

        coalescer = RequestCoalescer(
            max_batch=2, max_delay_s=0.01, engine_factory=Backend(runner)
        )
        ok, failed = submit_all(coalescer, [make_job(seed=1), make_job(seed=2)])
        assert ok == "adpcm-encode/adaptive/seed=1"
        assert isinstance(failed, RuntimeError)
        assert "ValueError: seed 2 exploded" in str(failed)

    def test_batch_failure_propagates_to_all_awaiters(self):
        coalescer = RequestCoalescer(
            max_batch=2, max_delay_s=0.01, engine_factory=exploding_factory
        )
        results = submit_all(coalescer, [make_job(seed=1), make_job(seed=2)])
        assert all(isinstance(r, RuntimeError) for r in results)
        assert all("backend down" in str(r) for r in results)

    def test_stats_accounting(self):
        backend = Backend()
        coalescer = RequestCoalescer(
            max_batch=2, max_delay_s=0.01, engine_factory=backend
        )
        submit_all(coalescer, [make_job(seed=s) for s in range(4)])
        stats = coalescer.stats()
        assert stats["submitted"] == 4
        assert stats["batched_runs"] == 4
        # one engine call per flush
        assert stats["run_batch_calls"] == stats["flushes"] == len(backend.calls)
        assert stats["pending"] == 0

    @pytest.mark.parametrize("bad", [dict(max_batch=0), dict(max_delay_s=-1)])
    def test_invalid_config_rejected(self, bad):
        with pytest.raises(ValueError):
            RequestCoalescer(**bad)


class TestSpans:
    """Each flush records one ``coalescer.flush`` span; the engine's
    ``job:`` spans nest under their own requests' span contexts."""

    @staticmethod
    def _by_name(tracer):
        spans = {}
        for span in tracer.spans():
            spans.setdefault(span["name"], []).append(span)
        return spans

    def test_job_spans_nest_under_their_requests(self):
        tracer = SpanRecorder()
        roots = {seed: tracer.start(f"run:{seed}") for seed in (1, 2, 3)}
        jobs = [
            dataclasses.replace(
                make_job(seed=seed, scheme=scheme), span=roots[seed].context
            )
            for seed, scheme in ((1, "adaptive"), (2, "pid"), (3, "adaptive"))
        ]
        coalescer = RequestCoalescer(
            max_batch=3, max_delay_s=0.01, tracer=tracer,
            engine_factory=Backend(runner=run_job, tracer=tracer),
        )
        submit_all(coalescer, jobs)
        spans = self._by_name(tracer)
        (flush,) = spans["coalescer.flush"]
        assert flush["attrs"] == {"requests": 3}
        job_spans = [
            span for name, found in spans.items() if name.startswith("job:")
            for span in found
        ]
        assert len(job_spans) == 3
        for span in job_spans:
            root = roots[span["attrs"]["seed"]]
            assert span["trace_id"] == root.trace_id
            assert span["parent_id"] == root.span_id

    def test_failed_flush_span_is_recorded_with_its_error(self):
        tracer = SpanRecorder()
        coalescer = RequestCoalescer(
            max_batch=2, max_delay_s=0.01, engine_factory=exploding_factory,
            tracer=tracer,
        )
        results = submit_all(coalescer, [make_job(seed=1), make_job(seed=2)])
        assert all(isinstance(r, RuntimeError) for r in results)
        (flush,) = self._by_name(tracer)["coalescer.flush"]
        assert flush["attrs"]["error"] == "RuntimeError: backend down"


class TestSerialIdentity:
    """Coalesced execution is byte-identical to serial run_experiment."""

    N = 6
    MAX_BATCH = 3

    def test_concurrent_submissions_match_serial_results(self):
        backend = Backend(runner=run_job)
        coalescer = RequestCoalescer(
            max_batch=self.MAX_BATCH,
            max_delay_s=0.05,
            engine_factory=backend,
        )
        jobs = [make_job(seed=seed) for seed in range(1, self.N + 1)]
        coalesced = submit_all(coalescer, jobs)

        assert len(backend.calls) <= math.ceil(self.N / self.MAX_BATCH)

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

"""Tests for the sweep engine scheduler: pool, retries, timeout, fallback.

The pool tests need module-level runner functions (worker processes
unpickle them by reference); they synthesize cheap fake results so the
robustness machinery is exercised without paying for real simulations.
Parity tests use real (tiny) simulations.
"""

import multiprocessing
import os
import time

import pytest

from repro.engine import telemetry as tm
from repro.engine.jobs import SweepJob
from repro.engine.scheduler import (
    EngineConfig,
    JobTimeoutError,
    SweepEngine,
)
from repro.harness.experiment import run_experiment
from repro.harness.persistence import result_to_dict
from repro.mcd.domains import CONTROLLED_DOMAINS
from repro.mcd.processor import SimulationHistory, SimulationResult
from repro.power.model import EnergyAccount


def _fake_result(job):
    energy = EnergyAccount()
    return SimulationResult(
        benchmark=job.benchmark.name,
        scheme=job.scheme,
        time_ns=1.0,
        instructions=1,
        energy=energy,
        history=SimulationHistory(),
        transitions={d: 0 for d in CONTROLLED_DOMAINS},
        mean_frequency_ghz={d: 1.0 for d in CONTROLLED_DOMAINS},
        issued_by_domain={d: 0 for d in CONTROLLED_DOMAINS},
        branch_mispredict_rate=0.0,
        l1d_miss_rate=0.0,
        l2_miss_rate=0.0,
        sync_deferral_rate=0.0,
    )


def _fail_on_pid(job):
    if job.scheme == "pid":
        raise RuntimeError(f"boom on {job.job_id}")
    return _fake_result(job)


def _sleep_on_pid(job):
    if job.scheme == "pid":
        time.sleep(10.0)
    return _fake_result(job)


def _die_in_pool_on_pid(job):
    """Kill the pool worker that runs the pid job; run it in-process."""
    from repro.engine.jobs import run_job

    if job.scheme == "pid" and multiprocessing.parent_process() is not None:
        os._exit(1)
    return run_job(job)


def _jobs(schemes, benchmark="adpcm-encode", **kwargs):
    return [
        SweepJob.make(benchmark, scheme=scheme, **kwargs)
        for scheme in schemes
    ]


class TestParity:
    """Pool, serial, and direct execution must agree exactly."""

    def test_serial_engine_matches_direct_run(self):
        job = SweepJob.make("gzip", scheme="adaptive", max_instructions=2000)
        direct = run_experiment("gzip", scheme="adaptive", max_instructions=2000)
        (outcome,) = SweepEngine().run([job])
        assert outcome.ok and not outcome.from_cache
        assert outcome.result.energy.total == direct.energy.total
        assert outcome.result.time_ns == direct.time_ns
        assert outcome.result.transitions == direct.transitions

    def test_pool_matches_serial(self):
        jobs = _jobs(
            ("full-speed", "adaptive"), max_instructions=2000
        ) + _jobs(("full-speed", "adaptive"), benchmark="swim",
                  max_instructions=2000)
        serial = SweepEngine(EngineConfig(workers=1)).run(jobs)
        pooled = SweepEngine(EngineConfig(workers=2)).run(jobs)
        assert len(serial) == len(pooled) == 4
        for s, p in zip(serial, pooled):
            assert p.job.job_id == s.job.job_id  # input order preserved
            assert result_to_dict(p.result, include_history=True) == (
                result_to_dict(s.result, include_history=True)
            )


class TestTraceGrouping:
    """Jobs that share a trace run back to back, so each process
    generates a (benchmark, seed) trace once whatever the job order."""

    def test_seed_innermost_grid_generates_each_trace_once(self, monkeypatch):
        import repro.harness.experiment as experiment_module

        generated = []
        real_generate = experiment_module.generate_trace

        def spy_generate(spec, max_instructions=None, seed=None):
            generated.append((spec.name, seed))
            return real_generate(spec, max_instructions=max_instructions, seed=seed)

        monkeypatch.setattr(experiment_module, "_last_trace", None)
        monkeypatch.setattr(experiment_module, "generate_trace", spy_generate)
        jobs = [
            SweepJob.make(bench, scheme, max_instructions=300, seed=seed)
            for bench in ("adpcm-encode", "gzip")
            for scheme in ("adaptive", "pid")
            for seed in (3, 4)
        ]
        engine = SweepEngine(EngineConfig(workers=1))
        started = []
        engine.telemetry.add_listener(
            lambda e: started.append(e.job_id) if e.kind == tm.JOB_STARTED else None
        )
        outcomes = engine.run(jobs)
        assert generated == [
            ("adpcm-encode", 3), ("adpcm-encode", 4), ("gzip", 3), ("gzip", 4),
        ]
        assert [o.job for o in outcomes] == jobs
        assert all(o.ok for o in outcomes)
        # per (benchmark, seed) group: adaptive then pid, in input order
        assert started == [
            "adpcm-encode/adaptive", "adpcm-encode/pid",
            "adpcm-encode/adaptive", "adpcm-encode/pid",
            "gzip/adaptive", "gzip/pid", "gzip/adaptive", "gzip/pid",
        ]


class TestRobustness:
    def test_serial_retry_then_success(self):
        calls = {"n": 0}

        def flaky(job):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient")
            return _fake_result(job)

        engine = SweepEngine(EngineConfig(retries=1), runner=flaky)
        (outcome,) = engine.run(_jobs(("adaptive",)))
        assert outcome.ok
        assert outcome.attempts == 2
        assert engine.telemetry.counters[tm.JOB_RETRIED] == 1

    def test_pool_failure_is_retried_then_surfaced_without_aborting(self):
        jobs = _jobs(("full-speed", "adaptive", "pid"))
        engine = SweepEngine(
            EngineConfig(workers=2, retries=1), runner=_fail_on_pid
        )
        events = []
        engine.telemetry.add_listener(events.append)
        outcomes = engine.run(jobs)
        by_scheme = {o.job.scheme: o for o in outcomes}
        assert by_scheme["full-speed"].ok and by_scheme["adaptive"].ok
        failed = by_scheme["pid"]
        assert not failed.ok
        assert failed.attempts == 2
        assert "boom" in failed.error
        assert engine.telemetry.counters[tm.JOB_RETRIED] == 1
        assert engine.telemetry.counters[tm.JOB_FAILED] == 1
        kinds = [e.kind for e in events]
        assert tm.JOB_FAILED in kinds and tm.SWEEP_FINISHED in kinds

    def test_timeout_is_enforced_retried_and_surfaced(self):
        jobs = _jobs(("adaptive", "pid"))
        engine = SweepEngine(
            EngineConfig(retries=1, timeout_s=0.2), runner=_sleep_on_pid
        )
        started = time.monotonic()
        outcomes = engine.run(jobs)
        elapsed = time.monotonic() - started
        assert elapsed < 5.0  # two 0.2 s attempts, not two 10 s sleeps
        by_scheme = {o.job.scheme: o for o in outcomes}
        assert by_scheme["adaptive"].ok
        assert not by_scheme["pid"].ok
        assert "JobTimeoutError" in by_scheme["pid"].error
        assert engine.telemetry.counters[tm.JOB_RETRIED] == 1

    def test_pool_timeout_in_worker(self):
        jobs = _jobs(("full-speed", "adaptive", "pid"))
        engine = SweepEngine(
            EngineConfig(workers=2, retries=0, timeout_s=0.2),
            runner=_sleep_on_pid,
        )
        outcomes = engine.run(jobs)
        by_scheme = {o.job.scheme: o for o in outcomes}
        assert by_scheme["full-speed"].ok and by_scheme["adaptive"].ok
        assert not by_scheme["pid"].ok
        assert "timeout" in by_scheme["pid"].error.lower()

    def test_pool_unavailable_falls_back_to_serial(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError("no processes for you")

        monkeypatch.setattr(
            "repro.engine.scheduler.concurrent.futures.ProcessPoolExecutor",
            refuse,
        )
        engine = SweepEngine(EngineConfig(workers=4), runner=_fake_result)
        events = []
        engine.telemetry.add_listener(events.append)
        outcomes = engine.run(_jobs(("full-speed", "adaptive")))
        assert all(o.ok for o in outcomes)
        kinds = [e.kind for e in events]
        assert tm.POOL_UNAVAILABLE in kinds


    def test_broken_pool_finishes_in_process(self):
        jobs = _jobs(
            ("full-speed", "adaptive", "pid", "attack-decay"),
            max_instructions=800,
        )
        serial = SweepEngine(EngineConfig(workers=1)).run(jobs)
        engine = SweepEngine(
            EngineConfig(workers=2, retries=0), runner=_die_in_pool_on_pid
        )
        events = []
        engine.telemetry.add_listener(events.append)
        outcomes = engine.run(jobs)
        # an attempt the broken pool lost is no attempt: each job ran once
        assert [(o.ok, o.attempts) for o in outcomes] == [(True, 1)] * 4
        assert [result_to_dict(o.result) for o in outcomes] == [
            result_to_dict(o.result) for o in serial
        ]
        lost = [e for e in events if e.kind == tm.POOL_UNAVAILABLE]
        assert len(lost) == 1
        assert lost[0].data["remaining_jobs"] >= 1


class TestCacheIntegration:
    def test_second_run_is_all_cache_hits(self, tmp_path):
        jobs = _jobs(("full-speed", "adaptive"), max_instructions=1500)
        config = EngineConfig(workers=1, cache_dir=str(tmp_path))
        first = SweepEngine(config).run(jobs)
        engine = SweepEngine(config)
        second = engine.run(jobs)
        assert all(o.from_cache for o in second)
        assert engine.telemetry.counters[tm.JOB_CACHE_HIT] == len(jobs)
        assert engine.telemetry.counters[tm.JOB_STARTED] == 0
        for a, b in zip(first, second):
            assert b.result.energy.total == pytest.approx(a.result.energy.total)
            assert b.result.time_ns == pytest.approx(a.result.time_ns)
            assert b.result.transitions == a.result.transitions

    def test_failed_jobs_are_not_cached(self, tmp_path):
        config = EngineConfig(retries=0, cache_dir=str(tmp_path))
        engine = SweepEngine(config, runner=_fail_on_pid)
        (outcome,) = engine.run(_jobs(("pid",)))
        assert not outcome.ok
        assert not os.path.exists(engine.cache.path_for(outcome.job))


class TestTimeoutHelper:
    def test_job_timeout_error_message_names_job(self):
        job = SweepJob.make("gzip", scheme="pid")
        engine = SweepEngine(
            EngineConfig(retries=0, timeout_s=0.05), runner=_sleep_on_pid
        )
        (outcome,) = engine.run([job])
        assert "gzip/pid" in outcome.error
        assert isinstance(JobTimeoutError("x"), Exception)

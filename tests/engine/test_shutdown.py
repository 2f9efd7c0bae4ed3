"""Tests for graceful engine shutdown (drain semantics)."""

import os
import signal
import threading
import time

import pytest

from repro.engine import telemetry as tm
from repro.engine.jobs import SweepJob
from repro.engine.scheduler import (
    EngineConfig,
    SweepEngine,
    shutdown_on_signals,
)
from repro.mcd.processor import SimulationResult


def make_jobs(n):
    return [
        SweepJob.make("adpcm-encode", seed=seed, max_instructions=1500)
        for seed in range(1, n + 1)
    ]


def _slow_runner(job):
    """Module-level (picklable) runner: sleep, then delegate."""
    from repro.engine.jobs import run_job

    time.sleep(0.2)
    return run_job(job)


class TestSerialDrain:
    def test_shutdown_mid_sweep_cancels_remaining(self):
        engine = SweepEngine(EngineConfig(workers=1))
        calls = {"n": 0}

        def runner(job):
            calls["n"] += 1
            if calls["n"] == 2:
                engine.request_shutdown()
            from repro.engine.jobs import run_job

            return run_job(job)

        engine.runner = runner
        events = []
        engine.telemetry.add_listener(events.append)
        jobs = make_jobs(5)
        outcomes = engine.run(jobs)

        # every job yields an outcome, in input order
        assert len(outcomes) == len(jobs)
        assert [o.job.seed for o in outcomes] == [1, 2, 3, 4, 5]
        # the in-flight job finished; everything after was cancelled
        assert [o.ok for o in outcomes] == [True, True, False, False, False]
        assert all(
            "cancelled" in o.error for o in outcomes if not o.ok
        )
        summary = engine.telemetry.summary()
        assert summary["cancelled"] == 3
        assert summary["jobs_run"] == 2
        assert summary["failures"] == 0
        # the sweep still closed out its telemetry
        kinds = [e.kind for e in events]
        assert kinds[-1] == tm.SWEEP_FINISHED
        assert tm.SHUTDOWN_REQUESTED in kinds

    def test_shutdown_before_run_cancels_everything(self):
        engine = SweepEngine(EngineConfig(workers=1))
        engine.request_shutdown()
        outcomes = engine.run(make_jobs(3))
        assert len(outcomes) == 3
        assert all(not o.ok for o in outcomes)
        assert engine.telemetry.summary()["cancelled"] == 3

    def test_no_retries_after_shutdown(self):
        engine = SweepEngine(EngineConfig(workers=1, retries=3))

        def runner(job):
            engine.request_shutdown()
            raise RuntimeError("fault during drain")

        engine.runner = runner
        outcomes = engine.run(make_jobs(1))
        assert not outcomes[0].ok
        assert outcomes[0].attempts == 1
        assert engine.telemetry.counters[tm.JOB_RETRIED] == 0

    def test_cancelled_jobs_flush_cache_of_finished_ones(self, tmp_path):
        engine = SweepEngine(EngineConfig(workers=1, cache_dir=str(tmp_path)))
        calls = {"n": 0}

        def runner(job):
            calls["n"] += 1
            if calls["n"] == 1:
                engine.request_shutdown()
            from repro.engine.jobs import run_job

            return run_job(job)

        engine.runner = runner
        outcomes = engine.run(make_jobs(3))
        assert outcomes[0].ok and not outcomes[1].ok
        # the finished job's result landed in the cache before the drain
        fresh = SweepEngine(EngineConfig(workers=1, cache_dir=str(tmp_path)))
        cached = fresh.run([outcomes[0].job])
        assert cached[0].from_cache

    def test_a_drain_applies_to_one_run(self):
        engine = SweepEngine(EngineConfig(workers=1))
        calls = {"n": 0}

        def runner(job):
            calls["n"] += 1
            if calls["n"] == 1:
                engine.request_shutdown()
            from repro.engine.jobs import run_job

            return run_job(job)

        engine.runner = runner
        drained = engine.run(make_jobs(3))
        assert [o.ok for o in drained] == [True, False, False]
        # still true once the drained run returned: the sweep CLI's exit
        # code reads it
        assert engine.shutdown_requested
        again = engine.run(make_jobs(3))
        assert all(o.ok for o in again)
        assert engine.telemetry.summary()["cancelled"] == 0
        assert not engine.shutdown_requested

    def test_a_drain_between_runs_applies_to_the_next(self):
        engine = SweepEngine(EngineConfig(workers=1))
        engine.request_shutdown()
        assert not any(o.ok for o in engine.run(make_jobs(2)))
        engine.request_shutdown()
        assert not any(o.ok for o in engine.run(make_jobs(2)))
        assert all(o.ok for o in engine.run(make_jobs(2)))

    def test_request_shutdown_is_idempotent(self):
        engine = SweepEngine(EngineConfig())
        events = []
        engine.telemetry.add_listener(events.append)
        engine.request_shutdown()
        engine.request_shutdown()
        assert [e.kind for e in events] == [tm.SHUTDOWN_REQUESTED]
        assert engine.shutdown_requested


class TestPooledDrain:
    def test_pooled_shutdown_drains_in_flight_and_cancels_queued(self):
        engine = SweepEngine(
            EngineConfig(workers=2, retries=0), runner=_slow_runner
        )
        jobs = make_jobs(8)
        timer = threading.Timer(0.3, engine.request_shutdown)
        timer.start()
        try:
            outcomes = engine.run(jobs)
        finally:
            timer.cancel()
        assert len(outcomes) == len(jobs)
        finished = sum(1 for o in outcomes if o.ok)
        cancelled = sum(
            1 for o in outcomes if not o.ok and "cancelled" in (o.error or "")
        )
        assert finished + cancelled == len(jobs)
        assert finished >= 1  # in-flight jobs were drained, not killed
        assert cancelled >= 1  # queued jobs were cancelled, not run
        summary = engine.telemetry.summary()
        assert summary["cancelled"] == cancelled
        assert summary["failures"] == 0

    def test_pooled_drain_runs_only_what_it_started(self):
        workers = 2
        engine = SweepEngine(
            EngineConfig(workers=workers, retries=0), runner=_slow_runner
        )
        jobs = make_jobs(8)

        def drain_at_first_finish(event):
            if event.kind == tm.JOB_FINISHED:
                engine.request_shutdown()

        engine.telemetry.add_listener(drain_at_first_finish)
        outcomes = engine.run(jobs)
        counters = engine.telemetry.counters
        started = counters[tm.JOB_STARTED]
        # every attempt handed out ran to an end; nothing else started
        assert started == counters[tm.JOB_FINISHED] + counters[tm.JOB_FAILED]
        assert counters[tm.JOB_CANCELLED] == len(jobs) - started
        assert [o.ok for o in outcomes].count(True) == counters[tm.JOB_FINISHED]
        # the drain came at the first finish, with at most workers + 1
        # attempts handed out; up-front submission starts all 8
        assert started <= workers + 2


class TestSignalHandling:
    def test_signal_requests_shutdown_without_raising(self):
        engine = SweepEngine(EngineConfig())
        with shutdown_on_signals(engine):
            os.kill(os.getpid(), signal.SIGINT)
            # handler runs on this (main) thread at the next bytecode
            time.sleep(0.01)
            assert engine.shutdown_requested

    def test_second_signal_falls_through_to_previous_handler(self):
        engine = SweepEngine(EngineConfig())
        with pytest.raises(KeyboardInterrupt):
            with shutdown_on_signals(engine):
                os.kill(os.getpid(), signal.SIGINT)
                time.sleep(0.01)
                os.kill(os.getpid(), signal.SIGINT)
                time.sleep(0.01)

    def test_previous_handlers_restored_on_exit(self):
        engine = SweepEngine(EngineConfig())
        before_int = signal.getsignal(signal.SIGINT)
        before_term = signal.getsignal(signal.SIGTERM)
        with shutdown_on_signals(engine):
            assert signal.getsignal(signal.SIGINT) is not before_int
        assert signal.getsignal(signal.SIGINT) is before_int
        assert signal.getsignal(signal.SIGTERM) is before_term

    def test_noop_off_main_thread(self):
        engine = SweepEngine(EngineConfig())
        before = signal.getsignal(signal.SIGINT)
        seen = {}

        def worker():
            with shutdown_on_signals(engine):
                seen["handler"] = signal.getsignal(signal.SIGINT)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert seen["handler"] is before  # unchanged: no-op off main thread

    def test_outcome_is_jobout_with_cancelled_error_text(self):
        """Sanity on the outcome shape downstream consumers rely on."""
        engine = SweepEngine(EngineConfig())
        engine.request_shutdown()
        (outcome,) = engine.run(make_jobs(1))
        assert outcome.result is None
        assert isinstance(outcome.job, SweepJob)
        assert outcome.error == "cancelled: shutdown requested"
        assert not isinstance(outcome.result, SimulationResult)

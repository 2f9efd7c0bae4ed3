"""Engine observability: metrics instruments and cross-process spans.

The cross-process tests are the acceptance check for span stitching: a
pooled sweep's worker spans -- produced in pool processes -- must carry
the submitting run's trace ID and parent back into the submitting
process's recorder.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.engine.jobs import SweepJob
from repro.engine.scheduler import EngineConfig, SweepEngine
from repro.mcd.domains import CONTROLLED_DOMAINS
from repro.mcd.processor import SimulationHistory, SimulationResult
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanContext, SpanRecorder
from repro.power.model import EnergyAccount
from repro.serve.top import build_snapshot, parse_prometheus


def _fake_result(job):
    return SimulationResult(
        benchmark=job.benchmark.name,
        scheme=job.scheme,
        time_ns=1.0,
        instructions=1,
        energy=EnergyAccount(),
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


#: seconds each job of the pooled sweep below sleeps in its worker
_NAP_S = 0.2


def _napping_result(job):
    time.sleep(_NAP_S)
    return _fake_result(job)


def _scrape(metrics):
    """The registry as a scraper sees it: ``{name: {labelset: value}}``."""
    return build_snapshot(parse_prometheus(metrics.render_prometheus()))


def _jobs(schemes, **kwargs):
    return [
        SweepJob.make("adpcm-encode", scheme=scheme, **kwargs)
        for scheme in schemes
    ]


# -- metrics -----------------------------------------------------------


class TestEngineMetrics:
    def test_outcome_counters_and_gauges(self):
        metrics = MetricsRegistry()
        engine = SweepEngine(
            EngineConfig(retries=0),
            runner=_fail_on_pid,
            metrics=metrics,
        )
        engine.run(_jobs(("adaptive", "pid", "full-speed")))
        snap = _scrape(metrics)
        jobs = snap["repro_engine_jobs_total"]
        assert jobs[(("outcome", "finished"),)] == 2.0
        assert jobs[(("outcome", "failed"),)] == 1.0
        # all accounted for: nothing left pending or in flight
        assert snap["repro_engine_pending_jobs"][()] == 0.0
        assert snap["repro_engine_inflight_jobs"][()] == 0.0
        assert snap["repro_engine_cache_hit_ratio"][()] == 0.0

    def test_retry_counter(self):
        metrics = MetricsRegistry()
        attempts = {"n": 0}

        def flaky(job):
            attempts["n"] += 1
            if attempts["n"] == 1:
                raise RuntimeError("first try fails")
            return _fake_result(job)

        engine = SweepEngine(
            EngineConfig(retries=1), runner=flaky, metrics=metrics
        )
        (outcome,) = engine.run(_jobs(("adaptive",)))
        assert outcome.ok
        snap = _scrape(metrics)
        assert snap["repro_engine_retries_total"][()] == 1.0

    def test_cache_hits_counted_and_ratio_set(self, tmp_path):
        metrics = MetricsRegistry()
        config = EngineConfig(cache_dir=str(tmp_path))
        jobs = _jobs(("adaptive",), max_instructions=2000)
        SweepEngine(config).run(jobs)  # warm, unmetered
        engine = SweepEngine(config, metrics=metrics)
        outcomes = engine.run(jobs)
        assert outcomes[0].from_cache
        snap = _scrape(metrics)
        assert snap["repro_engine_jobs_total"][(("outcome", "cache_hit"),)] == 1.0
        assert snap["repro_engine_cache_hit_ratio"][()] == 1.0

    def test_instr_rate_gauge_set_after_real_run(self):
        metrics = MetricsRegistry()
        engine = SweepEngine(metrics=metrics)
        engine.run(_jobs(("adaptive",), max_instructions=2000))
        snap = _scrape(metrics)
        assert snap["repro_run_instr_per_s"][()] > 0.0

    def test_disabled_metrics_resolve_no_instruments(self):
        engine = SweepEngine()
        assert engine._m_jobs is None
        assert engine._m_inflight is None
        engine.run(_jobs(("adaptive",)))  # and running works without them


@pytest.fixture(scope="class")
def pooled_sweep():
    """Eight napping jobs on two workers, with the in-flight gauge read
    at every telemetry event; returns (engine, outcomes, gauge readings)."""
    metrics = MetricsRegistry()
    engine = SweepEngine(
        EngineConfig(workers=2, retries=0),
        runner=_napping_result,
        metrics=metrics,
    )
    inflight = metrics.gauge("repro_engine_inflight_jobs")
    readings = []
    engine.telemetry.add_listener(lambda event: readings.append(inflight.value))
    jobs = [
        SweepJob.make("adpcm-encode", scheme="adaptive", seed=seed)
        for seed in range(1, 9)
    ]
    outcomes = engine.run(jobs)
    assert all(o.ok for o in outcomes)
    return engine, outcomes, readings


class TestPooledTelemetry:
    def test_inflight_gauge_never_exceeds_workers_plus_one(self, pooled_sweep):
        engine, _, readings = pooled_sweep
        assert 1 <= max(readings) <= engine.config.workers + 1
        assert readings[-1] == 0

    def test_pooled_wall_s_counts_only_the_run(self, pooled_sweep):
        _, outcomes, _ = pooled_sweep
        # a job that waited for a worker would also count the nap of the
        # job ahead of it
        for outcome in outcomes:
            assert _NAP_S <= outcome.wall_s < 2 * _NAP_S, outcome.job.job_id


# -- span stitching ----------------------------------------------------


class TestSpanStitching:
    def test_serial_sweep_produces_sweep_and_job_spans(self):
        tracer = SpanRecorder()
        engine = SweepEngine(runner=_fake_result, tracer=tracer)
        engine.run(_jobs(("adaptive", "full-speed")))
        spans = tracer.spans()
        sweep = next(s for s in spans if s["name"] == "sweep")
        jobs = [s for s in spans if s["name"].startswith("job:")]
        assert len(jobs) == 2
        for job_span in jobs:
            assert job_span["trace_id"] == sweep["trace_id"]
            assert job_span["parent_id"] == sweep["span_id"]

    def test_trace_parent_roots_the_sweep_span(self):
        tracer = SpanRecorder()
        root = tracer.start("submission")
        engine = SweepEngine(
            runner=_fake_result, tracer=tracer, trace_parent=root.context
        )
        engine.run(_jobs(("adaptive",)))
        root.end()
        sweep = next(s for s in tracer.spans() if s["name"] == "sweep")
        assert sweep["trace_id"] == root.trace_id
        assert sweep["parent_id"] == root.span_id

    def test_pooled_worker_spans_carry_submitted_trace_ids(self):
        """Acceptance: worker spans from pool processes stitch to the
        per-job trace IDs the submitting process handed out."""
        tracer = SpanRecorder()
        roots = {
            scheme: tracer.start(f"request:{scheme}")
            for scheme in ("adaptive", "full-speed")
        }
        jobs = [
            SweepJob.make(
                "adpcm-encode",
                scheme=scheme,
                max_instructions=1000,
                span=root.context,
            )
            for scheme, root in roots.items()
        ]
        engine = SweepEngine(EngineConfig(workers=2), tracer=tracer)
        outcomes = engine.run(jobs)
        assert all(o.ok for o in outcomes)
        for scheme, root in roots.items():
            root.end()
            spans = tracer.spans(root.trace_id)
            worker = next(
                s for s in spans if s["name"] == f"job:adpcm-encode/{scheme}"
            )
            assert worker["trace_id"] == root.trace_id
            assert worker["parent_id"] == root.span_id
            # produced in a pool process, not this one
            assert worker["attrs"]["pid"] != os.getpid()
            assert worker["attrs"]["instructions"] > 0
            # and the tree nests it under the submission root
            (tree,) = tracer.tree(root.trace_id)
            assert tree["span"]["name"] == f"request:{scheme}"
            assert any(
                child["span"]["span_id"] == worker["span_id"]
                for child in tree["children"]
            )

    def test_grouped_worker_spans_nest_under_their_own_parents(self):
        """A pool task of several jobs ships one span per job, each under
        the context its own job carried (or the sweep span)."""
        tracer = SpanRecorder()
        roots = {}
        jobs = []
        for seed in (1, 2, 3):
            for scheme in ("full-speed", "adaptive", "pid"):
                root = tracer.start(f"request:{scheme}:{seed}")
                roots[(scheme, seed)] = root
                jobs.append(SweepJob.make(
                    "adpcm-encode", scheme=scheme, seed=seed, span=root.context
                ))
        jobs.append(SweepJob.make("gzip", scheme="adaptive", seed=1))
        engine = SweepEngine(
            EngineConfig(workers=2), runner=_fake_result, tracer=tracer
        )
        assert all(o.ok for o in engine.run(jobs))
        sweep = next(s for s in tracer.spans() if s["name"] == "sweep")
        for (scheme, seed), root in roots.items():
            root.end()
            (worker,) = [
                s for s in tracer.spans(root.trace_id)
                if s["name"].startswith("job:")
            ]
            assert worker["name"] == f"job:adpcm-encode/{scheme}"
            assert worker["attrs"]["seed"] == seed
            assert worker["parent_id"] == root.span_id
            assert worker["attrs"]["pid"] != os.getpid()
        (plain,) = [s for s in tracer.spans() if s["name"] == "job:gzip/adaptive"]
        assert plain["trace_id"] == sweep["trace_id"]
        assert plain["parent_id"] == sweep["span_id"]

    def test_job_carried_span_beats_sweep_span(self):
        tracer = SpanRecorder()
        request = tracer.start("request")
        carried = _jobs(("adaptive",))[0]
        carried = SweepJob.make(
            "adpcm-encode", scheme="adaptive", span=request.context
        )
        plain = SweepJob.make("adpcm-encode", scheme="full-speed")
        engine = SweepEngine(runner=_fake_result, tracer=tracer)
        engine.run([carried, plain])
        request.end()
        sweep = next(s for s in tracer.spans() if s["name"] == "sweep")
        carried_span = next(
            s for s in tracer.spans()
            if s["name"] == "job:adpcm-encode/adaptive"
        )
        plain_span = next(
            s for s in tracer.spans()
            if s["name"] == "job:adpcm-encode/full-speed"
        )
        assert carried_span["trace_id"] == request.trace_id
        assert carried_span["parent_id"] == request.span_id
        assert plain_span["trace_id"] == sweep["trace_id"]
        assert plain_span["parent_id"] == sweep["span_id"]

    def test_cache_hits_emit_spans_too(self, tmp_path):
        tracer = SpanRecorder()
        config = EngineConfig(cache_dir=str(tmp_path))
        jobs = _jobs(("adaptive",), max_instructions=2000)
        SweepEngine(config).run(jobs)
        engine = SweepEngine(config, tracer=tracer)
        engine.run(jobs)
        hit = next(
            s for s in tracer.spans() if s["name"].startswith("job:")
        )
        assert hit["attrs"]["cache"] == "hit"

    def test_span_field_stays_out_of_the_cache_key(self):
        job = SweepJob.make("adpcm-encode", scheme="adaptive")
        spanned = SweepJob.make(
            "adpcm-encode",
            scheme="adaptive",
            span=SpanContext(trace_id="t" * 32, span_id="s" * 16),
        )
        assert job.canonical_json() == spanned.canonical_json()

    def test_disabled_tracer_ships_no_span_parents(self):
        engine = SweepEngine(runner=_fake_result)
        job = SweepJob.make(
            "adpcm-encode",
            scheme="adaptive",
            span=SpanContext(trace_id="t" * 32, span_id="s" * 16),
        )
        # tracing off: even a job-carried context is not propagated
        assert engine._span_parent_dict(job) is None
        (outcome,) = engine.run([job])
        assert outcome.ok

"""Overhead guard: the obs-disabled path must actually be a no-op.

A wall-time comparison against a pre-PR binary is not reproducible in
CI, so the 5% budget is enforced structurally and relatively instead:

* a ``sys.setprofile`` tracer proves the disabled simulation makes
  **zero** calls into ``repro.obs`` during ``run()`` -- the no-op fast
  path never enters the subsystem, so it cannot charge per-sample cost;
* a median-of-three timing check proves the disabled run is not slower
  than the fully-instrumented run (which does strictly more work), with
  a generous noise factor so CI machines never flake.
"""

from __future__ import annotations

import os
import sys
import time

import repro.obs as obs_package
from repro.harness.experiment import build_controllers, run_experiment
from repro.mcd.processor import MCDProcessor
from repro.workloads.generator import generate_trace
from repro.workloads.suite import get_benchmark

OBS_DIR = os.path.dirname(os.path.abspath(obs_package.__file__))


def _build_processor(obs=None) -> MCDProcessor:
    spec = get_benchmark("adpcm-encode")
    trace = generate_trace(spec, max_instructions=2000)
    return MCDProcessor(
        trace=trace,
        controllers=build_controllers("adaptive"),
        record_history=False,
        obs=obs,
    )


def test_disabled_run_never_calls_into_obs():
    processor = _build_processor(obs=None)
    calls = []

    def tracer(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(OBS_DIR):
            calls.append(
                f"{os.path.basename(frame.f_code.co_filename)}:"
                f"{frame.f_code.co_name}"
            )

    sys.setprofile(tracer)
    try:
        processor.run()
    finally:
        sys.setprofile(None)
    assert calls == [], f"disabled run entered repro.obs: {sorted(set(calls))}"


def test_enabled_run_does_call_into_obs():
    """The tracer itself works: an observed run is seen entering obs."""
    processor = _build_processor(obs=True)
    calls = []

    def tracer(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(OBS_DIR):
            calls.append(frame.f_code.co_name)

    sys.setprofile(tracer)
    try:
        processor.run()
    finally:
        sys.setprofile(None)
    assert calls, "observed run never entered repro.obs -- tracer broken?"


METRICS_FILES = tuple(
    os.path.join(OBS_DIR, name) for name in ("metrics.py", "spans.py")
)


def test_engine_without_metrics_never_calls_metrics_or_spans():
    """The engine's metrics/tracing default path is zero-call.

    Instruments are resolved to ``None`` at construction and every span
    site tests ``tracer is not None``, so a default-configured engine
    run must make no calls into ``repro.obs.metrics`` or
    ``repro.obs.spans`` at all -- not even no-op ones.
    """
    from repro.engine.scheduler import SweepEngine
    from repro.engine.jobs import SweepJob

    engine = SweepEngine()  # defaults: no metrics, no tracer, serial
    jobs = [SweepJob.make("adpcm-encode", scheme="adaptive",
                          max_instructions=2000)]
    calls = []

    def tracer(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(
            METRICS_FILES
        ):
            calls.append(
                f"{os.path.basename(frame.f_code.co_filename)}:"
                f"{frame.f_code.co_name}"
            )

    sys.setprofile(tracer)
    try:
        outcomes = engine.run(jobs)
    finally:
        sys.setprofile(None)
    assert outcomes[0].ok
    assert calls == [], (
        f"metrics-disabled engine entered metrics/spans: {sorted(set(calls))}"
    )


def test_engine_with_metrics_does_call_into_metrics():
    """The engine-level tracer works: a metered run is seen entering."""
    from repro.engine.scheduler import SweepEngine
    from repro.engine.jobs import SweepJob
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.spans import SpanRecorder

    engine = SweepEngine(metrics=MetricsRegistry(), tracer=SpanRecorder())
    jobs = [SweepJob.make("adpcm-encode", scheme="adaptive",
                          max_instructions=2000)]
    calls = []

    def tracer(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(
            METRICS_FILES
        ):
            calls.append(frame.f_code.co_name)

    sys.setprofile(tracer)
    try:
        engine.run(jobs)
    finally:
        sys.setprofile(None)
    assert calls, "metered engine never entered metrics/spans -- guard broken?"


def test_coalescer_without_obs_never_calls_into_obs():
    """A coalescer flush built without ``tracer``/``metrics`` is zero-call.

    The hook covers the loop thread (``sys.setprofile``) and the
    executor thread the flush starts (``threading.setprofile``), so
    both halves of a flush are checked.
    """
    import asyncio
    import threading

    from repro.engine.jobs import SweepJob
    from repro.engine.scheduler import SweepEngine
    from repro.serve.coalescer import RequestCoalescer

    def stub(job):
        return f"result:{job.seed}"

    coalescer = RequestCoalescer(
        max_batch=2, engine_factory=lambda: SweepEngine(runner=stub)
    )
    jobs = [SweepJob.make("adpcm-encode", scheme="adaptive", seed=seed)
            for seed in (1, 2)]
    calls = []

    def tracer(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(OBS_DIR):
            calls.append(
                f"{os.path.basename(frame.f_code.co_filename)}:"
                f"{frame.f_code.co_name}"
            )

    async def flush():
        sys.setprofile(tracer)
        threading.setprofile(tracer)
        try:
            return await asyncio.gather(*(coalescer.submit(j) for j in jobs))
        finally:
            threading.setprofile(None)
            sys.setprofile(None)

    results = asyncio.run(flush())
    assert results == ["result:1", "result:2"]
    assert coalescer.flushes == 1
    assert calls == [], (
        f"obs-less coalescer flush entered repro.obs: {sorted(set(calls))}"
    )


def _median_wall_s(obs, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        run_experiment(
            "adpcm-encode",
            scheme="adaptive",
            max_instructions=2000,
            record_history=False,
            obs=obs,
        )
        times.append(time.perf_counter() - started)
    return sorted(times)[len(times) // 2]

def test_disabled_is_not_slower_than_enabled():
    disabled = _median_wall_s(obs=None)
    enabled = _median_wall_s(obs=True)
    # The observed run does strictly more work per sample; 1.25x absorbs
    # scheduler noise on shared CI machines.
    assert disabled <= enabled * 1.25, (
        f"obs-disabled run ({disabled:.3f}s) slower than obs-enabled "
        f"({enabled:.3f}s): the no-op fast path is not a no-op"
    )

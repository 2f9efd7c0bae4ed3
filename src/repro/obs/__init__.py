"""Unified observability layer: probes, structured tracing, profiling.

Everything the repo needs to *watch itself*: a pluggable probe/metrics
bus the simulator and controllers publish into (:mod:`repro.obs.probe`),
ring-buffered structured traces written as JSONL and Chrome trace format
(:mod:`repro.obs.trace`), wall-time profiling of the sampling-loop
phases (:mod:`repro.obs.profiler`), and schema validation of the emitted
artifacts (:mod:`repro.obs.schema`, imported on its own so that
``python -m repro.obs.schema`` runs it fresh as ``__main__``).  :class:`Observability` wires the
pieces together; ``run_experiment(..., obs=...)`` and ``repro-dvfs
trace`` are the entry points.  Disabled (the default), the simulator
takes a no-op fast path -- see DESIGN.md section 6b.
"""

from repro.obs.facade import Observability, ObsConfig
from repro.obs.metrics import Counter, Gauge, LatencyHistogram, MetricsRegistry
from repro.obs.probe import NULL_PROBE, Histogram, NullProbe, ProbeBus
from repro.obs.profiler import SAMPLE_PHASES, PhaseProfiler
from repro.obs.spans import Span, SpanContext, SpanRecorder, start_worker_span
from repro.obs.trace import (
    KIND_FREQ_STEP,
    KIND_FSM_TRANSITION,
    KIND_INTERVAL_DECISION,
    KIND_PROFILE,
    KIND_RECONCILE,
    KIND_SAMPLE,
    TraceRecorder,
    chrome_trace_events,
)

__all__ = [
    "Observability",
    "ObsConfig",
    "ProbeBus",
    "NullProbe",
    "NULL_PROBE",
    "Histogram",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "SpanRecorder",
    "SpanContext",
    "Span",
    "start_worker_span",
    "TraceRecorder",
    "chrome_trace_events",
    "PhaseProfiler",
    "SAMPLE_PHASES",
    "KIND_SAMPLE",
    "KIND_FSM_TRANSITION",
    "KIND_RECONCILE",
    "KIND_FREQ_STEP",
    "KIND_INTERVAL_DECISION",
    "KIND_PROFILE",
]

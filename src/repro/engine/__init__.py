"""Parallel sweep-execution engine.

The paper's evaluation is a big Cartesian sweep -- 17 benchmarks x 4
schemes, plus ablations -- and this package is the execution layer for
it: picklable job specs (:mod:`repro.engine.jobs`), a process-pool
scheduler with per-job timeout / retry / serial fallback
(:mod:`repro.engine.scheduler`), a content-addressed on-disk result
cache (:mod:`repro.engine.cache`), and a structured telemetry stream
(:mod:`repro.engine.telemetry`).
"""

from repro.engine.cache import (
    CACHE_VERSION,
    ResultCache,
    get_by_key,
    job_cache_key,
)
from repro.engine.jobs import SweepJob, run_job
from repro.engine.scheduler import (
    EngineConfig,
    JobOutcome,
    JobTimeoutError,
    SweepEngine,
    shutdown_on_signals,
)
from repro.engine.telemetry import (
    JsonlEventLog,
    ProgressReporter,
    RunTelemetry,
    TelemetryEvent,
)

__all__ = [
    "CACHE_VERSION",
    "EngineConfig",
    "JobOutcome",
    "JobTimeoutError",
    "JsonlEventLog",
    "ProgressReporter",
    "ResultCache",
    "RunTelemetry",
    "SweepEngine",
    "SweepJob",
    "TelemetryEvent",
    "get_by_key",
    "job_cache_key",
    "run_job",
    "shutdown_on_signals",
]

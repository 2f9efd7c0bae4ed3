"""Structured run telemetry for the sweep engine.

Every engine action emits a :class:`TelemetryEvent` -- job started,
finished, cache hit, retried, failed, plus sweep start/end markers.
Events fan out to the listeners attached with
:meth:`RunTelemetry.add_listener`; two are provided, and the ``sweep``
CLI attaches both:

* :class:`JsonlEventLog` appends one JSON object per line to a file
  (the ``--events events.jsonl`` CLI option), making a sweep's execution
  auditable after the fact;
* :class:`ProgressReporter` prints a one-line human progress update per
  completed job.

The :class:`RunTelemetry` aggregator also keeps wall-time and
throughput counters so the engine can report a summary without any
listener attached.  They count one sweep: ``sweep_started`` resets them,
so an engine that runs twice reports each run on its own.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, TextIO

#: Event kinds, in rough lifecycle order.
SWEEP_STARTED = "sweep_started"
JOB_STARTED = "job_started"
JOB_FINISHED = "job_finished"
JOB_CACHE_HIT = "job_cache_hit"
JOB_RETRIED = "job_retried"
JOB_FAILED = "job_failed"
JOB_CANCELLED = "job_cancelled"
POOL_UNAVAILABLE = "pool_unavailable"
SHUTDOWN_REQUESTED = "shutdown_requested"
SWEEP_FINISHED = "sweep_finished"

#: the job events :class:`RunTelemetry` counts
_COUNTED = (
    JOB_STARTED,
    JOB_FINISHED,
    JOB_CACHE_HIT,
    JOB_RETRIED,
    JOB_FAILED,
    JOB_CANCELLED,
)


def condense_probe_summary(
    summary: Optional[Dict[str, Any]]
) -> Optional[Dict[str, Any]]:
    """Shrink a per-run ``repro.obs`` summary to sweep-event size.

    A full probe summary carries every counter/gauge/histogram; a sweep
    with hundreds of jobs only needs the headline numbers per job, so
    events carry this condensed form: total event count, FSM transitions,
    frequency steps, and the profiler's throughput.
    """
    if not summary:
        return None
    counters = summary.get("counters", {})

    def _total(prefix: str) -> int:
        return sum(v for k, v in counters.items() if k.startswith(prefix))

    condensed: Dict[str, Any] = {
        "events": _total("events."),
        "fsm_transitions": _total("fsm_transitions."),
        "freq_steps": _total("freq_steps."),
        "samples": counters.get("samples", 0),
    }
    profile = summary.get("profile")
    if profile:
        condensed["samples_per_s"] = profile.get("samples_per_s", 0.0)
    return condensed


@dataclass(frozen=True)
class TelemetryEvent:
    """One structured engine event."""

    kind: str
    timestamp: float
    job_id: Optional[str] = None
    data: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "event": self.kind, "timestamp": self.timestamp,
        }
        if self.job_id is not None:
            record["job"] = self.job_id
        record.update(self.data)
        return record


class JsonlEventLog:
    """Listener appending events as JSON lines to ``path``.

    The file is truncated lazily on the first event rather than in the
    constructor: engines are built wherever it is convenient (including
    on the serve event loop), and construction must not do file I/O.
    Events only ever arrive on the engine's run thread.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._truncated = False

    def __call__(self, event: TelemetryEvent) -> None:
        # "w" on the first event: one file describes one sweep
        mode = "a" if self._truncated else "w"
        self._truncated = True
        with open(self.path, mode) as handle:
            handle.write(json.dumps(event.to_dict()) + "\n")


class ProgressReporter:
    """Listener printing one line per terminal job event.

    Each ``sweep_started`` event carries its sweep's job count, so the
    ``[done/total]`` numbering starts over with every sweep.
    """

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self.total = 0
        self.done = 0
        self.stream = stream or sys.stderr

    def __call__(self, event: TelemetryEvent) -> None:
        if event.kind == SWEEP_STARTED:
            self.total = event.data.get("total_jobs", 0)
            self.done = 0
            return
        if event.kind not in (JOB_FINISHED, JOB_CACHE_HIT, JOB_FAILED):
            return
        self.done += 1
        if event.kind == JOB_CACHE_HIT:
            detail = "cached"
        elif event.kind == JOB_FAILED:
            detail = f"FAILED: {event.data.get('error', '?')}"
        else:
            detail = f"{event.data.get('wall_s', 0.0):.2f}s"
        print(
            f"[{self.done}/{self.total}] {event.job_id}: {detail}",
            file=self.stream,
        )


class RunTelemetry:
    """Event hub + counters for the latest sweep run."""

    def __init__(self) -> None:
        self.listeners: List[Callable[[TelemetryEvent], None]] = []
        self.counters: Dict[str, int] = dict.fromkeys(_COUNTED, 0)
        self._started_at: Optional[float] = None
        self._finished_at: Optional[float] = None
        #: summed condensed per-job probe summaries (empty when obs is off)
        self.obs_totals: Dict[str, float] = {}
        self._obs_jobs = 0

    def add_listener(
        self, listener: Callable[[TelemetryEvent], None]
    ) -> None:
        # registration happens before the sweep starts (between building
        # the engine and calling run()); the executor handoff between
        # those points establishes happens-before, so no lock is needed.
        self.listeners.append(listener)

    def emit(
        self, kind: str, job_id: Optional[str] = None, **data: Any
    ) -> TelemetryEvent:
        event = TelemetryEvent(
            kind=kind, timestamp=time.time(), job_id=job_id, data=data
        )
        if kind == SWEEP_STARTED:
            # a new sweep of the same engine starts its counts afresh
            self.counters = dict.fromkeys(_COUNTED, 0)
            self.obs_totals = {}
            self._obs_jobs = 0
            self._started_at = time.monotonic()
            self._finished_at = None
        elif kind == SWEEP_FINISHED:
            self._finished_at = time.monotonic()
        elif kind in self.counters:
            self.counters[kind] += 1
        for listener in self.listeners:
            listener(event)
        return event

    @property
    def wall_s(self) -> float:
        """Sweep wall time so far (or total, once finished)."""
        if self._started_at is None:
            return 0.0
        end = (
            self._finished_at
            if self._finished_at is not None
            else time.monotonic()
        )
        return end - self._started_at

    @property
    def completed_jobs(self) -> int:
        return (
            self.counters[JOB_FINISHED]
            + self.counters[JOB_CACHE_HIT]
            + self.counters[JOB_FAILED]
        )

    def throughput_jobs_per_s(self) -> float:
        wall = self.wall_s
        return self.completed_jobs / wall if wall > 0 else 0.0

    def record_probe_summary(self, condensed: Optional[Dict[str, Any]]) -> None:
        """Fold one job's condensed probe summary into the sweep totals."""
        if not condensed:
            return
        self._obs_jobs += 1
        for key, value in condensed.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                self.obs_totals[key] = self.obs_totals.get(key, 0) + value

    def summary(self) -> Dict[str, Any]:
        """Counter snapshot for end-of-sweep reporting."""
        summary: Dict[str, Any] = {
            "jobs_run": self.counters[JOB_FINISHED],
            "cache_hits": self.counters[JOB_CACHE_HIT],
            "retries": self.counters[JOB_RETRIED],
            "failures": self.counters[JOB_FAILED],
            "cancelled": self.counters[JOB_CANCELLED],
            "wall_s": self.wall_s,
            "jobs_per_s": self.throughput_jobs_per_s(),
        }
        if self._obs_jobs:
            obs = dict(self.obs_totals)
            obs["observed_jobs"] = self._obs_jobs
            # a sum of per-job rates is meaningless; report the mean
            if "samples_per_s" in obs:
                obs["samples_per_s"] = obs["samples_per_s"] / self._obs_jobs
            summary["obs"] = obs
        return summary

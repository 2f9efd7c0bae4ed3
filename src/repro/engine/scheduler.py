"""The sweep engine: fan jobs out over a process pool, robustly.

Execution model
---------------
* Each :class:`~repro.engine.jobs.SweepJob` is first checked against the
  optional content-addressed :class:`~repro.engine.cache.ResultCache`;
  hits never reach a worker.
* Remaining jobs run on a :class:`concurrent.futures.ProcessPoolExecutor`
  (``workers > 1``) or in-process (``workers == 1``), jobs that share a
  trace (benchmark, ``max_instructions``, seed) back to back, so a
  process reuses the trace its previous job generated.  If the pool
  cannot be created or breaks mid-sweep, the engine falls back to
  in-process serial execution for whatever is left -- a sweep degrades,
  it does not abort.
* A per-job wall-clock timeout is enforced *inside* the executing
  process via ``SIGALRM`` (tasks run on the worker's main thread), so a
  runaway job raises :class:`JobTimeoutError` instead of wedging a pool
  slot forever.
* A job that raises (or times out) is retried up to ``retries`` times;
  on exhaustion it is surfaced as a failed :class:`JobOutcome` in the
  telemetry stream and the result list, and the sweep continues.
* A sweep can be **drained**: :meth:`SweepEngine.request_shutdown`
  (typically installed on SIGINT/SIGTERM via :func:`shutdown_on_signals`)
  lets in-flight jobs finish, cancels everything still queued (surfaced
  as ``job_cancelled`` telemetry), and still emits ``sweep_finished`` --
  so an interrupted sweep flushes its telemetry and cache writes instead
  of orphaning pool workers.

Outcomes are returned in input-job order regardless of execution and
completion order, so pool and serial execution are interchangeable
downstream.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import signal
import threading
import time
from dataclasses import dataclass
from types import FrameType
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.engine import cache as result_cache
from repro.engine import telemetry as tm
from repro.engine.cache import ResultCache
from repro.engine.jobs import SweepJob, run_job
from repro.obs.metrics import Counter, CounterFamily, Gauge, MetricsRegistry
from repro.obs.spans import Span, SpanContext, SpanRecorder, start_worker_span
from repro.simcore import resolve_core
from repro.mcd.processor import SimulationResult

try:  # BrokenProcessPool moved/aliased across Python versions
    from concurrent.futures.process import BrokenProcessPool
except ImportError:  # pragma: no cover
    BrokenProcessPool = concurrent.futures.BrokenExecutor  # type: ignore[misc,assignment]


#: the terminal job outcomes the ``repro_engine_jobs_total`` metric
#: distinguishes; anything else collapses to "other".
_OUTCOMES = frozenset({"finished", "failed", "cancelled"})

#: seconds the pooled loop waits for a completion before it checks for a
#: drain again: a drain must cancel queued jobs while they are still
#: queued, not at the next completion, by which time the pool has moved
#: more of them into its call queue, where they can no longer be cancelled
_DRAIN_POLL_S = 0.05


class JobTimeoutError(Exception):
    """A job exceeded the engine's per-job timeout."""


@dataclass(frozen=True)
class EngineConfig:
    """Engine knobs; defaults favour robustness over raw speed."""

    #: worker processes; 1 means in-process serial execution.
    workers: int = 1
    #: result-cache directory; ``None`` disables caching.
    cache_dir: Optional[str] = None
    #: per-job wall-clock timeout in seconds; ``None`` disables it.
    timeout_s: Optional[float] = None
    #: extra attempts after a job's first failure.
    retries: int = 1
    #: JSON-lines event log path; ``None`` disables it.
    events_path: Optional[str] = None
    #: print one progress line per completed job.
    progress: bool = False


@dataclass
class JobOutcome:
    """What happened to one job."""

    job: SweepJob
    result: Optional[SimulationResult] = None
    error: Optional[str] = None
    attempts: int = 0
    from_cache: bool = False
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.result is not None


def _call_with_timeout(
    runner: Callable[[SweepJob], SimulationResult],
    job: SweepJob,
    timeout_s: Optional[float],
) -> SimulationResult:
    """Run ``runner(job)``, raising :class:`JobTimeoutError` after
    ``timeout_s`` when SIGALRM is available on this thread."""
    use_alarm = (
        timeout_s is not None
        and timeout_s > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not use_alarm:
        return runner(job)

    def _on_alarm(signum: int, frame: object) -> None:
        raise JobTimeoutError(
            f"job {job.job_id} exceeded {timeout_s:.3g}s timeout"
        )

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, float(timeout_s))
    try:
        return runner(job)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _pool_entry(
    runner: Callable[[SweepJob], SimulationResult],
    job: SweepJob,
    timeout_s: Optional[float],
    span_parent: Optional[Dict[str, str]] = None,
) -> Tuple[SimulationResult, Optional[Dict[str, Any]]]:
    """Worker-process entry point (module-level, hence picklable).

    With a ``span_parent`` context (a plain picklable dict), the run is
    wrapped in a worker span that carries the submitting trace ID across
    the process boundary; the finished-span dict rides home in the
    return value for the engine to record.  Without one, the call is
    exactly the pre-tracing path.
    """
    if span_parent is None:
        return _call_with_timeout(runner, job, timeout_s), None
    span = start_worker_span(
        f"job:{job.job_id}", span_parent, attrs={"seed": job.seed}
    )
    result = _call_with_timeout(runner, job, timeout_s)
    span.set_attr("instructions", result.instructions)
    return result, span.end()


#: what a pooled job ships home: the result plus its optional worker span.
_PoolResult = Tuple[SimulationResult, Optional[Dict[str, Any]]]


def _by_trace(jobs: Sequence[SweepJob], indices: List[int]) -> List[int]:
    """``indices`` with jobs that share a trace back to back.

    Groups run in order of first appearance, and each keeps input order.
    The key only orders jobs, so it takes the spec's name rather than
    hashing its content again: specs that share a name but not their
    content still run correctly, they just miss the trace memo
    (``repro.harness.experiment``).
    """
    groups: Dict[Tuple[str, Optional[int], int], List[int]] = {}
    for index in indices:
        job = jobs[index]
        spec = job.benchmark
        seed = spec.seed if job.seed is None else job.seed
        groups.setdefault((spec.name, job.max_instructions, seed), []).append(index)
    return [index for group in groups.values() for index in group]


class SweepEngine:
    """Orchestrates one sweep: cache, pool, retries, telemetry."""

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        runner: Callable[[SweepJob], SimulationResult] = run_job,
        telemetry: Optional[tm.RunTelemetry] = None,
        tracer: Optional[SpanRecorder] = None,
        trace_parent: Optional[SpanContext] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config or EngineConfig()
        self.runner = runner
        self.telemetry = telemetry or tm.RunTelemetry()
        if self.config.events_path:
            self.telemetry.add_listener(tm.JsonlEventLog(self.config.events_path))
        self.cache = (
            ResultCache(self.config.cache_dir)
            if self.config.cache_dir
            else None
        )
        self._shutdown = threading.Event()
        self.tracer = tracer
        self.trace_parent = trace_parent
        self._sweep_span: Optional[Span] = None
        # Instruments are resolved to attributes once, here, and only
        # when a live registry is passed: the metrics-disabled engine
        # then makes zero calls into repro.obs.metrics for a whole run
        # (the sys.setprofile guard in tests/obs/test_overhead.py).
        self._m_jobs: Optional[CounterFamily] = None
        self._m_retries: Optional[Counter] = None
        self._m_timeouts: Optional[Counter] = None
        self._m_pending: Optional[Gauge] = None
        self._m_inflight: Optional[Gauge] = None
        self._m_cache_ratio: Optional[Gauge] = None
        self._m_instr_rate: Optional[Gauge] = None
        if metrics is not None:
            self._m_jobs = metrics.counter_family(
                "repro_engine_jobs_total",
                "Sweep jobs by terminal outcome", ("outcome",),
            )
            self._m_retries = metrics.counter(
                "repro_engine_retries_total", "Job attempts after a failure"
            )
            self._m_timeouts = metrics.counter(
                "repro_engine_timeouts_total", "Jobs that hit the per-job timeout"
            )
            self._m_pending = metrics.gauge(
                "repro_engine_pending_jobs",
                "Submitted jobs not yet finished (queue depth)",
            )
            self._m_inflight = metrics.gauge(
                "repro_engine_inflight_jobs", "Job attempts currently executing"
            )
            self._m_cache_ratio = metrics.gauge(
                "repro_engine_cache_hit_ratio",
                "Cache hits / jobs of the most recent sweep",
            )
            self._m_instr_rate = metrics.gauge(
                "repro_run_instr_per_s",
                "Instructions per wall-second of the latest finished job",
            )

    # -- public API ----------------------------------------------------

    def request_shutdown(self) -> None:
        """Drain the sweep: finish in-flight jobs, cancel queued ones.

        Safe to call from any thread (including a signal handler); the
        first call emits a ``shutdown_requested`` telemetry event.
        """
        if not self._shutdown.is_set():
            self._shutdown.set()
            self.telemetry.emit(tm.SHUTDOWN_REQUESTED)

    @property
    def shutdown_requested(self) -> bool:
        return self._shutdown.is_set()

    def run(self, jobs: Sequence[SweepJob]) -> List[JobOutcome]:
        """Execute ``jobs``; outcomes come back in input order."""
        jobs = list(jobs)
        if self.config.progress:
            self.telemetry.add_listener(tm.ProgressReporter(len(jobs)))
        if self.tracer is not None:
            self._sweep_span = self.tracer.start(
                "sweep",
                parent=self.trace_parent,
                attrs={"jobs": len(jobs), "workers": self.config.workers},
            )
        self.telemetry.emit(
            tm.SWEEP_STARTED,
            total_jobs=len(jobs),
            workers=self.config.workers,
            cache=self.cache is not None,
            # cores jobs will resolve to, in job order de-duplicated --
            # usually a single entry unless jobs pin cores explicitly
            simcores=sorted({resolve_core(job.simcore) for job in jobs}),
        )
        outcomes: List[Optional[JobOutcome]] = [None] * len(jobs)
        # each job's cache key, hashed once here for both the get below
        # and the put after the job runs (None without a cache)
        keys: List[Optional[str]] = [None] * len(jobs)

        pending: List[int] = []
        for index, job in enumerate(jobs):
            cached: Optional[SimulationResult] = None
            if self.cache:
                keys[index] = result_cache.job_cache_key(job)
                cached = self.cache.get(job, keys[index])
            if cached is not None:
                outcomes[index] = JobOutcome(
                    job=job, result=cached, from_cache=True
                )
                condensed = tm.condense_probe_summary(
                    getattr(cached, "probe_summary", None)
                )
                self.telemetry.record_probe_summary(condensed)
                extra = {"obs": condensed} if condensed else {}
                self.telemetry.emit(tm.JOB_CACHE_HIT, job.job_id, **extra)
                if self._m_jobs is not None:
                    self._m_jobs.labels(outcome="cache_hit").inc()
                if self.tracer is not None:
                    self.tracer.start(
                        f"job:{job.job_id}",
                        parent=self._job_parent(job),
                        attrs={"cache": "hit", "seed": job.seed},
                    ).end()
            else:
                pending.append(index)

        pending = _by_trace(jobs, pending)
        hits = len(jobs) - len(pending)
        if self._m_cache_ratio is not None and jobs:
            self._m_cache_ratio.set(hits / len(jobs))
        if self._m_pending is not None:
            self._m_pending.inc(len(pending))

        if pending:
            if self.config.workers > 1 and len(pending) > 1:
                self._run_pooled(jobs, pending, outcomes, keys)
            else:
                self._run_serial(jobs, pending, outcomes, keys)

        self.telemetry.emit(tm.SWEEP_FINISHED, **self.telemetry.summary())
        if self._sweep_span is not None:
            self._sweep_span.set_attr("cache_hits", hits)
            self._sweep_span.end()
            self._sweep_span = None
        return [outcome for outcome in outcomes if outcome is not None]

    # -- execution paths ----------------------------------------------

    def _job_parent(self, job: SweepJob) -> Optional[SpanContext]:
        """The parent context for a job's spans: a job-carried context
        (e.g. the serve request that submitted it) wins over the
        engine's own sweep span."""
        if job.span is not None:
            return job.span
        if self._sweep_span is not None:
            return self._sweep_span.context
        return None

    def _span_parent_dict(self, job: SweepJob) -> Optional[Dict[str, str]]:
        """What crosses the process boundary: a plain dict, or None when
        tracing is off (keeping the worker path allocation-free)."""
        if self.tracer is None:
            return None
        parent = self._job_parent(job)
        return parent.to_dict() if parent is not None else None

    def _record_worker_span(self, span: Optional[Dict[str, Any]]) -> None:
        if span is not None and self.tracer is not None:
            self.tracer.record(span)

    def _job_done(self, outcome: str) -> None:
        if self._m_jobs is not None:
            # clamp: the label set stays bounded even if a new call site
            # passes a dynamic outcome string.
            outcome = outcome if outcome in _OUTCOMES else "other"
            self._m_jobs.labels(outcome=outcome).inc()
        if self._m_pending is not None:
            self._m_pending.dec()

    def _record_success(
        self,
        index: int,
        job: SweepJob,
        result: SimulationResult,
        attempts: int,
        wall_s: float,
        outcomes: List[Optional[JobOutcome]],
        key: Optional[str],
    ) -> None:
        outcomes[index] = JobOutcome(
            job=job, result=result, attempts=attempts, wall_s=wall_s
        )
        if self.cache is not None:
            self.cache.put(job, result, key)
        condensed = tm.condense_probe_summary(
            getattr(result, "probe_summary", None)
        )
        self.telemetry.record_probe_summary(condensed)
        extra = {"obs": condensed} if condensed else {}
        self.telemetry.emit(
            tm.JOB_FINISHED, job.job_id, attempts=attempts, wall_s=wall_s, **extra
        )
        self._job_done("finished")
        if self._m_instr_rate is not None and wall_s > 0:
            self._m_instr_rate.set(result.instructions / wall_s)

    def _record_failure(
        self,
        index: int,
        job: SweepJob,
        error: str,
        attempts: int,
        outcomes: List[Optional[JobOutcome]],
    ) -> None:
        outcomes[index] = JobOutcome(job=job, error=error, attempts=attempts)
        self.telemetry.emit(
            tm.JOB_FAILED, job.job_id, error=error, attempts=attempts
        )
        self._job_done("failed")
        if self._m_timeouts is not None and "JobTimeoutError" in error:
            self._m_timeouts.inc()

    def _record_cancelled(
        self,
        index: int,
        job: SweepJob,
        attempts: int,
        outcomes: List[Optional[JobOutcome]],
    ) -> None:
        """A drained job still yields an outcome (``ok`` False), keeping
        ``run()``'s one-outcome-per-job input-order contract intact."""
        outcomes[index] = JobOutcome(
            job=job, error="cancelled: shutdown requested", attempts=attempts
        )
        self.telemetry.emit(tm.JOB_CANCELLED, job.job_id, reason="shutdown")
        self._job_done("cancelled")

    def _run_serial(
        self,
        jobs: Sequence[SweepJob],
        indices: Sequence[int],
        outcomes: List[Optional[JobOutcome]],
        keys: Sequence[Optional[str]],
    ) -> None:
        for index in indices:
            job = jobs[index]
            if self._shutdown.is_set():
                self._record_cancelled(index, job, 0, outcomes)
                continue
            attempts = 0
            while True:
                attempts += 1
                self.telemetry.emit(
                    tm.JOB_STARTED, job.job_id, attempt=attempts, mode="serial"
                )
                if self._m_inflight is not None:
                    self._m_inflight.inc()
                started = time.monotonic()
                try:
                    result, span = _pool_entry(
                        self.runner, job, self.config.timeout_s,
                        self._span_parent_dict(job),
                    )
                except Exception as exc:  # noqa: BLE001 -- isolate job faults
                    if self._m_inflight is not None:
                        self._m_inflight.dec()
                    error = f"{type(exc).__name__}: {exc}"
                    if attempts <= self.config.retries and not self._shutdown.is_set():
                        self.telemetry.emit(
                            tm.JOB_RETRIED, job.job_id,
                            error=error, attempt=attempts,
                        )
                        if self._m_retries is not None:
                            self._m_retries.inc()
                        continue
                    self._record_failure(index, job, error, attempts, outcomes)
                    break
                if self._m_inflight is not None:
                    self._m_inflight.dec()
                self._record_worker_span(span)
                self._record_success(
                    index, job, result, attempts,
                    time.monotonic() - started, outcomes, keys[index],
                )
                break

    def _cancel_queued(
        self,
        jobs: Sequence[SweepJob],
        futures: "Dict[concurrent.futures.Future[_PoolResult], int]",
        attempts: Dict[int, int],
        outcomes: List[Optional[JobOutcome]],
    ) -> None:
        """Drain helper: cancel every not-yet-running pooled future.

        Jobs already executing on a worker keep running to completion;
        everything still queued is cancelled and surfaced as
        ``job_cancelled`` telemetry.
        """
        for future in list(futures):
            if future.cancel():
                index = futures.pop(future)
                if self._m_inflight is not None:
                    self._m_inflight.dec()
                self._record_cancelled(
                    index, jobs[index], attempts[index], outcomes
                )

    def _run_pooled(
        self,
        jobs: Sequence[SweepJob],
        indices: Sequence[int],
        outcomes: List[Optional[JobOutcome]],
        keys: Sequence[Optional[str]],
    ) -> None:
        workers = min(self.config.workers, len(indices))
        try:
            executor = concurrent.futures.ProcessPoolExecutor(
                max_workers=workers
            )
        except (OSError, ImportError, NotImplementedError, ValueError) as exc:
            self.telemetry.emit(
                tm.POOL_UNAVAILABLE,
                error=f"{type(exc).__name__}: {exc}",
                fallback="serial",
            )
            self._run_serial(jobs, indices, outcomes, keys)
            return

        attempts: Dict[int, int] = {index: 0 for index in indices}
        started_at: Dict[int, float] = {}
        futures: Dict[concurrent.futures.Future[_PoolResult], int] = {}

        def submit(index: int) -> None:
            attempts[index] += 1
            self.telemetry.emit(
                tm.JOB_STARTED, jobs[index].job_id,
                attempt=attempts[index], mode="pool",
            )
            if self._m_inflight is not None:
                self._m_inflight.inc()
            started_at[index] = time.monotonic()
            future = executor.submit(
                _pool_entry, self.runner, jobs[index], self.config.timeout_s,
                self._span_parent_dict(jobs[index]),
            )
            futures[future] = index

        try:
            with executor:
                for index in indices:
                    if self._shutdown.is_set():
                        self._record_cancelled(index, jobs[index], 0, outcomes)
                        continue
                    submit(index)
                while futures:
                    done, _ = concurrent.futures.wait(
                        futures,
                        timeout=_DRAIN_POLL_S,
                        return_when=concurrent.futures.FIRST_COMPLETED,
                    )
                    for future in done:
                        index = futures.pop(future)
                        job = jobs[index]
                        wall_s = time.monotonic() - started_at[index]
                        if self._m_inflight is not None:
                            self._m_inflight.dec()
                        try:
                            result, span = future.result()
                        except BrokenProcessPool:
                            raise
                        except concurrent.futures.CancelledError:
                            if outcomes[index] is None:
                                self._record_cancelled(
                                    index, job, attempts[index], outcomes
                                )
                            continue
                        except Exception as exc:  # noqa: BLE001
                            error = f"{type(exc).__name__}: {exc}"
                            if (
                                attempts[index] <= self.config.retries
                                and not self._shutdown.is_set()
                            ):
                                self.telemetry.emit(
                                    tm.JOB_RETRIED, job.job_id,
                                    error=error, attempt=attempts[index],
                                )
                                if self._m_retries is not None:
                                    self._m_retries.inc()
                                submit(index)
                            else:
                                self._record_failure(
                                    index, job, error,
                                    attempts[index], outcomes,
                                )
                            continue
                        self._record_worker_span(span)
                        self._record_success(
                            index, job, result,
                            attempts[index], wall_s, outcomes, keys[index],
                        )
                    if self._shutdown.is_set():
                        self._cancel_queued(jobs, futures, attempts, outcomes)
        except BrokenProcessPool as exc:
            # a worker died hard (OOM-kill, segfault); finish what's left
            # in-process rather than losing the sweep
            if self._m_inflight is not None:
                self._m_inflight.dec(len(futures))
            remaining = [i for i in indices if outcomes[i] is None]
            self.telemetry.emit(
                tm.POOL_UNAVAILABLE,
                error=f"{type(exc).__name__}: {exc}",
                fallback="serial",
                remaining_jobs=len(remaining),
            )
            self._run_serial(jobs, remaining, outcomes, keys)


@contextlib.contextmanager
def shutdown_on_signals(
    engine: SweepEngine,
    signums: Tuple[int, ...] = (signal.SIGINT, signal.SIGTERM),
) -> Iterator[SweepEngine]:
    """Install handlers that drain ``engine`` on the given signals.

    The first signal requests a graceful drain (in-flight jobs finish,
    queued jobs are cancelled, telemetry and cache writes are flushed);
    a second delivery falls through to the previously installed handler,
    so a double Ctrl-C still kills a wedged sweep.  Previous handlers
    are restored on exit.  Off the main thread, where Python forbids
    installing signal handlers, this degrades to a no-op.
    """
    if threading.current_thread() is not threading.main_thread():
        yield engine
        return

    previous: Dict[int, Any] = {}

    def _handler(signum: int, frame: Optional[FrameType]) -> None:
        if engine.shutdown_requested:
            # second signal: restore + re-raise to the old disposition
            old = previous.get(signum, signal.SIG_DFL)
            signal.signal(signum, old)
            if callable(old):
                old(signum, frame)
            else:
                signal.raise_signal(signum)
            return
        engine.request_shutdown()

    try:
        for signum in signums:
            previous[signum] = signal.signal(signum, _handler)
        yield engine
    finally:
        for signum, old in previous.items():
            signal.signal(signum, old)

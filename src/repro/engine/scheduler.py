"""The sweep engine: fan jobs out over a process pool, robustly.

Execution model
---------------
* Each :class:`~repro.engine.jobs.SweepJob` is first checked against the
  optional content-addressed :class:`~repro.engine.cache.ResultCache`;
  hits never reach a worker.
* Remaining jobs run in one loop, grouped by trace (benchmark,
  ``max_instructions``, seed).  The loop hands out *tasks*: a whole
  group while at least ``workers`` groups are queued, otherwise one job.
  A task runs its jobs back to back in one process, so the process
  generates the group's trace once.  The loop hands a task to a
  :class:`concurrent.futures.ProcessPoolExecutor` (``workers > 1``)
  only while fewer than ``workers + 1`` are in flight on it, or runs one
  job at a time in-process (``workers == 1``).  If the pool cannot be
  created or breaks mid-sweep, the loop requeues what the pool lost and
  carries on in-process -- a sweep degrades, it does not abort.
* A per-job wall-clock timeout is enforced *inside* the executing
  process via ``SIGALRM`` (tasks run on the worker's main thread), so a
  runaway job raises :class:`JobTimeoutError` instead of wedging a pool
  slot forever.
* A job that raises (or times out) is retried as a task of its own, up
  to ``retries`` times; its group-mates keep their own outcomes.  On
  exhaustion it is surfaced as a failed :class:`JobOutcome` in the
  telemetry stream and the result list, and the sweep continues.
* A sweep can be **drained**: after :meth:`SweepEngine.request_shutdown`
  (typically installed on SIGINT/SIGTERM via :func:`shutdown_on_signals`)
  the loop hands out nothing more and each pool worker stops before the
  next job of its task.  The jobs already started finish -- of those,
  at most one per pool was still waiting for a worker -- every other job
  is surfaced as ``job_cancelled`` telemetry, and ``sweep_finished`` is
  still emitted, so an interrupted sweep flushes its telemetry and cache
  writes instead of orphaning pool workers.
* ``job_started`` fires only for jobs known to have started: for a
  task's first job when the task is handed out, for its other jobs when
  it returns.  A job's ``wall_s`` is its attempt's own run time,
  measured in the process that runs it, so it never counts time spent
  waiting for a worker.

Outcomes are returned in input-job order regardless of execution and
completion order, so pool and serial execution are interchangeable
downstream.
"""

from __future__ import annotations

import collections
import concurrent.futures
import contextlib
import multiprocessing
import signal
import threading
import time
from dataclasses import dataclass
from types import FrameType
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
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

if TYPE_CHECKING:
    from multiprocessing.synchronize import Event as DrainEvent


#: the terminal job outcomes the ``repro_engine_jobs_total`` metric
#: distinguishes; anything else collapses to "other".
_OUTCOMES = frozenset({"finished", "failed", "cancelled"})


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


#: what an attempt ships home: the result, its optional worker span, and
#: its run time in seconds.
_Attempt = Tuple[SimulationResult, Optional[Dict[str, Any]], float]

#: what a task ships home for each job it ran, in order: the attempt, or
#: the error text of a job that raised.
_Item = Union[_Attempt, str]

#: in a pool worker, the engine's drain event (see :func:`_init_worker`);
#: None in the engine's own process.
_worker_drain: Optional["DrainEvent"] = None


def _init_worker(drain: "DrainEvent") -> None:
    """Pool initializer: keep the drain event the engine sets on
    :meth:`SweepEngine.request_shutdown`.  Passed as an initializer
    argument, it reaches the worker under every start method."""
    global _worker_drain
    _worker_drain = drain


def _attempt(
    runner: Callable[[SweepJob], SimulationResult],
    job: SweepJob,
    timeout_s: Optional[float],
    span_parent: Optional[Dict[str, str]],
) -> _Attempt:
    """One attempt of ``job``, timed where it runs, so that its run time
    never counts time the attempt spent waiting for a worker.

    With a ``span_parent`` context (a plain picklable dict), the run is
    wrapped in a worker span that carries the submitting trace ID across
    the process boundary; the finished-span dict rides home in the
    return value for the engine to record.  Without one, the call is
    exactly the pre-tracing path.
    """
    span = (
        None
        if span_parent is None
        else start_worker_span(
            f"job:{job.job_id}", span_parent, attrs={"seed": job.seed}
        )
    )
    started = time.monotonic()
    result = _call_with_timeout(runner, job, timeout_s)
    wall_s = time.monotonic() - started
    if span is None:
        return result, None, wall_s
    span.set_attr("instructions", result.instructions)
    return result, span.end(), wall_s


def _pool_entry(
    runner: Callable[[SweepJob], SimulationResult],
    jobs: Sequence[SweepJob],
    timeout_s: Optional[float],
    span_parents: Sequence[Optional[Dict[str, str]]],
) -> List[_Item]:
    """Run one task's jobs back to back, in a worker process or
    in-process (module-level, hence picklable): one item per job that
    ran, in order.

    A job that raises becomes its error text and the next job still
    runs, so one fault never costs its group-mates their results.  Once
    the engine's drain event is set, the task stops before its next job;
    the engine cancels the jobs it returns no item for.
    """
    items: List[_Item] = []
    for job, span_parent in zip(jobs, span_parents):
        if items and _worker_drain is not None and _worker_drain.is_set():
            break
        try:
            items.append(_attempt(runner, job, timeout_s, span_parent))
        except Exception as exc:  # noqa: BLE001 -- isolate job faults
            items.append(f"{type(exc).__name__}: {exc}")
    return items


def _by_trace(jobs: Sequence[SweepJob], indices: List[int]) -> List[List[int]]:
    """``indices`` in groups of jobs that share a trace.

    Groups come in order of first appearance, and each keeps input order.
    The key only groups jobs, so it takes the spec's name rather than
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
    return list(groups.values())


class SweepEngine:
    """Orchestrates one sweep: cache, pool, retries, telemetry."""

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        runner: Callable[[SweepJob], SimulationResult] = run_job,
        tracer: Optional[SpanRecorder] = None,
        trace_parent: Optional[SpanContext] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config or EngineConfig()
        self.runner = runner
        #: the event hub; attach listeners with ``telemetry.add_listener``
        self.telemetry = tm.RunTelemetry()
        self.cache = (
            ResultCache(self.config.cache_dir)
            if self.config.cache_dir
            else None
        )
        #: a drain for the run in progress, or for the next one
        self._shutdown = threading.Event()
        #: whether the latest run was drained (``shutdown_requested``)
        self._drained = False
        #: the live pool's drain event, which its workers check between jobs
        self._pool_drain: Optional["DrainEvent"] = None
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
                "repro_engine_inflight_jobs",
                "Job attempts started and not yet finished: one per task in "
                "flight, whose later jobs start as it returns "
                "(at most workers + 1; at most one per pool waits for a worker)",
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
        """Drain the sweep: hand out no more tasks, stop each pool worker
        before the next job of its task, let the jobs already started
        finish (of them, at most one per pool was still waiting for a
        worker), and cancel every other job.

        The drain applies to the run in progress or, when none is, to the
        next one.  Safe to call from any thread (including a signal
        handler); the first call emits a ``shutdown_requested`` telemetry
        event.
        """
        if not self._shutdown.is_set():
            self._shutdown.set()
            pool_drain = self._pool_drain
            if pool_drain is not None:
                pool_drain.set()
            self.telemetry.emit(tm.SHUTDOWN_REQUESTED)

    @property
    def shutdown_requested(self) -> bool:
        """A drain is pending, or applied to the run that returned last."""
        return self._drained or self._shutdown.is_set()

    def run(self, jobs: Sequence[SweepJob]) -> List[JobOutcome]:
        """Execute ``jobs``; outcomes come back in input order."""
        jobs = list(jobs)
        self._drained = False
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

        hits = len(jobs) - len(pending)
        if self._m_cache_ratio is not None and jobs:
            self._m_cache_ratio.set(hits / len(jobs))
        if self._m_pending is not None:
            self._m_pending.inc(len(pending))

        if pending:
            self._execute(jobs, _by_trace(jobs, pending), outcomes, keys)

        self.telemetry.emit(tm.SWEEP_FINISHED, **self.telemetry.summary())
        if self._shutdown.is_set():
            # the drain applied to this run; the next one starts afresh
            self._shutdown.clear()
            self._drained = True
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

    def _job_started(self, job: SweepJob, attempt: int, mode: str) -> None:
        if self._m_inflight is not None:
            self._m_inflight.inc()
        self.telemetry.emit(tm.JOB_STARTED, job.job_id, attempt=attempt, mode=mode)

    def _open_pool(
        self, workers: int
    ) -> Optional[concurrent.futures.ProcessPoolExecutor]:
        """A pool of ``workers`` processes, or None to run in-process."""
        if workers < 2:
            return None
        try:
            context = multiprocessing.get_context()
            drain = context.Event()
            pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=workers,
                mp_context=context,
                initializer=_init_worker,
                initargs=(drain,),
            )
        except (OSError, ImportError, NotImplementedError, ValueError) as exc:
            self.telemetry.emit(
                tm.POOL_UNAVAILABLE,
                error=f"{type(exc).__name__}: {exc}",
                fallback="serial",
            )
            return None
        # published before the first hand-out: a drain requested earlier
        # is seen by the loop, a later one sets the event too
        self._pool_drain = drain
        return pool

    def _hand_out(
        self,
        pool: Optional[concurrent.futures.ProcessPoolExecutor],
        jobs: List[SweepJob],
    ) -> concurrent.futures.Future[List[_Item]]:
        """Start one task on ``pool``, or run it here to an already
        completed future, so both modes share one completion path."""
        args = (
            self.runner, jobs, self.config.timeout_s,
            [self._span_parent_dict(job) for job in jobs],
        )
        future: concurrent.futures.Future[List[_Item]] = concurrent.futures.Future()
        try:
            if pool is not None:
                return pool.submit(_pool_entry, *args)
            future.set_result(_pool_entry(*args))
        except Exception as exc:  # noqa: BLE001 -- isolate job faults
            future.set_exception(exc)
        return future

    def _execute(
        self,
        jobs: Sequence[SweepJob],
        groups: List[List[int]],
        outcomes: List[Optional[JobOutcome]],
        keys: Sequence[Optional[str]],
    ) -> None:
        """Run each job in ``groups`` to one outcome, handing out tasks in
        that order (a retry goes to the front, as a task of its own).

        A task is a whole group while at least ``workers`` groups are
        queued, so one worker generates the group's trace once; otherwise,
        and always in-process, it is one job, so the last groups still
        spread over every worker.  The loop hands a task to the pool only
        while fewer than ``workers + 1`` are in flight on it: the one
        beyond ``workers`` waits in the pool's queue, so a worker that
        finishes a task starts the next without waiting for this loop,
        and every other job stays here, where a drain reaches it before
        it starts.
        """
        queue: Deque[List[int]] = collections.deque(groups)
        attempts = {index: 0 for group in groups for index in group}
        inflight: Dict[concurrent.futures.Future[List[_Item]], List[int]] = {}
        workers = min(self.config.workers, len(attempts))
        pool = self._open_pool(workers)
        try:
            while True:
                if self._shutdown.is_set():
                    while queue:
                        for index in queue.popleft():
                            self._record_cancelled(
                                index, jobs[index], attempts[index], outcomes
                            )
                limit = 1 if pool is None else workers + 1
                while queue and len(inflight) < limit:
                    if pool is not None and len(queue) >= workers:
                        task = queue.popleft()
                    else:
                        task = [queue[0].pop(0)]
                        if not queue[0]:
                            queue.popleft()
                    attempts[task[0]] += 1
                    self._job_started(
                        jobs[task[0]], attempts[task[0]],
                        "serial" if pool is None else "pool",
                    )
                    inflight[self._hand_out(pool, [jobs[i] for i in task])] = task
                if not inflight:
                    return
                done, _ = concurrent.futures.wait(
                    inflight, return_when=concurrent.futures.FIRST_COMPLETED
                )
                for future in done:
                    task = inflight.pop(future)
                    try:
                        items = future.result()
                    except Exception as exc:  # noqa: BLE001 -- isolate job faults
                        error = f"{type(exc).__name__}: {exc}"
                        if pool is not None and isinstance(exc, BrokenProcessPool):
                            # a worker died hard (OOM-kill, segfault):
                            # requeue every job of the tasks the pool held
                            # and finish in-process rather than losing the
                            # sweep; only a task's first job had started
                            lost = [task, *inflight.values()]
                            if self._m_inflight is not None:
                                self._m_inflight.dec(len(lost))
                            inflight.clear()
                            for lost_task in lost:
                                attempts[lost_task[0]] -= 1
                            queue.extendleft(reversed(lost))
                            self.telemetry.emit(
                                tm.POOL_UNAVAILABLE,
                                error=error,
                                fallback="serial",
                                remaining_jobs=sum(
                                    1 for i in attempts if outcomes[i] is None
                                ),
                            )
                            pool.shutdown()
                            pool = None
                            break  # the rest of `done` was requeued too
                        # the task's first job is the one known to have
                        # started; the others go back unstarted
                        items = [error]
                    if len(items) < len(task):
                        # jobs the task never started (a drain stopped it,
                        # or it failed as a whole) go back to the front
                        queue.appendleft(task[len(items):])
                    for position, (index, item) in enumerate(zip(task, items)):
                        job = jobs[index]
                        if position:
                            attempts[index] += 1
                            self._job_started(job, attempts[index], "pool")
                        if self._m_inflight is not None:
                            self._m_inflight.dec()
                        if not isinstance(item, str):
                            result, span, wall_s = item
                            self._record_worker_span(span)
                            self._record_success(
                                index, job, result, attempts[index], wall_s,
                                outcomes, keys[index],
                            )
                        elif (
                            attempts[index] <= self.config.retries
                            and not self._shutdown.is_set()
                        ):
                            self.telemetry.emit(
                                tm.JOB_RETRIED, job.job_id,
                                error=item, attempt=attempts[index],
                            )
                            if self._m_retries is not None:
                                self._m_retries.inc()
                            queue.appendleft([index])
                        else:
                            self._record_failure(
                                index, job, item, attempts[index], outcomes
                            )
        finally:
            self._pool_drain = None
            if pool is not None:
                pool.shutdown()


@contextlib.contextmanager
def shutdown_on_signals(
    engine: SweepEngine,
    signums: Tuple[int, ...] = (signal.SIGINT, signal.SIGTERM),
) -> Iterator[SweepEngine]:
    """Install handlers that drain ``engine`` on the given signals.

    The first signal requests a graceful drain: no task is handed out
    after it and each pool worker stops before the next job of its task,
    the jobs already started finish (of them, at most one per pool was
    still waiting for a worker), every other job is cancelled, and
    telemetry and cache writes are flushed.  A
    second delivery falls through to the previously installed handler,
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

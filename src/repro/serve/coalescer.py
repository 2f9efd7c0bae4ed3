"""Batch concurrent single-run requests into ``run_batch`` ticks.

``POST /v1/runs`` arrives one simulation at a time, but the batched
simulation backend (:func:`repro.simcore.run_batch`, PR 4) amortizes
table construction and engine overhead across many seeds of one
``(benchmark, scheme, parameters)`` point.  The coalescer is the adapter
between the two shapes:

* submissions accumulate in a pending list;
* when ``max_batch`` are waiting, a batch is cut immediately; otherwise
  a timer flushes whatever arrived within ``max_delay_s`` (so a lone
  request pays at most the coalescing window in added latency);
* each flushed batch is grouped by *everything except the seed* (the
  job's canonical dict minus ``seed``); every group becomes exactly one
  ``run_batch`` call with the group's seeds -- so N concurrent
  homogeneous requests cost ceil(N / max_batch) backend ticks;
* results are content-identical to serial execution: ``run_batch``
  builds the same :class:`repro.engine.jobs.SweepJob` per seed, through
  the same engine/cache, as a direct ``run_experiment`` call would.

The executing ``run_batch`` runs on a thread-pool executor so the event
loop keeps serving while simulations grind.
"""

from __future__ import annotations

import asyncio
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
)

from repro.simcore import run_batch

if TYPE_CHECKING:
    import concurrent.futures

    from repro.engine.jobs import SweepJob
    from repro.engine.scheduler import SweepEngine
    from repro.mcd.processor import SimulationResult
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.spans import SpanRecorder

#: histogram bounds for batch sizes (a batch has >= 1 request and is
#: capped by ``max_batch``, typically single digits)
_BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


def group_key(job: "SweepJob") -> str:
    """The coalescing identity: the job's canonical JSON minus its seed.

    Two jobs with equal group keys differ (at most) in their RNG seed,
    which is exactly the axis ``run_batch`` vectorizes over.
    """
    return job.canonical_json(omit=("seed",))


# statcheck: loop-confined
class RequestCoalescer:
    """Accumulate submissions; flush them as grouped ``run_batch`` calls.

    Loop-confined: the pending list, timer, and stats counters are only
    touched from event-loop coroutines.  The single exception is
    :meth:`_execute_group`, which runs on the executor and is written to
    touch nothing but its arguments and thread-safe instruments.
    """

    def __init__(
        self,
        max_batch: int = 8,
        max_delay_s: float = 0.005,
        engine_factory: "Optional[Callable[[], Optional[SweepEngine]]]" = None,
        run_batch_fn: Optional[Callable[..., "List[SimulationResult]"]] = None,
        executor: "Optional[concurrent.futures.Executor]" = None,
        tracer: "Optional[SpanRecorder]" = None,
        metrics: "Optional[MetricsRegistry]" = None,
    ) -> None:
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if max_delay_s < 0:
            raise ValueError("max_delay_s must be non-negative")
        self.max_batch = max_batch
        self.max_delay_s = max_delay_s
        self.engine_factory = engine_factory or (lambda: None)
        self.run_batch_fn = run_batch_fn or run_batch
        self.executor = executor
        self.tracer = tracer
        self._pending: "List[Tuple[SweepJob, asyncio.Future]]" = []
        self._timer: Optional[asyncio.Task] = None
        self._inflight: "List[asyncio.Task]" = []
        # -- stats (exposed by /v1/stats and the load bench) -----------
        self.submitted = 0
        self.flushes = 0
        self.run_batch_calls = 0
        self.batched_runs = 0
        # Instruments are resolved once, here, so the metrics-disabled
        # path makes zero calls into repro.obs.metrics afterwards.
        self._m_flushes = self._m_run_batch = self._m_batched = None
        self._m_batch_size = self._m_pending_gauge = None
        if metrics is not None:
            self._m_flushes = metrics.counter(
                "repro_serve_coalescer_flushes_total",
                "Coalescer flush ticks.",
            )
            self._m_run_batch = metrics.counter(
                "repro_serve_coalescer_run_batch_total",
                "Backend run_batch calls issued by the coalescer.",
            )
            self._m_batched = metrics.counter(
                "repro_serve_coalescer_batched_runs_total",
                "Individual runs executed through coalesced batches.",
            )
            self._m_batch_size = metrics.histogram(
                "repro_serve_coalescer_batch_size",
                "Requests per coalescer flush.",
                buckets=_BATCH_SIZE_BUCKETS,
            )
            self._m_pending_gauge = metrics.gauge(
                "repro_serve_coalescer_pending",
                "Requests waiting for the next coalescer flush.",
            )

    def stats(self) -> Dict[str, int]:
        return {
            "submitted": self.submitted,
            "flushes": self.flushes,
            "run_batch_calls": self.run_batch_calls,
            "batched_runs": self.batched_runs,
            "pending": len(self._pending),
        }

    # -- submission ----------------------------------------------------

    async def submit(self, job: "SweepJob") -> "SimulationResult":
        """Queue ``job`` for the next batch tick; await its result."""
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.append((job, future))
        self.submitted += 1
        if self._m_pending_gauge is not None:
            self._m_pending_gauge.set(len(self._pending))
        if len(self._pending) >= self.max_batch:
            self._cut_batch()
        elif self._timer is None:
            self._timer = loop.create_task(self._delayed_flush())
        return await future

    async def _delayed_flush(self) -> None:
        try:
            await asyncio.sleep(self.max_delay_s)
        except asyncio.CancelledError:
            return
        self._timer = None
        while self._pending:
            self._cut_batch()

    def _cut_batch(self) -> None:
        """Slice up to ``max_batch`` pending requests into one flush task."""
        batch = self._pending[: self.max_batch]
        del self._pending[: len(batch)]
        if not batch:
            return
        if self._m_pending_gauge is not None:
            self._m_pending_gauge.set(len(self._pending))
        if not self._pending and self._timer is not None:
            self._timer.cancel()
            self._timer = None
        task = asyncio.get_running_loop().create_task(self._run_flush(batch))
        self._inflight.append(task)
        task.add_done_callback(self._inflight.remove)

    # -- execution -----------------------------------------------------

    async def _run_flush(
        self, batch: "List[Tuple[SweepJob, asyncio.Future]]"
    ) -> None:
        self.flushes += 1
        groups: "Dict[str, List[Tuple[SweepJob, asyncio.Future]]]" = {}
        for job, future in batch:
            groups.setdefault(group_key(job), []).append((job, future))
        if self._m_flushes is not None:
            self._m_flushes.inc()
            self._m_batch_size.observe(float(len(batch)))
        tracer = self.tracer
        flush_span = None
        if tracer is not None:
            flush_span = tracer.start(
                "coalescer.flush",
                attrs={"requests": len(batch), "groups": len(groups)},
            )
        loop = asyncio.get_running_loop()
        for entries in groups.values():
            group_span = None
            if tracer is not None:
                group_span = tracer.start(
                    "coalescer.run_batch",
                    parent=flush_span,
                    attrs={"runs": len(entries)},
                )
            # stats are plain ints owned by the loop; count the call here
            # rather than in the worker-thread body.
            self.run_batch_calls += 1
            self.batched_runs += len(entries)
            if self._m_run_batch is not None:
                self._m_run_batch.inc()
                self._m_batched.inc(len(entries))
            try:
                results = await loop.run_in_executor(
                    self.executor, self._execute_group, entries
                )
            except Exception as exc:  # noqa: BLE001 -- fault -> awaiters
                if group_span is not None:
                    group_span.set_attr("error", f"{type(exc).__name__}: {exc}")
                    group_span.end()
                for _, future in entries:
                    if not future.done():
                        future.set_exception(
                            RuntimeError(
                                f"batched run failed: "
                                f"{type(exc).__name__}: {exc}"
                            )
                        )
            else:
                if group_span is not None:
                    group_span.end()
                for (_, future), result in zip(entries, results):
                    if not future.done():
                        future.set_result(result)
        if flush_span is not None:
            flush_span.end()

    # statcheck: thread-safe
    def _execute_group(
        self, entries: "List[Tuple[SweepJob, asyncio.Future]]"
    ) -> "List[SimulationResult]":
        """One ``run_batch`` tick for one homogeneous group (worker thread).

        Thread-safe by construction: reads only its arguments and
        immutable config; all coalescer state mutation stays on the loop.
        """
        first = entries[0][0]
        seeds = [job.seed for job, _ in entries]
        kwargs: Dict[str, Any] = {}
        # Forward per-request span contexts only when a submission actually
        # carries one, so stub run_batch_fn signatures (tests) and the
        # tracing-off path never see the extra keyword.
        span_contexts = [getattr(job, "span", None) for job, _ in entries]
        if any(span is not None for span in span_contexts):
            kwargs["spans"] = span_contexts
        return self.run_batch_fn(
            first.benchmark,
            scheme=first.scheme,
            seeds=seeds,
            machine=first.machine,
            max_instructions=first.max_instructions,
            record_history=first.record_history,
            history_stride=first.history_stride,
            pid_interval_ns=first.pid_interval_ns,
            adaptive_overrides=dict(first.adaptive_overrides)
            if first.adaptive_overrides
            else None,
            obs=first.obs,
            simcore=first.simcore,
            engine=self.engine_factory(),
            **kwargs,
        )

    # -- shutdown ------------------------------------------------------

    async def drain(self) -> None:
        """Flush everything pending and wait for in-flight batches."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        while self._pending:
            self._cut_batch()
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)

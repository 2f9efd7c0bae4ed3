"""Batch concurrent single-run requests into one engine call per flush.

``POST /v1/runs`` arrives one simulation at a time; the coalescer turns
bursts of them into lists of jobs for :meth:`repro.engine.SweepEngine.run`:

* submissions accumulate in a pending list;
* when ``max_batch`` are waiting, a batch is cut immediately; otherwise
  a timer flushes whatever arrived within ``max_delay_s`` (so a lone
  request pays at most the coalescing window in added latency);
* each flushed batch is one ``engine.run`` call over its jobs, in
  submission order, same-trace jobs back to back, whatever their
  configs -- so N concurrent requests cost ceil(N / max_batch) backend
  calls;
* each request is settled from its own :class:`JobOutcome`, so a failing
  run fails only its own request;
* results are content-identical to serial execution: the engine runs
  the submitted :class:`repro.engine.jobs.SweepJob` itself, through the
  same cache, as a direct ``run_experiment`` call would.

The engine runs on a thread-pool executor so the event loop keeps
serving while simulations grind.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.engine.scheduler import SweepEngine

if TYPE_CHECKING:
    import concurrent.futures

    from repro.engine.jobs import SweepJob
    from repro.mcd.processor import SimulationResult
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.spans import SpanRecorder

#: histogram bounds for batch sizes (a batch has >= 1 request and is
#: capped by ``max_batch``, typically single digits)
_BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


# statcheck: loop-confined
class RequestCoalescer:
    """Accumulate submissions; flush each batch as one ``engine.run`` call.

    Loop-confined: the pending list, timer, and stats counters are only
    touched from event-loop coroutines.  Off the loop runs only the
    engine, which touches nothing of the coalescer.
    """

    def __init__(
        self,
        max_batch: int = 8,
        max_delay_s: float = 0.005,
        engine_factory: Callable[[], SweepEngine] = SweepEngine,
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
        self.engine_factory = engine_factory
        self.executor = executor
        self.tracer = tracer
        self._pending: "List[Tuple[SweepJob, asyncio.Future]]" = []
        self._timer: Optional[asyncio.Task] = None
        self._inflight: "List[asyncio.Task]" = []
        # -- stats (exposed by /v1/stats and the load bench) -----------
        self.submitted = 0
        self.flushes = 0
        self.batched_runs = 0
        # Instruments are resolved once, here, so the metrics-disabled
        # path makes zero calls into repro.obs.metrics afterwards.
        self._m_flushes = self._m_batched = None
        self._m_batch_size = self._m_pending_gauge = None
        if metrics is not None:
            self._m_flushes = metrics.counter(
                "repro_serve_coalescer_flushes_total",
                "Coalescer flush ticks.",
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
            # kept for the load benches that read it: it counts engine
            # calls, and a flush is exactly one engine call
            "run_batch_calls": self.flushes,
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
        self.batched_runs += len(batch)
        if self._m_flushes is not None:
            self._m_flushes.inc()
            self._m_batched.inc(len(batch))
            self._m_batch_size.observe(float(len(batch)))
        flush_span = None
        if self.tracer is not None:
            flush_span = self.tracer.start(
                "coalescer.flush", attrs={"requests": len(batch)}
            )
        loop = asyncio.get_running_loop()
        try:
            # built here, on the loop, so the factory may touch loop state;
            # each job carries its request's span context to the engine
            engine = self.engine_factory()
            outcomes = await loop.run_in_executor(
                self.executor, engine.run, [job for job, _ in batch]
            )
        except Exception as exc:  # noqa: BLE001 -- fault -> awaiters
            error = f"{type(exc).__name__}: {exc}"
            if flush_span is not None:
                flush_span.set_attr("error", error)
            for _, future in batch:
                if not future.done():
                    future.set_exception(
                        RuntimeError(f"batched run failed: {error}")
                    )
        else:
            for (_, future), outcome in zip(batch, outcomes):
                if future.done():
                    continue
                if outcome.result is not None:
                    future.set_result(outcome.result)
                else:
                    future.set_exception(
                        RuntimeError(
                            f"{outcome.job.job_id} failed: {outcome.error}"
                        )
                    )
        if flush_span is not None:
            flush_span.end()

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

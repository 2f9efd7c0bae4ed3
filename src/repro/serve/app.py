"""The DVFS service: routes, handlers, lifecycle.

:class:`ServeApp` ties the serve-layer pieces together into one
asyncio application:

* ``POST /v1/runs`` -- submit one simulation; concurrent submissions are
  coalesced into one :meth:`repro.engine.SweepEngine.run` call per flush,
  and an untraced repeat of a run whose result the in-memory window holds
  is settled at submission;
* ``POST /v1/sweeps`` -- submit a benchmark x scheme x seed cross
  product through a :class:`repro.engine.SweepEngine` (pool workers,
  content-addressed cache, telemetry);
* ``GET /v1/runs/{id}`` / ``GET /v1/runs/{id}/events`` -- job status and
  the live SSE stream (engine telemetry, probe events, per-domain
  frequency steps, terminal result pointer);
* ``GET /v1/results/{sha}`` -- fetch any result by its content hash,
  from the in-memory window or the on-disk cache;
* ``POST /v1/controller/step`` -- the paper's adaptive FSM as a
  stateless scorable endpoint (:func:`repro.serve.controller.score_trajectory`);
* ``GET /v1/healthz`` / ``GET /v1/stats`` / ``GET /v1/benchmarks`` --
  liveness, job/coalescer/span state, and discovery;
* ``GET /metrics`` / ``GET /v1/spans/{id}`` -- the ops surface.

Every request is observable through one instrument each: the dispatch
wrapper counts and times it in the :class:`~repro.obs.metrics.MetricsRegistry`
(as do the coalescer and the engines, per flush and per job), and each
submission opens a root span in the :class:`~repro.obs.spans.SpanRecorder`.
"""

from __future__ import annotations

import asyncio
import collections
import concurrent.futures
import dataclasses
import functools
import time
import weakref
from typing import Any, AsyncIterator, Dict, List, Optional, Set, Tuple

from repro.engine.cache import ResultCache, job_cache_key
from repro.engine.jobs import SweepJob, run_job
from repro.engine.scheduler import EngineConfig, SweepEngine
from repro.harness.experiment import SCHEMES
from repro.harness.persistence import result_to_dict
from repro.mcd.domains import MachineConfig
from repro.mcd.processor import SimulationResult
from repro.obs.bridge import EventBridge
from repro.obs.facade import Observability, ObsConfig
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Span, SpanRecorder
from repro.serve.coalescer import RequestCoalescer
from repro.simcore import CORES, resolve_core
from repro.serve.controller import score_trajectory
from repro.serve.http import (
    AnyResponse,
    BadRequest,
    Request,
    Response,
    StreamResponse,
    handle_connection,
    server_address,
)
from repro.serve.jobstore import Job, JobState, JobStore
from repro.serve.router import Router
from repro.serve.sse import format_sse
from repro.workloads.suite import BENCHMARKS, get_benchmark

#: how many recent results stay addressable by hash without a cache dir;
#: an untraced repeat of one of them is settled at submission.
RESULT_WINDOW = 256

#: methods worth distinguishing in metrics; anything else (clients can
#: send arbitrary verbs) collapses to "other" to bound label cardinality.
_HTTP_METHODS = frozenset(
    {"GET", "POST", "PUT", "DELETE", "PATCH", "HEAD", "OPTIONS"}
)


@dataclasses.dataclass
class ServeConfig:
    """Service knobs (all exposed as ``repro-dvfs serve`` options)."""

    host: str = "127.0.0.1"
    port: int = 8035
    #: engine result-cache directory; ``None`` keeps results in memory only.
    cache_dir: Optional[str] = None
    #: worker processes for ``/v1/sweeps`` engines.
    workers: int = 1
    #: coalescer: batch size and max added latency for ``/v1/runs``.
    max_batch: int = 8
    max_delay_s: float = 0.005
    #: threads executing simulations off the event loop.
    executor_threads: int = 4
    #: default simulation core for submitted jobs (``None`` = env default).
    simcore: Optional[str] = None


class ServeApp:
    """One service instance: build, ``start()``, ``stop()``."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.store = JobStore()
        self._t0 = time.monotonic_ns()
        #: process-wide metrics registry, scraped by ``GET /metrics``.
        self.metrics = MetricsRegistry()
        #: span recorder; run/sweep submissions open root spans here and
        #: worker spans from pool processes are stitched back in.
        self.tracer = SpanRecorder()
        self._m_requests = self.metrics.counter_family(
            "repro_http_requests_total",
            "HTTP requests served.",
            ("method", "route", "status"),
        )
        self._m_latency = self.metrics.histogram_family(
            "repro_http_request_seconds",
            "Request wall time by endpoint.",
            ("method", "route"),
        )
        self._m_sse_dropped = self.metrics.counter(
            "repro_serve_sse_dropped_total",
            "SSE events dropped by slow consumers.",
        )
        self._m_jobs_gauge = self.metrics.gauge_family(
            "repro_serve_jobs",
            "Jobs in the registry by state (sampled at scrape).",
            ("state",),
        )
        self._m_results_gauge = self.metrics.gauge(
            "repro_serve_results_in_memory",
            "Results held in the in-memory window (sampled at scrape).",
        )
        self._m_uptime = self.metrics.gauge(
            "repro_serve_uptime_seconds",
            "Seconds since server construction (sampled at scrape).",
        )
        # the engines' own family: a run settled from the window is the
        # cache hit an engine would have counted
        self._m_window_hits = self.metrics.counter_family(
            "repro_engine_jobs_total",
            "Sweep jobs by terminal outcome", ("outcome",),
        ).labels(outcome="cache_hit")
        self.executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.config.executor_threads,
            thread_name_prefix="repro-serve",
        )
        self.cache = (
            ResultCache(self.config.cache_dir)
            if self.config.cache_dir
            else None
        )
        self._engines: "weakref.WeakSet[SweepEngine]" = weakref.WeakSet()
        self.coalescer = RequestCoalescer(
            max_batch=self.config.max_batch,
            max_delay_s=self.config.max_delay_s,
            engine_factory=self._make_engine,
            executor=self.executor,
            tracer=self.tracer,
            metrics=self.metrics,
        )
        self._results: (
            "collections.OrderedDict[str, SimulationResult]"
        ) = collections.OrderedDict()
        self._tasks: Set["asyncio.Task[None]"] = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self.router = Router()
        self._install_routes()

    # -- plumbing ------------------------------------------------------

    def _uptime_s(self) -> float:
        """Monotonic wall seconds since server construction."""
        return (time.monotonic_ns() - self._t0) / 1e9

    def _make_engine(self) -> SweepEngine:
        """A fresh engine (own telemetry) for one coalescer flush; the
        coalescer calls it on the loop, which owns ``_engines``."""
        engine = SweepEngine(
            EngineConfig(cache_dir=self.config.cache_dir),
            tracer=self.tracer,
            metrics=self.metrics,
        )
        self._engines.add(engine)
        return engine

    def _remember(self, sha: str, result: SimulationResult) -> None:
        self._results[sha] = result
        self._results.move_to_end(sha)
        while len(self._results) > RESULT_WINDOW:
            self._results.popitem(last=False)

    def _spawn(self, coro: "Any") -> None:
        task = asyncio.get_running_loop().create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def _install_routes(self) -> None:
        self.router.get("/v1/healthz", self._handle_health)
        self.router.get("/v1/stats", self._handle_stats)
        self.router.get("/v1/benchmarks", self._handle_benchmarks)
        self.router.post("/v1/runs", self._handle_submit_run)
        self.router.post("/v1/sweeps", self._handle_submit_sweep)
        self.router.get("/v1/runs/{id}", self._handle_job_status)
        self.router.get("/v1/runs/{id}/events", self._handle_job_events)
        self.router.get("/v1/results/{sha}", self._handle_result)
        self.router.post("/v1/controller/step", self._handle_controller_step)
        self.router.get("/metrics", self._handle_metrics)
        self.router.get("/v1/spans/{id}", self._handle_spans)

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and start serving; returns the bound (host, port)."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(
            functools.partial(handle_connection, dispatch=self.dispatch),
            host=self.config.host,
            port=self.config.port,
        )
        return server_address(self._server)

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain, flush, release."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # flush everything the coalescer holds, then drain job tasks;
        # engines running sweeps are asked to cancel their queued jobs.
        for engine in list(self._engines):
            engine.request_shutdown()
        await self.coalescer.drain()
        if self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
        self.executor.shutdown(wait=True)

    async def serve_forever(self) -> None:
        if self._server is None:
            raise RuntimeError("call start() first")
        await self._server.serve_forever()

    # -- dispatch ------------------------------------------------------

    async def dispatch(self, request: Request) -> AnyResponse:
        """Route one request, counting and timing it in the registry."""
        started = time.monotonic()
        match = self.router.resolve(request.method, request.path)
        if match.handler is None:
            if match.allowed:
                response: AnyResponse = Response.error(
                    405, f"method not allowed; try {', '.join(match.allowed)}"
                )
                response.headers["Allow"] = ", ".join(match.allowed)
            else:
                response = Response.error(404, f"no such path: {request.path}")
        else:
            request.params = match.params
            try:
                response = await match.handler(request)
            except BadRequest as exc:
                response = Response.error(exc.status, str(exc))
        wall_s = time.monotonic() - started
        # route label from the matched pattern, not the raw path, and the
        # method clamped to the known verbs -- bounded cardinality no
        # matter what clients request.
        route = match.pattern or "unmatched"
        method = request.method if request.method in _HTTP_METHODS else "other"
        self._m_requests.labels(
            method=method, route=route, status=str(response.status)
        ).inc()
        self._m_latency.labels(method=method, route=route).observe(wall_s)
        return response

    # -- simple endpoints ----------------------------------------------

    async def _handle_health(self, request: Request) -> Response:
        return Response.json({"status": "ok", "jobs": self.store.counts()})

    async def _handle_benchmarks(self, request: Request) -> Response:
        return Response.json(
            {"benchmarks": sorted(BENCHMARKS), "schemes": list(SCHEMES)}
        )

    async def _handle_stats(self, request: Request) -> Response:
        payload: Dict[str, Any] = {
            "uptime_s": self._uptime_s(),
            "jobs": self.store.counts(),
            "jobs_evicted": self.store.evicted,
            "coalescer": self.coalescer.stats(),
            "results_in_memory": len(self._results),
            "spans": self.tracer.summary(),
        }
        return Response.json(payload)

    async def _handle_controller_step(self, request: Request) -> Response:
        return Response.json(score_trajectory(request.json()))

    # -- ops surface ---------------------------------------------------

    async def _handle_metrics(self, request: Request) -> Response:
        """Prometheus text exposition of the registry."""
        counts = self.store.counts()
        for state in (JobState.QUEUED, JobState.RUNNING, JobState.DONE,
                      JobState.FAILED):
            self._m_jobs_gauge.labels(state=state).set(counts.get(state, 0))
        self._m_results_gauge.set(len(self._results))
        self._m_uptime.set(self._uptime_s())
        body = self.metrics.render_prometheus()
        return Response(
            200,
            body.encode("utf-8"),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    async def _handle_spans(self, request: Request) -> Response:
        """The span tree of one job's trace, root to pool workers."""
        job = self.store.get(request.params.get("id", ""))
        if job is None:
            raise BadRequest(
                f"no such job: {request.params.get('id', '')!r}", status=404
            )
        if job.trace_id is None:
            raise BadRequest(
                f"job {job.id!r} has no trace (tracing disabled?)", status=404
            )
        return Response.json(
            {
                "id": job.id,
                "trace_id": job.trace_id,
                "spans": self.tracer.spans(job.trace_id),
                "tree": self.tracer.tree(job.trace_id),
            }
        )

    # -- run submission ------------------------------------------------

    async def _handle_submit_run(self, request: Request) -> Response:
        spec = request.json()
        if not isinstance(spec, dict):
            raise BadRequest("request body must be a JSON object")
        job = _parse_sweep_job(spec, default_simcore=self.config.simcore)
        traced = bool(spec.get("trace"))
        if traced and job.obs is None:
            # key a traced run on the observability it runs with: its
            # result carries a probe summary an untraced run never has
            job = dataclasses.replace(job, obs=ObsConfig())
        sha = job_cache_key(job)
        record = self.store.create("run", _public_spec(job))
        record.result_shas.append(sha)
        root = self.tracer.start(
            f"run:{record.id}",
            attrs={
                "kind": "run",
                "benchmark": job.benchmark.name,
                "scheme": job.scheme,
                "traced": traced,
            },
        )
        record.trace_id = root.trace_id
        # the job carries the root's context across the coalescer and (for
        # pooled engines) the process boundary, so worker spans stitch
        # back to this submission.
        job = dataclasses.replace(job, span=root.context)
        # an untraced repeat of a run whose result the window holds is
        # settled here, before the reply: the window holds what the engine
        # would read back from the cache under the same key
        held = None if traced else self._results.get(sha)
        if held is not None:
            self.tracer.start(
                f"job:{job.job_id}",
                parent=root,
                attrs={"cache": "hit", "seed": job.seed},
            ).end()
            self._m_window_hits.inc()
            self._finish_run(record, job, held)
            root.set_attr("state", record.state)
            root.end()
        elif traced:
            self._spawn(self._execute_traced_run(record, job, root))
        else:
            self._spawn(self._execute_run(record, job, root))
        return Response.json(
            {
                "id": record.id,
                "state": record.state,
                "result_sha": sha,
                "coalesced": not traced and held is None,
                # the *resolved* core (explicit arg > server default > env >
                # default), so clients can attribute the cached artifact
                "simcore": resolve_core(job.simcore),
                "trace_id": record.trace_id,
                "events": f"/v1/runs/{record.id}/events",
                "result": f"/v1/results/{sha}",
            },
            status=202,
        )

    async def _execute_run(
        self, record: Job, job: SweepJob, root: Span
    ) -> None:
        """Coalesced path: the run rides its flush's shared engine call."""
        self.store.set_state(record, JobState.RUNNING)
        try:
            result = await self.coalescer.submit(job)
        except Exception as exc:  # noqa: BLE001 -- job fault -> job state
            self.store.set_state(record, JobState.FAILED, error=str(exc))
            root.set_attr("state", JobState.FAILED)
            root.end()
            return
        self._finish_run(record, job, result)
        root.set_attr("state", record.state)
        root.end()

    async def _execute_traced_run(
        self, record: Job, job: SweepJob, root: Span
    ) -> None:
        """Uncoalesced path: live probe events stream into the job's SSE.

        A traced run trades batching for observability -- its ProbeBus is
        bridged onto the event loop so subscribers watch ``sample`` /
        ``fsm_transition`` / ``freq_step`` events as the simulation emits
        them, rather than a post-hoc replay.
        """
        self.store.set_state(record, JobState.RUNNING)
        loop = asyncio.get_running_loop()
        bridge = EventBridge(
            loop, lambda stream, payload: self.store.publish(
                record, stream, payload
            )
        )
        observability = Observability(job.obs)
        observability.bus.add_sink(bridge.probe_sink())
        child = self.tracer.start("run_experiment", parent=root,
                                  attrs={"traced": True})
        try:
            result = await loop.run_in_executor(
                self.executor, run_job, job, observability
            )
        except Exception as exc:  # noqa: BLE001 -- job fault -> job state
            child.set_attr("error", str(exc))
            child.end()
            self.store.set_state(record, JobState.FAILED, error=str(exc))
            root.set_attr("state", JobState.FAILED)
            root.end()
            return
        child.set_attr("instructions", result.instructions)
        child.end()
        if self.cache is not None:
            # gzip + fsync off the loop; the store is best-effort anyway
            await loop.run_in_executor(
                self.executor, self.cache.put, job, result
            )
        self._finish_run(record, job, result, publish_steps=False)
        root.set_attr("state", record.state)
        root.end()

    def _finish_run(
        self,
        record: Job,
        job: SweepJob,
        result: SimulationResult,
        publish_steps: bool = True,
    ) -> None:
        sha = record.result_shas[0]
        self._remember(sha, result)
        if publish_steps:
            for event in result.step_events:
                self.store.publish(
                    record,
                    "freq_step",
                    {
                        "t_ns": event.time_ns,
                        "domain": event.domain.value,
                        "steps": event.steps,
                        "target_ghz": event.target_ghz,
                        "freq_ghz": event.freq_ghz,
                        "applied": event.applied,
                    },
                )
        self.store.publish(record, "result", _result_summary(sha, result))
        self.store.set_state(record, JobState.DONE)

    # -- sweep submission ----------------------------------------------

    async def _handle_submit_sweep(self, request: Request) -> Response:
        spec = request.json()
        if not isinstance(spec, dict):
            raise BadRequest("request body must be a JSON object")
        jobs = _parse_sweep_jobs(spec, default_simcore=self.config.simcore)
        shas = [job_cache_key(job) for job in jobs]
        record = self.store.create(
            "sweep",
            {
                "jobs": len(jobs),
                "benchmarks": sorted({j.benchmark.name for j in jobs}),
                "schemes": sorted({j.scheme for j in jobs}),
            },
        )
        record.result_shas.extend(shas)
        root = self.tracer.start(
            f"sweep:{record.id}", attrs={"kind": "sweep", "jobs": len(jobs)}
        )
        record.trace_id = root.trace_id
        self._spawn(self._execute_sweep(record, jobs, root))
        return Response.json(
            {
                "id": record.id,
                "state": record.state,
                "jobs": len(jobs),
                "result_shas": shas,
                "simcore": sorted({resolve_core(j.simcore) for j in jobs}),
                "trace_id": record.trace_id,
                "events": f"/v1/runs/{record.id}/events",
            },
            status=202,
        )

    async def _execute_sweep(
        self, record: Job, jobs: List[SweepJob], root: Span
    ) -> None:
        self.store.set_state(record, JobState.RUNNING)
        loop = asyncio.get_running_loop()
        bridge = EventBridge(
            loop, lambda stream, payload: self.store.publish(
                record, stream, payload
            )
        )
        engine = SweepEngine(
            EngineConfig(
                workers=self.config.workers, cache_dir=self.config.cache_dir
            ),
            tracer=self.tracer,
            trace_parent=root.context,
            metrics=self.metrics,
        )
        engine.telemetry.add_listener(bridge.telemetry_listener())
        self._engines.add(engine)
        try:
            outcomes = await loop.run_in_executor(
                self.executor, engine.run, jobs
            )
        except Exception as exc:  # noqa: BLE001 -- engine fault -> job state
            self.store.set_state(record, JobState.FAILED, error=str(exc))
            root.set_attr("state", JobState.FAILED)
            root.end()
            return
        failures = []
        for sha, outcome in zip(record.result_shas, outcomes):
            if outcome.result is not None:
                self._remember(sha, outcome.result)
                self.store.publish(
                    record, "result", _result_summary(sha, outcome.result)
                )
            else:
                failures.append(f"{outcome.job.job_id}: {outcome.error}")
        if failures:
            self.store.set_state(
                record, JobState.FAILED, error="; ".join(failures)
            )
        else:
            self.store.set_state(record, JobState.DONE)
        root.set_attr("state", record.state)
        root.set_attr("failures", len(failures))
        root.end()

    # -- job status + events -------------------------------------------

    def _get_job(self, request: Request) -> Job:
        job = self.store.get(request.params.get("id", ""))
        if job is None:
            raise BadRequest(
                f"no such job: {request.params.get('id', '')!r}", status=404
            )
        return job

    async def _handle_job_status(self, request: Request) -> Response:
        return Response.json(self._get_job(request).summary())

    async def _handle_job_events(self, request: Request) -> StreamResponse:
        job = self._get_job(request)
        return StreamResponse(self._event_stream(job))

    async def _event_stream(self, job: Job) -> AsyncIterator[bytes]:
        """History replay, then live events, until the job finishes."""
        queue = self.store.subscribe(job)
        try:
            while True:
                item = await queue.get()
                if item is None:
                    break
                seq, event, payload = item
                yield format_sse(payload, event=event, event_id=seq)
            if queue.dropped:
                self._m_sse_dropped.inc(queue.dropped)
                yield format_sse(
                    {"id": job.id, "dropped": queue.dropped}, event="drops"
                )
            yield format_sse(
                {"id": job.id, "state": job.state}, event="end"
            )
        finally:
            self.store.unsubscribe(job, queue)

    # -- results -------------------------------------------------------

    async def _handle_result(self, request: Request) -> Response:
        sha = request.params.get("sha", "")
        result = self._results.get(sha)
        if result is None and self.cache is not None:
            # the cache read decompresses a result file; keep it off the loop
            loop = asyncio.get_running_loop()
            result = await loop.run_in_executor(
                self.executor, self.cache.get_by_key, sha
            )
        if result is None:
            raise BadRequest(f"no result for hash {sha!r}", status=404)
        payload = result_to_dict(result, include_history=False)
        payload["sha"] = sha
        return Response.json(payload)


# -- spec parsing ------------------------------------------------------


def _result_summary(sha: str, result: SimulationResult) -> Dict[str, Any]:
    return {
        "sha": sha,
        "benchmark": result.benchmark,
        "scheme": result.scheme,
        "time_ns": result.time_ns,
        "instructions": result.instructions,
        "energy_total": result.energy.total,
        "mean_frequency_ghz": {
            d.value: f for d, f in result.mean_frequency_ghz.items()
        },
        "steps": len(result.step_events),
    }


def _public_spec(job: SweepJob) -> Dict[str, Any]:
    return {
        "benchmark": job.benchmark.name,
        "scheme": job.scheme,
        "seed": job.seed,
        "max_instructions": job.max_instructions,
        "simcore": job.simcore,
    }


def _expect(spec: Dict[str, Any], field: str, types: Any,
            default: Any = None, positive: bool = False) -> Any:
    value = spec.get(field, default)
    if value is None:
        return default
    if isinstance(value, bool) and types is not bool:
        raise BadRequest(f"{field!r} must be {types}, got bool")
    if not isinstance(value, types):
        raise BadRequest(
            f"{field!r} must be {types}, got {type(value).__name__}"
        )
    # ``not > 0`` also rejects NaN, which json.loads accepts
    if positive and not value > 0:
        raise BadRequest(f"{field!r} must be positive, got {value!r}")
    return value


def _parse_sweep_job(
    spec: Dict[str, Any], default_simcore: Optional[str] = None
) -> SweepJob:
    """Build one :class:`SweepJob` from a run-submission JSON body."""
    benchmark = spec.get("benchmark")
    if not isinstance(benchmark, str):
        raise BadRequest("'benchmark' must be a benchmark name string")
    try:
        bench_spec = get_benchmark(benchmark)
    except KeyError:
        raise BadRequest(
            f"unknown benchmark {benchmark!r}; see GET /v1/benchmarks"
        )
    scheme = spec.get("scheme", "adaptive")
    if scheme not in SCHEMES:
        raise BadRequest(
            f"unknown scheme {scheme!r}; known: {', '.join(SCHEMES)}"
        )
    machine_overrides = spec.get("machine") or {}
    if not isinstance(machine_overrides, dict):
        raise BadRequest("'machine' must be an object of MachineConfig fields")
    try:
        machine = MachineConfig(**machine_overrides)
    except (TypeError, ValueError) as exc:
        raise BadRequest(f"bad machine config: {exc}")
    overrides = spec.get("adaptive_overrides")
    if overrides is not None and not isinstance(overrides, dict):
        raise BadRequest("'adaptive_overrides' must be an object")
    obs_spec = spec.get("obs")
    obs: Optional[ObsConfig]
    if obs_spec in (None, False):
        obs = None
    elif obs_spec is True:
        obs = ObsConfig()
    elif isinstance(obs_spec, dict):
        try:
            obs = ObsConfig(**obs_spec)
        except (TypeError, ValueError) as exc:
            raise BadRequest(f"bad obs config: {exc}")
    else:
        raise BadRequest("'obs' must be true/false or an ObsConfig object")
    simcore = spec.get("simcore", default_simcore)
    if simcore is not None and simcore not in CORES:
        raise BadRequest(
            f"unknown simcore {simcore!r}; known: {', '.join(CORES)}"
        )
    return SweepJob(
        benchmark=bench_spec,
        scheme=scheme,
        machine=machine,
        max_instructions=_expect(spec, "max_instructions", int, positive=True),
        seed=_expect(spec, "seed", int),
        record_history=bool(spec.get("record_history", False)),
        history_stride=_expect(spec, "history_stride", int, 4),
        pid_interval_ns=_expect(
            spec, "pid_interval_ns", (int, float), positive=True
        ),
        adaptive_overrides=dict(overrides) if overrides else None,
        obs=obs,
        simcore=simcore,
    )


#: keep one sweep submission bounded; bigger studies belong in the CLI.
MAX_SWEEP_JOBS = 512


def _parse_sweep_jobs(
    spec: Dict[str, Any], default_simcore: Optional[str] = None
) -> List[SweepJob]:
    """Expand a sweep-submission body into its job cross product."""
    benchmarks = spec.get("benchmarks")
    if not isinstance(benchmarks, list) or not benchmarks:
        raise BadRequest("'benchmarks' must be a non-empty list of names")
    schemes = spec.get("schemes", ["adaptive"])
    if not isinstance(schemes, list) or not schemes:
        raise BadRequest("'schemes' must be a non-empty list")
    seeds = spec.get("seeds", [None])
    if not isinstance(seeds, list) or not seeds:
        raise BadRequest("'seeds' must be a non-empty list")
    total = len(benchmarks) * len(schemes) * len(seeds)
    if total > MAX_SWEEP_JOBS:
        raise BadRequest(
            f"sweep too large: {total} jobs (max {MAX_SWEEP_JOBS})"
        )
    shared = {
        key: spec[key]
        for key in (
            "machine",
            "max_instructions",
            "record_history",
            "history_stride",
            "pid_interval_ns",
            "adaptive_overrides",
            "obs",
            "simcore",
        )
        if key in spec
    }
    jobs: List[SweepJob] = []
    for benchmark in benchmarks:
        for scheme in schemes:
            for seed in seeds:
                job_spec = dict(shared)
                job_spec["benchmark"] = benchmark
                job_spec["scheme"] = scheme
                if seed is not None:
                    job_spec["seed"] = seed
                jobs.append(
                    _parse_sweep_job(job_spec, default_simcore=default_simcore)
                )
    return jobs

"""``serve_mixed``: open-loop traffic against ``repro-dvfs serve``.

The server runs as a subprocess with default settings, ``--port 0`` and
a fresh ``--cache-dir``.  A single-threaded asyncio generator holding at
most ``nproc`` keep-alive connections replays a seeded schedule:

* ``run``: one new run;
* ``burst``: several seeds of one config, pipelined so they land in one
  coalescer window;
* ``mixed``: distinct configs pipelined into the same window;
* ``repeat``: an earlier run submitted again, which the result cache serves;
* ``fetch``: an earlier result fetched by its hash;
* ``step``: a controller-step request with a short or a long trajectory;
* ``scrape``: ``GET /metrics`` once a second.

Arrival times are a Poisson process conditioned on its count: each
kind's count is fixed by its rate and the run length, its times are
uniform.  Each operation is timed from when it was due.  Completion of
a submitted run is detected by polling its status on one connection
every :data:`POLL_S`; the result is then fetched by its hash.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import math
import os
import random
import re
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from pb import checks, tracing
from pb.common import (ROOT, cache_entry_bytes, metric, nproc, process_peak_rss_mb, remove,
                       scratch_dir)
from pb.stats import FAILED, TailTooThin, percentile

#: few-phase benchmarks of similar run cost plus one many-phase codec,
#: whose long spec makes the server's per-submission hash expensive
BENCHMARKS = ("gzip", "swim", "epic-decode", "adpcm-encode")
SCHEMES = ("adaptive", "pid", "attack-decay", "full-speed")
RUN_INSTRUCTIONS = 200
BURST_SEEDS = 3
#: arrivals per second of each kind.  The load is kept low (about a
#: fifth of one core on the server) because the server simulates in
#: threads of its one interpreter: at higher rates each simulation
#: stalls the event loop and latencies stop repeating from run to run.
RATES = {
    "run": 1.2,
    "burst": 0.1,
    "mixed": 0.1,
    "repeat": 6.0,
    "fetch": 0.5,
    "step": 34.0,
}
#: percentiles reported per request kind.  The gated ``latency_ms`` is
#: the median of :data:`HEADLINE_KIND`; the rest are printed in the
#: row and are per-layer metrics of the traced run.  Each tail is a
#: level at which a run of 20 seconds or more keeps ten samples beyond it.
LEVELS = {"run": (50, 70), "hit": (50, 90), "step": (50, 98)}
#: repeats served from the cache: a whole run request (submit,
#: coalescer, cache read, status polls, fetch).  A new run also waits
#: for runs simulating in other server threads, so its latency spreads
#: from one to six job times and its median moves further between runs.
HEADLINE_KIND = "hit"
HEADLINE = f"{HEADLINE_KIND}_latency_p50_ms"
SCRAPE_EVERY_S = 1.0
LONG_STEP_SHARE = 0.1
SHORT_SAMPLES = 64
LONG_SAMPLES = 1024
#: a repeat or fetch targets a run due at least this long before it
TARGET_AGE_S = 3.0
POLL_S = 0.01
REQUEST_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 60.0
#: the run is invalid when the generator itself ran this late (at a
#: percentile that a schedule of 20 seconds or more supports)
LATENESS_Q = 98
MAX_LATENESS_MS = 50.0


# -- schedule ----------------------------------------------------------


@dataclasses.dataclass
class Op:
    due: float
    kind: str
    #: run specs (run/burst/mixed/repeat), a step payload, or a fetch target
    specs: List[Dict[str, Any]] = dataclasses.field(default_factory=list)
    step: Optional[Dict[str, Any]] = None


def spec_key(spec: Dict[str, Any]) -> str:
    return json.dumps(spec, sort_keys=True)


def _spec(bench: str, scheme: str, seed: int) -> Dict[str, Any]:
    return {"benchmark": bench, "scheme": scheme, "seed": seed,
            "max_instructions": RUN_INSTRUCTIONS}


def _trajectory(rng: random.Random, samples: int) -> List[int]:
    q, out = rng.randrange(4, 12), []
    for _ in range(samples):
        q = min(24, max(0, q + rng.choice((-2, -1, 0, 1, 2))))
        out.append(q)
    return out


def step_payloads(seed: int) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """The distinct short and long controller-step bodies of a run."""
    rng = random.Random(f"steps:{seed}")
    domains = ("int", "fp", "ls")
    short = [{"occupancy": _trajectory(rng, SHORT_SAMPLES), "domain": domains[i % 3]}
             for i in range(12)]
    long = [{"occupancy": _trajectory(rng, LONG_SAMPLES), "domain": domains[i % 3]}
            for i in range(6)]
    return short, long


def warmup_specs(seed: int) -> Dict[str, List[Dict[str, Any]]]:
    """One request of each run kind, on seeds the schedule never uses."""
    base = 1_000_000_000 + (seed % 1000) * 1000
    return {
        "run": [_spec("gzip", "adaptive", base)],
        "burst": [_spec("swim", "pid", base + 1 + i) for i in range(BURST_SEEDS)],
        "mixed": [_spec("epic-decode", "attack-decay", base + 10),
                  _spec("adpcm-encode", "full-speed", base + 11)],
    }


def make_schedule(seed: int, seconds: float, leg: str = "measured") -> List[Op]:
    """The arrivals of one run, fully determined by ``seed`` and ``leg``.

    The seed picks arrival times, simulation seeds, trajectories and
    order, but not the mix of costs: each kind's count, the benchmarks
    its runs, repeats and fetches are spread over, and the number of
    long steps are the same for every seed.
    """
    rng = random.Random(f"serve:{seed}:{leg}")
    # benchmarks interleaved, so any prefix of configs is balanced
    configs = [(b, s) for s in SCHEMES for b in BENCHMARKS]
    used_seeds: set = set()

    def fresh_seed() -> int:
        while True:
            value = rng.randrange(1, 1 << 30)
            if value not in used_seeds:
                used_seeds.add(value)
                return value

    def times(kind: str) -> List[float]:
        count = max(1, round(RATES[kind] * seconds))
        return [rng.uniform(0.0, seconds) for _ in range(count)]

    def mix(count: int) -> List[Tuple[str, str]]:
        """``count`` configs, each config equally often, in seeded order."""
        picks = [configs[i % len(configs)] for i in range(count)]
        rng.shuffle(picks)
        return picks

    ops: List[Op] = []
    run_times = times("run")
    for due, (bench, scheme) in zip(run_times, mix(len(run_times))):
        ops.append(Op(due, "run", [_spec(bench, scheme, fresh_seed())]))
    burst_times = times("burst")
    for due, (bench, scheme) in zip(burst_times, mix(len(burst_times))):
        ops.append(Op(due, "burst",
                      [_spec(bench, scheme, fresh_seed()) for _ in range(BURST_SEEDS)]))
    mixed_times = times("mixed")
    firsts = mix(len(mixed_times))
    for i, (due, first) in enumerate(zip(mixed_times, firsts)):
        # a second config, of another benchmark, lands in the same window
        shift = 1 + i % (len(BENCHMARKS) - 1)
        other = BENCHMARKS[(BENCHMARKS.index(first[0]) + shift) % len(BENCHMARKS)]
        ops.append(Op(due, "mixed",
                      [_spec(b, s, fresh_seed()) for b, s in (first, (other, first[1]))]))
    new_runs = sorted(
        ((op.due, spec) for op in ops for spec in op.specs), key=lambda item: item[0]
    )
    warm = [spec for specs in warmup_specs(seed).values() for spec in specs]

    def earlier(due: float, bench: str) -> Dict[str, Any]:
        """A run of ``bench`` due at least TARGET_AGE_S before ``due``
        (the warm-up ran one of each benchmark)."""
        pool = [spec for spec in warm if spec["benchmark"] == bench] + [
            spec for at, spec in new_runs
            if at <= due - TARGET_AGE_S and spec["benchmark"] == bench]
        return rng.choice(pool)

    for kind in ("repeat", "fetch"):
        dues = times(kind)
        benches = [BENCHMARKS[i % len(BENCHMARKS)] for i in range(len(dues))]
        rng.shuffle(benches)
        for due, bench in zip(dues, benches):
            ops.append(Op(due, kind, [earlier(due, bench)]))
    short, long = step_payloads(seed)
    step_times = times("step")
    longs = round(LONG_STEP_SHARE * len(step_times))
    is_long = [True] * longs + [False] * (len(step_times) - longs)
    rng.shuffle(is_long)
    for due, pick_long in zip(step_times, is_long):
        ops.append(Op(due, "step", step=rng.choice(long if pick_long else short)))
    scrape = SCRAPE_EVERY_S / 2
    while scrape < seconds:
        ops.append(Op(scrape, "scrape"))
        scrape += SCRAPE_EVERY_S
    ops.sort(key=lambda op: op.due)
    return ops


# -- HTTP client -------------------------------------------------------


class Connection:
    """One keep-alive HTTP/1.1 connection that can pipeline requests."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def _open(self) -> None:
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(self.host, self.port)

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
        self._reader = self._writer = None

    def _head(self, method: str, path: str, body: bytes) -> bytes:
        lines = [f"{method} {path} HTTP/1.1", f"Host: {self.host}",
                 f"Content-Length: {len(body)}"]
        if body:
            lines.append("Content-Type: application/json")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body

    async def _read_response(self) -> Tuple[int, bytes]:
        assert self._reader is not None
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length, close = 0, False
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value.strip())
            elif name == "connection" and value.strip().lower() == "close":
                close = True
        body = await self._reader.readexactly(length)
        if close:
            self.close()
        return status, body

    async def pipeline(self, requests: List[Tuple[str, str, Optional[Any]]]) -> List[Tuple[int, bytes, float]]:
        """Send ``requests`` back to back; returns (status, body, done_time)."""
        await self._open()
        assert self._writer is not None
        loop = asyncio.get_running_loop()
        for method, path, payload in requests:
            body = json.dumps(payload).encode("utf-8") if payload is not None else b""
            self._writer.write(self._head(method, path, body))
        await self._writer.drain()
        out = []
        for _ in requests:
            status, body = await self._read_response()
            out.append((status, body, loop.time()))
        return out

    async def request(self, method: str, path: str, payload: Any = None) -> Tuple[int, bytes]:
        try:
            (status, body, _), = await asyncio.wait_for(
                self.pipeline([(method, path, payload)]), REQUEST_TIMEOUT_S)
        except BaseException:
            self.close()
            raise
        return status, body


# -- server process ----------------------------------------------------


@dataclasses.dataclass
class Server:
    proc: subprocess.Popen
    host: str
    port: int


def start_server(scratch: str) -> Server:
    cache_dir = os.path.join(scratch, "cache")
    log_path = os.path.join(scratch, "server.log")
    log = open(log_path, "w")
    try:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--cache-dir", cache_dir],
            cwd=ROOT, stdin=subprocess.DEVNULL, stdout=log, stderr=log,
        )
    finally:
        log.close()
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:
        with open(log_path) as handle:
            found = re.search(r"listening on http://([\d.]+):(\d+)", handle.read())
        if found:
            return Server(proc, found.group(1), int(found.group(2)))
        if proc.poll() is not None:
            break
        time.sleep(0.02)
    stop_server(proc)
    with open(log_path) as handle:
        raise RuntimeError(f"server did not start:\n{handle.read()[-2000:]}")


def stop_server(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


# -- one leg of traffic ---------------------------------------------------


@dataclasses.dataclass
class Job:
    kind: str  # "run" or "hit"
    due: float
    spec: Dict[str, Any]
    id: str = ""
    sha: str = ""


class Leg:
    """Drives one schedule and keeps everything it observed."""

    def __init__(self, conns: List[Connection], tally: checks.Tally,
                 shas: Dict[str, str], recorder: Any = None) -> None:
        self.pool: "asyncio.Queue[Connection]" = asyncio.Queue()
        for conn in conns:
            self.pool.put_nowait(conn)
        self.tally = tally
        #: result hash announced for every run spec submitted so far
        self.shas = shas
        self.recorder = recorder
        #: time.time_ns() at loop time 0, so client spans share the
        #: server's span clock in the Chrome trace (set by drive())
        self._ns_offset = 0
        self.latency: Dict[str, List[float]] = {"run": [], "hit": [], "step": []}
        self.client_ms: Dict[str, List[float]] = {
            "submit": [], "fetch": [], "status": [], "step": [], "scrape": [], "spans": []}
        self.lateness_ms: List[float] = []
        self.requests = 0
        self.scrape_bytes = 0
        self.outstanding: Dict[str, Job] = {}
        #: raw reply bodies, parsed after the timed window
        self.served: List[Tuple[Job, bytes]] = []
        self.steps: List[Tuple[Dict[str, Any], bytes]] = []
        self.spans: List[Dict[str, Any]] = []
        self._tasks: List["asyncio.Task[None]"] = []
        self._done_submitting = False

    # -- transport helpers ---------------------------------------------

    async def _call(self, kind: str, method: str, path: str, payload: Any = None) -> Tuple[int, bytes]:
        conn = await self.pool.get()
        loop = asyncio.get_running_loop()
        sent = loop.time()
        try:
            status, body = await conn.request(method, path, payload)
        finally:
            self.pool.put_nowait(conn)
        self.requests += 1
        self._record(kind, sent, loop.time(), status)
        return status, body

    def _record(self, kind: str, sent: float, done: float, status: int) -> None:
        self.client_ms[kind].append((done - sent) * 1e3)
        if self.recorder is not None:
            tracing.record(self.recorder, f"client.{kind}", int(sent * 1e9) + self._ns_offset,
                           int(done * 1e9) + self._ns_offset, status=status)

    # -- operations ----------------------------------------------------

    async def _submit(self, op: Op, due: float) -> None:
        kind = "hit" if op.kind == "repeat" else "run"
        conn = await self.pool.get()
        loop = asyncio.get_running_loop()
        sent = loop.time()
        try:
            replies = await asyncio.wait_for(
                conn.pipeline([("POST", "/v1/runs", spec) for spec in op.specs]),
                REQUEST_TIMEOUT_S)
        except (OSError, ConnectionError, asyncio.TimeoutError, ValueError, IndexError) as exc:
            conn.close()
            for _ in op.specs:
                self.tally.fail(f"submit: {type(exc).__name__}: {exc}")
                self.latency[kind].append(FAILED)
            return
        finally:
            self.pool.put_nowait(conn)
        for spec, (status, body, done) in zip(op.specs, replies):
            self.requests += 1
            self._record("submit", sent, done, status)
            if status != 202:
                self.tally.refuse(f"submit: HTTP {status}: {body[:200]!r}")
                self.latency[kind].append(FAILED)
                continue
            reply = json.loads(body)
            job = Job(kind, due, spec, reply["id"], reply["result_sha"])
            self.shas[spec_key(spec)] = job.sha
            self.outstanding[job.id] = job

    async def _fetch_result(self, job: Job) -> None:
        try:
            status, body = await self._call("fetch", "GET", f"/v1/results/{job.sha}")
        except (OSError, ConnectionError, asyncio.TimeoutError) as exc:
            self._job_failed(job, f"fetch: {type(exc).__name__}: {exc}")
            return
        if status != 200:
            self.tally.refuse(f"fetch {job.sha[:12]}: HTTP {status}")
            self.latency[job.kind].append(FAILED)
            return
        self.latency[job.kind].append((asyncio.get_running_loop().time() - job.due) * 1e3)
        self.tally.ok()
        self.served.append((job, body))
        if self.recorder is not None:
            status, body = await self._call("spans", "GET", f"/v1/spans/{job.id}")
            if status == 200:
                self.spans.append(json.loads(body))

    def _job_failed(self, job: Job, why: str) -> None:
        self.tally.fail(why)
        self.latency[job.kind].append(FAILED)

    async def _fetch_by_hash(self, op: Op, due: float) -> None:
        sha = self.shas.get(spec_key(op.specs[0]))
        if sha is None:
            self.tally.fail(f"fetch: target {op.specs[0]} was never submitted")
            return
        try:
            status, body = await self._call("fetch", "GET", f"/v1/results/{sha}")
        except (OSError, ConnectionError, asyncio.TimeoutError) as exc:
            self.tally.fail(f"fetch: {type(exc).__name__}: {exc}")
            return
        if status != 200:
            self.tally.refuse(f"fetch by hash: HTTP {status}")
            return
        self.tally.ok()
        self.served.append((Job("fetch", due, op.specs[0], "", sha), body))

    async def _step(self, op: Op, due: float) -> None:
        try:
            status, body = await self._call("step", "POST", "/v1/controller/step", op.step)
        except (OSError, ConnectionError, asyncio.TimeoutError) as exc:
            self.tally.fail(f"step: {type(exc).__name__}: {exc}")
            self.latency["step"].append(FAILED)
            return
        if status != 200:
            self.tally.refuse(f"step: HTTP {status}")
            self.latency["step"].append(FAILED)
            return
        self.latency["step"].append((asyncio.get_running_loop().time() - due) * 1e3)
        self.tally.ok()
        self.steps.append((op.step, body))

    async def _scrape(self) -> None:
        try:
            status, body = await self._call("scrape", "GET", "/metrics")
        except (OSError, ConnectionError, asyncio.TimeoutError) as exc:
            self.tally.fail(f"scrape: {type(exc).__name__}: {exc}")
            return
        if status != 200 or b"# TYPE repro_http_requests_total counter" not in body:
            self.tally.refuse(f"scrape: HTTP {status}")
            return
        self.tally.ok()
        self.scrape_bytes = len(body)

    async def _poll(self) -> None:
        """Every POLL_S, ask for the status of every outstanding job,
        pipelined on one connection."""
        loop = asyncio.get_running_loop()
        while not (self._done_submitting and not self.outstanding):
            if self.outstanding:
                jobs = list(self.outstanding.values())
                conn = await self.pool.get()
                sent = loop.time()
                try:
                    replies = await asyncio.wait_for(conn.pipeline(
                        [("GET", f"/v1/runs/{job.id}", None) for job in jobs]),
                        REQUEST_TIMEOUT_S)
                except (OSError, ConnectionError, asyncio.TimeoutError, ValueError) as exc:
                    conn.close()
                    for job in jobs:
                        del self.outstanding[job.id]
                        self._job_failed(job, f"status: {type(exc).__name__}: {exc}")
                    continue
                finally:
                    self.pool.put_nowait(conn)
                for job, (status, body, done) in zip(jobs, replies):
                    self.requests += 1
                    self._record("status", sent, done, status)
                    state = json.loads(body).get("state") if status == 200 else "failed"
                    if state == "done":
                        del self.outstanding[job.id]
                        self._spawn(self._fetch_result(job))
                    elif state == "failed":
                        del self.outstanding[job.id]
                        self._job_failed(job, f"job {job.id} failed: {body[:200]!r}")
            await asyncio.sleep(POLL_S)

    def _spawn(self, coro: Any) -> None:
        self._tasks.append(asyncio.get_running_loop().create_task(coro))

    async def drive(self, schedule: List[Op]) -> None:
        """Replay ``schedule`` open loop, then wait for every reply."""
        loop = asyncio.get_running_loop()
        self._ns_offset = time.time_ns() - int(loop.time() * 1e9)
        poller = loop.create_task(self._poll())
        t0 = loop.time() + 0.05
        for op in schedule:
            due = t0 + op.due
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            self.lateness_ms.append(max(0.0, loop.time() - due) * 1e3)
            if op.kind in ("run", "burst", "mixed", "repeat"):
                self._spawn(self._submit(op, due))
            elif op.kind == "fetch":
                self._spawn(self._fetch_by_hash(op, due))
            elif op.kind == "step":
                self._spawn(self._step(op, due))
            else:
                self._spawn(self._scrape())
        # submissions must land before the poller may stop
        while not all(task.done() for task in self._tasks):
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
        self._done_submitting = True
        try:
            await asyncio.wait_for(asyncio.shield(poller), DRAIN_TIMEOUT_S)
        except asyncio.TimeoutError:
            poller.cancel()
            await asyncio.gather(poller, return_exceptions=True)
            for job in list(self.outstanding.values()):
                self._job_failed(job, f"job {job.id} unfinished after drain")
            self.outstanding.clear()
        while not all(task.done() for task in self._tasks):
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
        for task in self._tasks:
            if task.exception() is not None:
                self.tally.fail(f"client task: {task.exception()!r}")


# -- server-side counters ------------------------------------------------


def scrape(text: str) -> Dict[str, Dict[Any, float]]:
    """``/metrics`` text as ``{name: {labelset: value}}``."""
    from repro.serve.top import build_snapshot, parse_prometheus

    return build_snapshot(parse_prometheus(text))


def _delta(before: Dict[str, Dict[Any, float]], after: Dict[str, Dict[Any, float]],
           name: str, **labels: str) -> float:
    """Change of the sample ``name{labels}`` between two scrapes."""

    def value(snapshot: Dict[str, Dict[Any, float]]) -> float:
        return sum(v for labelset, v in snapshot.get(name, {}).items()
                   if dict(labelset) == labels)

    return value(after) - value(before)


def _handler_mean_ms(before: Dict[str, Dict[Any, float]], after: Dict[str, Dict[Any, float]],
                     method: str, route: str) -> float:
    total = _delta(before, after, "repro_http_request_seconds_sum", method=method, route=route)
    count = _delta(before, after, "repro_http_request_seconds_count", method=method, route=route)
    return total / count * 1e3 if count else 0.0


# -- the workload --------------------------------------------------------


@dataclasses.dataclass
class ServeState:
    seed: int
    scratch: str
    server: Server
    conns: List[Connection]
    loop: asyncio.AbstractEventLoop
    #: result hash of every run spec submitted so far
    shas: Dict[str, str]
    tally: checks.Tally = dataclasses.field(default_factory=checks.Tally)


def _run(state: ServeState, coro: Any) -> Any:
    return state.loop.run_until_complete(coro)


async def _get_json(conn: Connection, path: str) -> Dict[str, Any]:
    status, body = await conn.request("GET", path)
    if status != 200:
        raise RuntimeError(f"GET {path}: HTTP {status}")
    return json.loads(body)


async def _get_text(conn: Connection, path: str) -> str:
    status, body = await conn.request("GET", path)
    if status != 200:
        raise RuntimeError(f"GET {path}: HTTP {status}")
    return body.decode("utf-8")


async def _warm_up(state: ServeState) -> None:
    """One request of each kind; their runs seed repeats and fetches."""
    conn = state.conns[0]
    submitted = []
    for specs in warmup_specs(state.seed).values():
        for status, body, _ in await conn.pipeline([("POST", "/v1/runs", s) for s in specs]):
            if status != 202:
                raise RuntimeError(f"warm-up submit: HTTP {status}: {body[:200]!r}")
            submitted.append(json.loads(body))
        for spec, reply in zip(specs, submitted[-len(specs):]):
            state.shas[spec_key(spec)] = reply["result_sha"]
    # a repeat of the first run: the warm-up's cache hit
    status, body = await conn.request("POST", "/v1/runs", warmup_specs(state.seed)["run"][0])
    if status != 202:
        raise RuntimeError(f"warm-up repeat: HTTP {status}: {body[:200]!r}")
    submitted.append(json.loads(body))
    for reply in submitted:
        while (await _get_json(conn, f"/v1/runs/{reply['id']}"))["state"] not in ("done", "failed"):
            await asyncio.sleep(POLL_S)
        await _get_json(conn, f"/v1/results/{reply['result_sha']}")
    short, long = step_payloads(state.seed)
    for payload in (short[0], long[0]):
        status, _ = await state.conns[-1].request("POST", "/v1/controller/step", payload)
        if status != 200:
            raise RuntimeError(f"warm-up step: HTTP {status}")
    await _get_text(conn, "/metrics")
    await _get_json(conn, "/v1/stats")


def setup(seed: int) -> ServeState:
    scratch = scratch_dir("serve-")
    server = start_server(scratch)
    loop = asyncio.new_event_loop()
    conns = [Connection(server.host, server.port) for _ in range(nproc())]
    state = ServeState(seed, scratch, server, conns, loop, shas={})
    try:
        _run(state, _warm_up(state))
    except BaseException:
        teardown(state)
        raise
    return state


def teardown(state: ServeState) -> None:
    for conn in state.conns:
        conn.close()
    stop_server(state.server.proc)
    state.loop.close()
    remove(state.scratch)


def _leg(state: ServeState, seconds: float, name: str, recorder: Any = None) -> Dict[str, Any]:
    """Drive one schedule; returns the leg and server counters around it."""
    conn = state.conns[0]
    before = scrape(_run(state, _get_text(conn, "/metrics")))
    stats_before = _run(state, _get_json(conn, "/v1/stats"))
    leg = Leg(state.conns, state.tally, state.shas, recorder)
    schedule = make_schedule(state.seed, seconds, name)
    _run(state, leg.drive(schedule))
    after = scrape(_run(state, _get_text(conn, "/metrics")))
    stats_after = _run(state, _get_json(conn, "/v1/stats"))
    coalescer = {
        key: stats_after["coalescer"][key] - stats_before["coalescer"][key]
        for key in ("flushes", "run_batch_calls", "batched_runs")
    }
    return {
        "leg": leg,
        "before": before,
        "after": after,
        "coalescer": coalescer,
        "bursts": sum(1 for op in schedule if op.kind == "burst"),
        "spans_recorded": stats_after["spans"]["recorded"] - stats_before["spans"]["recorded"],
    }


def verify(state: ServeState, leg: Leg) -> None:
    """Served results against the library; steps against the scorer."""
    from repro.engine import EngineConfig, SweepEngine, SweepJob, job_cache_key
    from repro.serve.controller import score_trajectory

    specs = {spec_key(job.spec): job.spec for job, _ in leg.served}
    keys = sorted(specs)
    jobs = [SweepJob.make(specs[k]["benchmark"], specs[k]["scheme"],
                          max_instructions=specs[k]["max_instructions"],
                          seed=specs[k]["seed"]) for k in keys]
    outcomes = SweepEngine(EngineConfig(workers=nproc())).run(jobs)
    library = {}
    for key, job, outcome in zip(keys, jobs, outcomes):
        if not outcome.ok:
            raise RuntimeError(f"library run {job.job_id} failed: {outcome.error}")
        library[key] = (job_cache_key(job), checks.result_payload(outcome.result))
    for job, body in leg.served:
        sha, payload = library[spec_key(job.spec)]
        what = f"{job.kind} {job.spec['benchmark']}/{job.spec['scheme']}/{job.spec['seed']}"
        if job.sha != sha:
            state.tally.mark_wrong(f"{what}: announced sha differs from job_cache_key")
        checks.served_result_matches(state.tally, what, json.loads(body), job.sha, payload)
    expected: Dict[str, Any] = {}
    for payload, body in leg.steps:
        key = spec_key(payload)
        if key not in expected:
            expected[key] = json.loads(json.dumps(score_trajectory(payload)))
        checks.compare(state.tally, "controller step", json.loads(body), expected[key])


def _pct(values: List[float], q: float) -> Optional[Any]:
    try:
        return percentile(values, q)
    except TailTooThin:
        return None


def latency_metrics(state: ServeState, leg: Leg) -> Tuple[Dict[str, Any], Dict[str, int]]:
    """Every percentile of :data:`LEVELS` as ``{kind}_latency_p{q}_ms``,
    with its sample count; a thin tail or a failed request at the
    percentile makes the run invalid."""
    found: Dict[str, Any] = {}
    counts: Dict[str, int] = {}
    for kind, levels in LEVELS.items():
        for q in levels:
            name = f"{kind}_latency_p{q}_ms"
            value = _pct(leg.latency[kind], q)
            if value is None:
                state.tally.guard(False, f"{name}: fewer than ten samples beyond "
                                         f"it among {len(leg.latency[kind])}")
            elif math.isinf(value.value):
                state.tally.guard(False, f"{name} is a failed request")
            else:
                found[name] = metric(value.value, "ms")
                counts[name] = value.count
    return found, counts


def guards(state: ServeState, run: Dict[str, Any]) -> Dict[str, Any]:
    """Check the leg exercised what serve_mixed claims to."""
    leg: Leg = run["leg"]
    coalescer = run["coalescer"]
    # each run_batch call carries one run plus those merged into it; a
    # burst that was batched merges at least one, so merged runs must
    # cover every burst (one ratio over the leg would not: about 150
    # single-run calls hide whether any burst merged)
    merged =coalescer["batched_runs"] - coalescer["run_batch_calls"]
    state.tally.guard(merged >= run["bursts"],
                      f"bursts were not batched: {merged} runs merged into another's "
                      f"run_batch call for {run['bursts']} bursts")
    hits = sum(1 for job, _ in leg.served if job.kind == "hit")
    cache_hits = _delta(run["before"], run["after"], "repro_engine_jobs_total",
                        outcome="cache_hit")
    state.tally.guard(cache_hits >= hits,
                      f"{hits} repeats served but only {cache_hits:.0f} engine cache hits")
    late = _pct(leg.lateness_ms, LATENESS_Q)
    state.tally.guard(late is not None and late.value <= MAX_LATENESS_MS,
                      f"generator fell behind its schedule: p{LATENESS_Q} lateness "
                      f"{late.value if late else math.nan:.1f} ms > {MAX_LATENESS_MS} ms")
    return {
        "bursts_merged_runs": f"{merged} for {run['bursts']} bursts",
        "repeats_from_cache": f"{cache_hits:.0f}/{hits}",
        f"generator_lateness_p{LATENESS_Q}_ms": late.value if late else math.nan,
        "poll_resolution_ms": POLL_S * 1e3,
        "requests": leg.requests,
    }


def measure(state: ServeState, seconds: float) -> Dict[str, Any]:
    run = _leg(state, seconds, "measured")
    rss = process_peak_rss_mb(state.server.proc.pid)
    verify(state, run["leg"])
    notes = guards(state, run)
    shown, counts = latency_metrics(state, run["leg"])
    metrics = {"peak_rss_mb": metric(rss, "MB")}
    if HEADLINE in shown:
        metrics["latency_ms"] = shown.pop(HEADLINE)
        counts["latency_ms"] = counts.pop(HEADLINE)
    runs = new_run_results(run["leg"])
    notes["samples"] = counts
    notes["shown"] = shown
    notes["digest"] = served_digest(run["leg"], runs)
    notes["exact_counts"] = {name: entry["value"]
                             for name, entry in checks.exact_counts(runs).items()}
    return {"metrics": metrics, "notes": notes}


def new_run_results(leg: Leg) -> List[Dict[str, Any]]:
    """The served result of every new run, in spec order (completion
    order varies from run to run)."""
    runs = sorted((spec_key(job.spec), json.loads(body))
                  for job, body in leg.served if job.kind == "run")
    return [payload for _, payload in runs]


def served_digest(leg: Leg, runs: List[Dict[str, Any]]) -> str:
    """Digest of every new run's result and every step decision."""
    steps = sorted(spec_key(payload) + checks.canonical(json.loads(body)["decisions"])
                   for payload, body in leg.steps)
    return checks.digest(runs + steps)


def _p50(values: List[float]) -> float:
    return percentile(values, 50).value


def traced(state: ServeState, seconds: float, recorder: Any) -> Dict[str, Any]:
    """Per-layer metrics: an untraced leg, then a traced leg that also
    reads each finished job's spans from ``/v1/spans/{id}``."""
    plain = _leg(state, seconds, "untraced")
    verify(state, plain["leg"])
    guards(state, plain)
    plain_latency, _ = latency_metrics(state, plain["leg"])
    run = _leg(state, seconds, "traced", recorder)
    verify(state, run["leg"])
    notes = guards(state, run)
    leg: Leg = run["leg"]
    before, after = run["before"], run["after"]

    queue_ms, job_ms, finish_ms = [], [], []
    pid = state.server.proc.pid
    for payload in leg.spans:
        spans = payload["spans"]
        root = next(s for s in spans if s["name"].startswith("run:"))
        job = next(s for s in spans if s["name"].startswith("job:"))
        queue_ms.append((job["start_ns"] - root["start_ns"]) / 1e6)
        if job.get("attrs", {}).get("cache") != "hit":
            # a hit's job span opens after its cache read: only runs
            # that simulate give the engine job time
            job_ms.append(job["dur_ns"] / 1e6)
        finish_ms.append((root["end_ns"] - job["end_ns"]) / 1e6)
        for span in (root, job):
            recorder.record(dict(span, name=f"server.{span['name'].split(':')[0]}",
                                 attrs=dict(span.get("attrs", {}), pid=pid)))
    coalescer = run["coalescer"]
    step_client = sum(leg.client_ms["step"]) / len(leg.client_ms["step"])
    step_handler = _handler_mean_ms(before, after, "POST", "/v1/controller/step")
    hits = _delta(before, after, "repro_engine_jobs_total", outcome="cache_hit")
    finished = _delta(before, after, "repro_engine_jobs_total", outcome="finished")
    out = {
        "serve.submit.p50_ms": metric(_p50(leg.client_ms["submit"]), "ms"),
        "serve.fetch.p50_ms": metric(_p50(leg.client_ms["fetch"]), "ms"),
        "serve.status.p50_ms": metric(_p50(leg.client_ms["status"]), "ms"),
        "serve.queue_wait.p50_ms": metric(_p50(queue_ms), "ms"),
        "serve.queue_wait.p90_ms": metric(percentile(queue_ms, 90).value, "ms"),
        "serve.job.p50_ms": metric(_p50(job_ms), "ms"),
        "serve.finish.p50_ms": metric(_p50(finish_ms), "ms"),
        "serve.coalescer.runs_per_call": metric(
            coalescer["batched_runs"] / coalescer["run_batch_calls"], "ratio"),
        "serve.coalescer.groups_per_flush": metric(
            coalescer["run_batch_calls"] / coalescer["flushes"], "ratio"),
        "serve.http.step.handler_ms": metric(step_handler, "ms"),
        "serve.http.submit.handler_ms": metric(
            _handler_mean_ms(before, after, "POST", "/v1/runs"), "ms"),
        "serve.http.fetch.handler_ms": metric(
            _handler_mean_ms(before, after, "GET", "/v1/results/{sha}"), "ms"),
        "serve.http.step.overhead_ms": metric(step_client - step_handler, "ms"),
        "obs.metrics.scrape_ms": metric(_p50(leg.client_ms["scrape"]), "ms"),
        "obs.metrics.bytes": metric(leg.scrape_bytes, "B"),
        "obs.spans.recorded": metric(run["spans_recorded"], "count"),
        "engine.cache.hit_ratio": metric(hits / (hits + finished), "ratio"),
        "engine.cache.entry_bytes": metric(
            cache_entry_bytes(os.path.join(state.scratch, "cache")), "B"),
        "engine.jobs.failed": metric(
            _delta(before, after, "repro_engine_jobs_total", outcome="failed"), "count"),
        "engine.jobs.retried": metric(_delta(before, after, "repro_engine_retries_total"), "count"),
        f"loadgen.lateness.p{LATENESS_Q}_ms": metric(
            percentile(leg.lateness_ms, LATENESS_Q).value, "ms"),
        "loadgen.requests": metric(leg.requests, "count"),
        "bench.tracing_overhead": metric(
            _p50(leg.latency[HEADLINE_KIND]) / _p50(plain["leg"].latency[HEADLINE_KIND]),
            "ratio"),
    }
    out.update(checks.exact_counts(new_run_results(leg)))
    out.update({f"serve.latency.{name.replace('_latency', '')}": value
                for name, value in plain_latency.items() if name != HEADLINE})
    notes["spans_read"] = len(leg.spans)
    return {"metrics": out, "notes": notes}


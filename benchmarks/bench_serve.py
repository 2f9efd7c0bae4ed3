"""Service load test: controller-step throughput + coalesced-run pipeline.

Boots a real :class:`repro.serve.app.ServeApp` on a background thread and
drives it over real sockets with the stdlib client:

* **controller-step throughput** -- the paper's adaptive FSM as a
  stateless endpoint, hammered over one keep-alive connection.  This is
  the service's hot cheap path; the acceptance floor is 50 req/s
  sustained and typical numbers are orders of magnitude above it.
* **coalesced run pipeline** -- a burst of concurrent single-run
  submissions, measured end-to-end (submit -> SSE completion -> result
  fetched by content hash) together with how tightly the coalescer
  packed them into engine calls (one per flush; ``/v1/stats`` still
  names their count ``run_batch_calls``).

Writes ``benchmarks/results/BENCH_serve.json``; the CI perf-regression
job gates ``controller_step.req_per_s`` against the committed baseline
(direction-aware, so the number may only improve without bound).
"""

from __future__ import annotations

import json
import math
import os
import time

from conftest import RESULTS_DIR, emit, run_once

from repro.harness.reporting import format_table
from repro.serve.app import ServeConfig
from repro.serve.client import ServeClient
from repro.serve.testing import BackgroundServer
from repro.serve.top import build_snapshot, parse_prometheus

#: controller-step load: requests per measurement and trajectory length.
STEP_REQUESTS = 400
STEP_SAMPLES = 64
#: acceptance floor from the service's requirements.
MIN_STEP_REQ_PER_S = 50.0

#: coalesced-run burst: N submissions, batched at most MAX_BATCH per tick.
RUN_BURST = 8
MAX_BATCH = 4
RUN_INSTRUCTIONS = 20_000


def _occupancy(samples: int) -> list:
    """A deterministic sawtooth trajectory exercising both FSM directions."""
    return [abs((i % 29) - 14) for i in range(samples)]


def _measure():
    config = ServeConfig(
        port=0, max_batch=MAX_BATCH, max_delay_s=0.05, executor_threads=4
    )
    with BackgroundServer(config) as server:
        client = ServeClient(*server.address)

        # -- controller-step throughput (one keep-alive connection) ----
        payload = {"occupancy": _occupancy(STEP_SAMPLES)}
        client.controller_step(payload)  # warm the connection + code paths
        started = time.perf_counter()
        for _ in range(STEP_REQUESTS):
            client.controller_step(payload)
        step_wall = time.perf_counter() - started

        # -- coalesced run burst, submit -> SSE -> result by hash ------
        started = time.perf_counter()
        submissions = [
            client.submit_run(
                {
                    "benchmark": "gsm-decode",
                    "scheme": "adaptive",
                    "seed": seed,
                    "max_instructions": RUN_INSTRUCTIONS,
                }
            )
            for seed in range(1, RUN_BURST + 1)
        ]
        for sub in submissions:
            final = client.wait_for_job(sub["id"])
            assert final.get("state") == "done", final
        results = [client.get_result(sub["result_sha"]) for sub in submissions]
        run_wall = time.perf_counter() - started
        assert all(r["benchmark"] == "gsm-decode" for r in results)

        stats = client.stats()
        scrape = build_snapshot(parse_prometheus(client.metrics_text()))
        client.close()
    return step_wall, run_wall, stats, scrape


def test_serve_load(benchmark):
    step_wall, run_wall, stats, scrape = run_once(benchmark, _measure)

    step_req_per_s = STEP_REQUESTS / step_wall
    coalescer = stats["coalescer"]
    runs_per_call = coalescer["batched_runs"] / coalescer["run_batch_calls"]
    max_calls = math.ceil(RUN_BURST / MAX_BATCH)

    payload = {
        "controller_step": {
            "requests": STEP_REQUESTS,
            "samples_per_request": STEP_SAMPLES,
            "wall_s": step_wall,
            "req_per_s": step_req_per_s,
        },
        "runs": {
            "submitted": RUN_BURST,
            "max_batch": MAX_BATCH,
            "wall_s": run_wall,
            "runs_per_s": RUN_BURST / run_wall,
            "run_batch_calls": coalescer["run_batch_calls"],
            "runs_per_call": runs_per_call,
        },
        "requests_served": int(sum(
            scrape.get("repro_http_requests_total", {}).values()
        )),
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "BENCH_serve.json"), "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)

    table = format_table(
        ["measurement", "value"],
        [
            ["controller-step req/s", f"{step_req_per_s:,.0f}"],
            ["controller-step wall", f"{step_wall:.3f} s ({STEP_REQUESTS} req)"],
            ["run burst wall", f"{run_wall:.3f} s ({RUN_BURST} runs)"],
            ["engine calls", str(coalescer["run_batch_calls"])],
            ["runs per call", f"{runs_per_call:.1f}"],
        ],
        title="DVFS service load test",
    )
    emit("serve_load", table)

    # acceptance: sustained controller-step throughput over the floor
    assert step_req_per_s >= MIN_STEP_REQ_PER_S, (
        f"controller-step endpoint too slow: {step_req_per_s:.1f} req/s "
        f"< {MIN_STEP_REQ_PER_S} req/s floor"
    )
    # the burst must actually have been coalesced, not run one-by-one
    assert coalescer["run_batch_calls"] <= max_calls, (
        f"coalescer degraded: {coalescer['run_batch_calls']} run_batch "
        f"calls for {RUN_BURST} submissions (max {max_calls})"
    )

"""DVFS-as-a-service: the asyncio HTTP surface over the reproduction.

This package turns the repo's simulation and control machinery into a
network-callable system (ROADMAP item 3):

* :mod:`repro.serve.http` -- a minimal hand-rolled HTTP/1.1 layer on
  ``asyncio`` streams (no web-framework dependency);
* :mod:`repro.serve.router` -- method/path dispatch with ``{param}``
  captures;
* :mod:`repro.serve.sse` -- server-sent-event encoding and the bounded
  drop-oldest subscriber queue (the backpressure policy);
* :mod:`repro.serve.jobstore` -- in-memory job registry with per-job
  event history + live fan-out to SSE subscribers;
* :mod:`repro.serve.coalescer` -- batches concurrent single-run
  requests into one :meth:`repro.engine.SweepEngine.run` call per
  flush, settling each request from its own job outcome;
* :mod:`repro.serve.controller` -- the paper's adaptive FSM as a
  stateless scorable function (``POST /v1/controller/step``);
* :mod:`repro.serve.app` -- the service itself: routes, handlers,
  graceful shutdown;
* :mod:`repro.serve.client` -- a thin stdlib client used by the tests,
  the load bench, and the CI smoke job;
* :mod:`repro.serve.top` -- the ``repro-dvfs top`` terminal dashboard
  polling ``GET /metrics`` (request rates, latency quantiles, engine
  and coalescer health);
* :mod:`repro.serve.testing` -- run a server on a background thread.

Start it with ``repro-dvfs serve`` (see the README's "Serving" section
and DESIGN.md section 6f).
"""

from repro.serve.app import ServeApp, ServeConfig
from repro.serve.client import ServeClient
from repro.serve.coalescer import RequestCoalescer
from repro.serve.controller import score_trajectory
from repro.serve.http import Request, Response
from repro.serve.jobstore import Job, JobState, JobStore
from repro.serve.router import Router
from repro.serve.sse import DropOldestQueue, format_sse
from repro.serve.top import parse_prometheus, render, run_top

__all__ = [
    "DropOldestQueue",
    "Job",
    "JobState",
    "JobStore",
    "Request",
    "RequestCoalescer",
    "Response",
    "Router",
    "ServeApp",
    "ServeClient",
    "ServeConfig",
    "format_sse",
    "parse_prometheus",
    "render",
    "run_top",
    "score_trajectory",
]

"""The ops surface: ``GET /metrics``, ``GET /v1/spans/{id}``, and the
``repro-dvfs top`` dashboard pieces.

One background server is shared across the module; the scrape tests run
real jobs through it and then assert on the exposition text exactly as a
Prometheus server (or the dashboard) would parse it.
"""

from __future__ import annotations

import io

import pytest

from repro.serve.app import ServeConfig
from repro.serve.client import ServeClient, ServeError
from repro.serve.testing import BackgroundServer
from repro.serve.top import (
    build_snapshot,
    histogram_quantile,
    parse_prometheus,
    render,
    run_top,
)

INSTRUCTIONS = 1500
BENCH = "adpcm-encode"


@pytest.fixture(scope="module")
def server():
    config = ServeConfig(port=0, max_batch=4, max_delay_s=0.02)
    with BackgroundServer(config) as background:
        yield background


@pytest.fixture()
def client(server):
    with ServeClient(*server.address) as c:
        yield c


def _finished_run(client, seed=11):
    sub = client.submit_run({
        "benchmark": BENCH,
        "scheme": "adaptive",
        "seed": seed,
        "max_instructions": INSTRUCTIONS,
    })
    state = client.wait_for_job(sub["id"])
    assert state["state"] == "done"
    return sub


class TestMetricsEndpoint:
    def test_scrape_content_type_and_grammar(self, server, client):
        _finished_run(client, seed=21)
        # raw response check (content type matters to scrapers)
        import http.client

        conn = http.client.HTTPConnection(*server.address)
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type") == (
                "text/plain; version=0.0.4; charset=utf-8"
            )
            text = response.read().decode("utf-8")
        finally:
            conn.close()
        assert text.endswith("\n")
        assert "# TYPE repro_http_requests_total counter" in text
        assert "# TYPE repro_http_request_seconds histogram" in text

    def test_request_metrics_accumulate_with_route_labels(self, client):
        _finished_run(client, seed=22)
        client.health()
        snap = build_snapshot(parse_prometheus(client.metrics_text()))
        requests = snap["repro_http_requests_total"]
        health = [
            v for labels, v in requests.items()
            if dict(labels).get("route") == "/v1/healthz"
            and dict(labels).get("status") == "200"
        ]
        assert health and health[0] >= 1
        # latency histogram sees the same traffic
        counts = snap["repro_http_request_seconds_count"]
        assert any(
            dict(labels).get("route") == "/v1/healthz" and value >= 1
            for labels, value in counts.items()
        )

    def test_unmatched_routes_use_bounded_label(self, client):
        with pytest.raises(ServeError):
            client.request("GET", "/nope/really/not/there")
        snap = build_snapshot(parse_prometheus(client.metrics_text()))
        unmatched = [
            v for labels, v in snap["repro_http_requests_total"].items()
            if dict(labels).get("route") == "unmatched"
        ]
        assert unmatched and sum(unmatched) >= 1

    def test_engine_and_coalescer_families_populate(self, client):
        _finished_run(client, seed=23)
        snap = build_snapshot(parse_prometheus(client.metrics_text()))
        finished = [
            v for labels, v in snap["repro_engine_jobs_total"].items()
            if dict(labels).get("outcome") == "finished"
        ]
        assert finished and finished[0] >= 1
        assert sum(snap["repro_serve_coalescer_flushes_total"].values()) >= 1
        assert sum(snap["repro_serve_coalescer_batch_size_count"].values()) >= 1

    def test_scrape_gauges_sampled_at_scrape_time(self, client):
        _finished_run(client, seed=24)
        snap = build_snapshot(parse_prometheus(client.metrics_text()))
        assert snap["repro_serve_uptime_seconds"][()] > 0.0
        done = [
            v for labels, v in snap["repro_serve_jobs"].items()
            if dict(labels).get("state") == "done"
        ]
        assert done and done[0] >= 1

    def test_scrapes_are_counted_as_requests(self, client):
        client.metrics_text()
        snap = build_snapshot(parse_prometheus(client.metrics_text()))
        scrapes = [
            v for labels, v in snap["repro_http_requests_total"].items()
            if dict(labels) == {"method": "GET", "route": "/metrics",
                                "status": "200"}
        ]
        # the first scrape is counted by the time the second renders
        assert scrapes and scrapes[0] >= 1
        stats = client.stats()
        assert "counters" not in stats and "rates" not in stats
        assert stats["spans"]["recorded"] >= 0


class TestSpansEndpoint:
    def test_run_trace_nests_worker_under_root(self, client):
        sub = _finished_run(client, seed=31)
        assert sub["trace_id"]
        payload = client.get_spans(sub["id"])
        assert payload["trace_id"] == sub["trace_id"]
        names = [s["name"] for s in payload["spans"]]
        assert f"run:{sub['id']}" in names
        job_spans = [
            s for s in payload["spans"] if s["name"].startswith("job:")
        ]
        assert job_spans, f"no worker span in trace: {names}"
        root = next(
            s for s in payload["spans"] if s["name"] == f"run:{sub['id']}"
        )
        assert job_spans[0]["parent_id"] == root["span_id"]
        assert job_spans[0]["trace_id"] == root["trace_id"]
        # tree view agrees
        (tree,) = payload["tree"]
        assert tree["span"]["name"] == f"run:{sub['id']}"
        assert any(
            child["span"]["name"].startswith("job:")
            for child in tree["children"]
        )

    def test_traced_run_records_its_run_experiment_child(self, client):
        sub = client.submit_run({
            "benchmark": BENCH,
            "scheme": "adaptive",
            "seed": 33,
            "max_instructions": INSTRUCTIONS,
            "trace": True,
        })
        assert client.wait_for_job(sub["id"])["state"] == "done"
        spans = client.get_spans(sub["id"])["spans"]
        root = next(s for s in spans if s["name"] == f"run:{sub['id']}")
        (child,) = [s for s in spans if s["name"] == "run_experiment"]
        assert child["parent_id"] == root["span_id"]
        assert child["attrs"]["traced"] is True
        assert child["attrs"]["instructions"] > 0

    def test_sweep_root_span_is_recorded(self, client):
        sub = client.submit_sweep({
            "benchmarks": [BENCH],
            "schemes": ["adaptive"],
            "seeds": [34],
            "max_instructions": INSTRUCTIONS,
        })
        assert client.wait_for_job(sub["id"])["state"] == "done"
        spans = client.get_spans(sub["id"])["spans"]
        root = next(s for s in spans if s["name"] == f"sweep:{sub['id']}")
        assert root["trace_id"] == sub["trace_id"]
        assert root["attrs"] == {
            "kind": "sweep", "jobs": 1, "state": "done", "failures": 0,
        }
        # the engine's own sweep span hangs off the submission root
        assert any(
            s["name"] == "sweep" and s["parent_id"] == root["span_id"]
            for s in spans
        )

    def test_job_status_carries_trace_id(self, client):
        sub = _finished_run(client, seed=32)
        status = client.get_job(sub["id"])
        assert status["trace_id"] == sub["trace_id"]

    def test_unknown_job_404(self, client):
        with pytest.raises(ServeError) as err:
            client.get_spans("run-999999")
        assert err.value.status == 404


class TestTopDashboard:
    def test_histogram_quantile_estimates(self):
        buckets = [(0.1, 5.0), (1.0, 9.0), (float("inf"), 10.0)]
        assert histogram_quantile(0.5, buckets) == 0.1
        assert histogram_quantile(0.9, buckets) == 1.0
        # the +Inf bucket clamps to the largest finite bound
        assert histogram_quantile(1.0, buckets) == 1.0
        assert histogram_quantile(0.5, []) is None
        assert histogram_quantile(0.5, [(1.0, 0.0)]) is None

    def test_render_is_pure_and_shows_routes(self, client):
        _finished_run(client, seed=41)
        snap = build_snapshot(parse_prometheus(client.metrics_text()))
        screen = render(snap)
        assert "repro-dvfs top" in screen
        assert "/v1/runs" in screen
        assert "engine" in screen and "coalesce" in screen
        assert render(snap) == screen  # same input, same screen

    def test_render_rates_from_successive_snapshots(self):
        prev = build_snapshot(parse_prometheus(
            'repro_http_requests_total{method="GET",route="/x",status="200"} 10\n'
        ))
        cur = build_snapshot(parse_prometheus(
            'repro_http_requests_total{method="GET",route="/x",status="200"} 30\n'
        ))
        screen = render(cur, prev, interval_s=2.0)
        assert "10.0" in screen  # (30-10)/2 requests per second

    def test_render_handles_empty_scrape(self):
        assert "(no requests recorded yet)" in render({})

    def test_run_top_against_live_server(self, server, client):
        _finished_run(client, seed=42)
        out = io.StringIO()
        host, port = server.address
        code = run_top(
            host=host, port=port, interval_s=0.05, iterations=2,
            out=out, clear=False,
        )
        assert code == 0
        text = out.getvalue()
        assert text.count("repro-dvfs top") == 2
        assert "\x1b[2J" not in text

    def test_run_top_unreachable_is_an_error(self):
        out = io.StringIO()
        code = run_top(
            host="127.0.0.1", port=1, interval_s=0.01, iterations=1, out=out
        )
        assert code == 1


class TestCliWiring:
    def test_top_subcommand_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["top", "--once", "--port", "9999", "--interval", "0.5"]
        )
        assert args.func.__name__ == "_cmd_top"
        assert args.once and args.port == 9999

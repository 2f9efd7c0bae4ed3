"""End-to-end service tests: real sockets, real simulations.

One background server is shared across the module (boot cost is paid
once); each test drives it through the stdlib client exactly as the CI
smoke job and the load bench do.
"""

import json
import threading

import pytest

from repro.engine.cache import job_cache_key
from repro.engine.jobs import SweepJob
from repro.harness.experiment import run_experiment
from repro.harness.persistence import result_to_dict
from repro.serve.app import ServeConfig
from repro.serve.client import ServeClient, ServeError
from repro.serve.testing import BackgroundServer
from repro.serve.top import build_snapshot, parse_prometheus

INSTRUCTIONS = 1500
BENCH = "adpcm-encode"


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    cache_dir = str(tmp_path_factory.mktemp("serve-cache"))
    config = ServeConfig(
        port=0, cache_dir=cache_dir, max_batch=4, max_delay_s=0.02
    )
    with BackgroundServer(config) as background:
        yield background


@pytest.fixture()
def client(server):
    with ServeClient(*server.address) as c:
        yield c


def run_spec(seed=1, **extra):
    spec = {
        "benchmark": BENCH,
        "scheme": "adaptive",
        "seed": seed,
        "max_instructions": INSTRUCTIONS,
    }
    spec.update(extra)
    return spec


class TestLifecycle:
    def test_health_and_discovery(self, client):
        assert client.health()["status"] == "ok"
        listing = client.benchmarks()
        assert BENCH in listing["benchmarks"]
        assert "adaptive" in listing["schemes"]

    def test_submit_stream_fetch_roundtrip(self, client):
        """The acceptance path: submit -> SSE to completion -> result by hash."""
        sub = client.submit_run(run_spec(seed=11))
        assert sub["state"] == "queued"
        assert len(sub["result_sha"]) == 64

        events = list(client.stream_events(sub["id"]))
        names = [frame.get("event") for frame in events]
        assert names[-1] == "end"
        assert "result" in names
        assert any(n == "freq_step" for n in names)
        # stream is ordered by sequence number
        seqs = [frame["id"] for frame in events if "id" in frame]
        assert seqs == sorted(seqs)

        terminal = [f for f in events if f.get("event") == "job"][-1]
        assert terminal["data"]["state"] == "done"

        result = client.get_result(sub["result_sha"])
        assert result["benchmark"] == BENCH
        assert result["sha"] == sub["result_sha"]

    def test_result_sha_is_the_job_cache_key(self, client):
        """The advertised hash is the engine's content address, verbatim."""
        sub = client.submit_run(run_spec(seed=12))
        job = SweepJob.make(
            BENCH, scheme="adaptive", seed=12, max_instructions=INSTRUCTIONS
        )
        assert sub["result_sha"] == job_cache_key(job)

    def test_coalesced_result_matches_direct_run_experiment(self, client):
        sub = client.submit_run(run_spec(seed=13))
        client.wait_for_job(sub["id"])
        served = client.get_result(sub["result_sha"])
        served.pop("sha")

        direct = result_to_dict(
            run_experiment(
                BENCH,
                scheme="adaptive",
                seed=13,
                max_instructions=INSTRUCTIONS,
                record_history=False,
            )
        )
        assert json.dumps(served, sort_keys=True) == json.dumps(
            direct, sort_keys=True
        )

    def test_concurrent_submissions_coalesce(self, client, server):
        before = client.stats()["coalescer"]["run_batch_calls"]
        seeds = list(range(20, 26))
        subs = []
        lock = threading.Lock()

        def submit(seed):
            c = ServeClient(*server.address)
            try:
                sub = c.submit_run(run_spec(seed=seed))
            finally:
                c.close()
            with lock:
                subs.append(sub)

        threads = [
            threading.Thread(target=submit, args=(seed,)) for seed in seeds
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for sub in subs:
            final = client.wait_for_job(sub["id"])
            assert final["state"] == "done", final
        after = client.stats()["coalescer"]["run_batch_calls"]
        # 6 submissions, max_batch 4 -> at most ceil(6/4)=2 backend ticks
        assert after - before <= 2

    def test_traced_run_streams_probe_events(self, client):
        sub = client.submit_run(
            run_spec(seed=31, trace=True, obs={"sample_stride": 8})
        )
        assert sub["coalesced"] is False
        kinds = set()
        for frame in client.stream_events(sub["id"]):
            if frame.get("event") == "probe":
                kinds.add(frame["data"].get("kind"))
        assert "sample" in kinds
        assert "freq_step" in kinds

    def test_sweep_submission(self, client):
        sub = client.submit_sweep({
            "benchmarks": [BENCH],
            "schemes": ["adaptive", "pid"],
            "seeds": [1],
            "max_instructions": INSTRUCTIONS,
        })
        assert sub["jobs"] == 2
        events = list(client.stream_events(sub["id"]))
        names = [f.get("event") for f in events]
        assert "telemetry" in names
        results = [f for f in events if f.get("event") == "result"]
        assert len(results) == 2
        for frame, sha in zip(results, sub["result_shas"]):
            assert frame["data"]["sha"] == sha
            fetched = client.get_result(sha)
            assert fetched["benchmark"] == BENCH

    def test_job_status_endpoint(self, client):
        sub = client.submit_run(run_spec(seed=41))
        client.wait_for_job(sub["id"])
        status = client.get_job(sub["id"])
        assert status["state"] == "done"
        assert status["result_shas"] == [sub["result_sha"]]

    def test_controller_step_over_http(self, client):
        scored = client.controller_step(
            {"occupancy": [0, 4, 9, 14, 14, 9, 4, 0] * 4}
        )
        assert scored["samples"] == 32
        assert "decisions" in scored


class TestSimcoreEcho:
    """Submit responses echo the *resolved* core: arg > server > env."""

    def test_run_submit_echoes_resolved_default(self, client):
        # this server sets no default, so the env/default chain resolves
        sub = client.submit_run(run_spec(seed=51))
        assert sub["simcore"] == "fast"

    def test_run_submit_accepts_and_echoes_ref(self, client):
        sub = client.submit_run(run_spec(seed=52, simcore="ref"))
        assert sub["simcore"] == "ref"
        client.wait_for_job(sub["id"])
        served = client.get_result(sub["result_sha"])
        served.pop("sha")
        direct = result_to_dict(
            run_experiment(
                BENCH,
                scheme="adaptive",
                seed=52,
                max_instructions=INSTRUCTIONS,
                record_history=False,
                simcore="fast",
            )
        )
        # a ref-served run is bit-identical to a direct fast-core run
        assert json.dumps(served, sort_keys=True) == json.dumps(
            direct, sort_keys=True
        )

    def test_sweep_submit_echoes_resolved_cores(self, client):
        sub = client.submit_sweep({
            "benchmarks": [BENCH],
            "schemes": ["adaptive"],
            "seeds": [61, 62],
            "max_instructions": INSTRUCTIONS,
            "simcore": "ref",
        })
        assert sub["simcore"] == ["ref"]


class TestErrors:
    def test_unknown_benchmark_is_400(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.submit_run(run_spec(benchmark="quake3"))
        assert excinfo.value.status == 400

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.get_job("run-999999")
        assert excinfo.value.status == 404

    def test_unknown_result_hash_is_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.get_result("f" * 64)
        assert excinfo.value.status == 404

    def test_traversal_hash_is_404_not_file_read(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.get_result("..%2F..%2Fetc%2Fpasswd")
        assert excinfo.value.status == 404

    def test_wrong_method_is_405(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.request("GET", "/v1/controller/step")
        assert excinfo.value.status == 405

    def test_unknown_path_is_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.request("GET", "/v2/nothing")
        assert excinfo.value.status == 404

    def test_bad_controller_payload_is_400(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.controller_step({"occupancy": []})
        assert excinfo.value.status == 400

    def test_unknown_simcore_is_400(self, client):
        # "batch" names a retired core: it must be refused, not degraded
        for name in ("turbo", "batch"):
            with pytest.raises(ServeError) as excinfo:
                client.submit_run(run_spec(seed=53, simcore=name))
            assert excinfo.value.status == 400
            assert "known: ref, fast" in str(excinfo.value)

    @pytest.mark.parametrize("field,value", [
        ("max_instructions", 0),
        ("max_instructions", -100),
        ("pid_interval_ns", 0),
        ("pid_interval_ns", -1),
    ])
    def test_non_positive_run_size_is_400(self, client, field, value):
        spec = run_spec(seed=54, scheme="pid")
        spec[field] = value
        with pytest.raises(ServeError) as excinfo:
            client.submit_run(spec)
        assert excinfo.value.status == 400
        assert f"'{field}' must be positive" in str(excinfo.value)

    def test_non_positive_sweep_size_is_400(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.submit_sweep({
                "benchmarks": [BENCH],
                "seeds": [55],
                "max_instructions": 0,
            })
        assert excinfo.value.status == 400
        assert "'max_instructions' must be positive" in str(excinfo.value)

    def test_oversized_sweep_rejected(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.submit_sweep({
                "benchmarks": [BENCH],
                "schemes": ["adaptive"],
                "seeds": list(range(600)),
            })
        assert excinfo.value.status == 400


class TestObservability:
    def test_serve_requests_are_counted(self, client):
        client.health()
        stats = client.stats()
        snap = build_snapshot(parse_prometheus(client.metrics_text()))
        by_route = {}
        for labels, value in snap["repro_http_requests_total"].items():
            route = dict(labels)["route"]
            by_route[route] = by_route.get(route, 0) + value
        assert by_route["/v1/healthz"] >= 1 and by_route["/v1/stats"] >= 1
        assert stats["uptime_s"] > 0

    def test_repeated_run_counts_as_an_engine_cache_hit(self, client):
        """Cache hits are counted where the engines count them, on
        /metrics; /v1/stats keeps no cache counters of its own."""
        first = client.submit_run(run_spec(seed=71))
        assert client.wait_for_job(first["id"])["state"] == "done"
        before = cache_hits(client)
        repeat = client.submit_run(run_spec(seed=71))
        assert client.wait_for_job(repeat["id"])["state"] == "done"
        assert cache_hits(client) >= before + 1
        assert "cache" not in client.stats()


def cache_hits(client):
    """The engines' ``cache_hit`` count, read from /metrics."""
    snap = build_snapshot(parse_prometheus(client.metrics_text()))
    return sum(
        value
        for labels, value in snap["repro_engine_jobs_total"].items()
        if dict(labels)["outcome"] == "cache_hit"
    )


def submitted(client):
    return client.stats()["coalescer"]["submitted"]


class TestStoredResults:
    """An untraced repeat of a run whose result the window holds is
    settled at submission; everything else rides the coalescer."""

    def test_repeat_is_settled_at_submission(self, client):
        first = client.submit_run(run_spec(seed=81))
        assert client.wait_for_job(first["id"])["state"] == "done"
        hits, queued = cache_hits(client), submitted(client)

        repeat = client.submit_run(run_spec(seed=81))
        assert repeat["state"] == "done"
        assert repeat["coalesced"] is False
        assert repeat["result_sha"] == first["result_sha"]
        assert client.get_job(repeat["id"])["state"] == "done"
        assert submitted(client) == queued
        assert cache_hits(client) == hits + 1

        spans = client.get_spans(repeat["id"])["spans"]
        root = next(s for s in spans if s["name"] == "run:" + repeat["id"])
        job = next(s for s in spans if s["name"].startswith("job:"))
        assert job["attrs"]["cache"] == "hit"
        assert job["parent_id"] == root["span_id"]
        assert root["attrs"]["state"] == "done"

        names = [f.get("event") for f in client.stream_events(repeat["id"])]
        assert "result" in names and "freq_step" in names
        assert names[-1] == "end"
        assert client.get_result(repeat["result_sha"])["sha"] == first["result_sha"]

    def test_traced_repeat_streams_live_probe_events(self, client):
        spec = run_spec(seed=82, trace=True, obs={"sample_stride": 8})
        first = client.submit_run(spec)
        assert client.wait_for_job(first["id"])["state"] == "done"

        repeat = client.submit_run(spec)
        assert repeat["result_sha"] == first["result_sha"]
        assert repeat["state"] == "queued"
        assert repeat["coalesced"] is False
        kinds = {
            frame["data"].get("kind")
            for frame in client.stream_events(repeat["id"])
            if frame.get("event") == "probe"
        }
        assert "sample" in kinds

    def test_traced_run_is_keyed_on_its_observability(self, client):
        traced = client.submit_run(run_spec(seed=83, trace=True))
        assert client.wait_for_job(traced["id"])["state"] == "done"
        plain = client.submit_run(run_spec(seed=83))
        assert client.wait_for_job(plain["id"])["state"] == "done"

        assert traced["result_sha"] != plain["result_sha"]
        job = SweepJob.make(
            BENCH, scheme="adaptive", seed=83, max_instructions=INSTRUCTIONS
        )
        assert plain["result_sha"] == job_cache_key(job)
        assert "probe_summary" in client.get_result(traced["result_sha"])
        assert "probe_summary" not in client.get_result(plain["result_sha"])

    def test_repeat_past_the_window_is_served_from_disk(
        self, client, monkeypatch
    ):
        import repro.serve.app as app_module

        monkeypatch.setattr(app_module, "RESULT_WINDOW", 1)
        first = client.submit_run(run_spec(seed=84))
        assert client.wait_for_job(first["id"])["state"] == "done"
        other = client.submit_run(run_spec(seed=85))
        assert client.wait_for_job(other["id"])["state"] == "done"
        hits, queued = cache_hits(client), submitted(client)

        repeat = client.submit_run(run_spec(seed=84))
        assert repeat["state"] == "queued"
        assert repeat["coalesced"] is True
        assert client.wait_for_job(repeat["id"])["state"] == "done"
        assert submitted(client) == queued + 1
        assert cache_hits(client) == hits + 1
        spans = client.get_spans(repeat["id"])["spans"]
        job = next(s for s in spans if s["name"].startswith("job:"))
        assert job["attrs"]["cache"] == "hit"
        assert client.get_result(repeat["result_sha"])["sha"] == first["result_sha"]


def test_server_without_cache_dir_answers_a_repeat_from_memory():
    """Without a cache dir a repeat used to simulate again; now a repeat
    inside the window is answered from memory."""
    config = ServeConfig(port=0, max_batch=4, max_delay_s=0.02)
    with BackgroundServer(config) as background:
        with ServeClient(*background.address) as client:
            first = client.submit_run(run_spec(seed=86))
            assert client.wait_for_job(first["id"])["state"] == "done"
            expected = client.get_result(first["result_sha"])
            queued = submitted(client)

            repeat = client.submit_run(run_spec(seed=86))
            assert repeat["state"] == "done"
            assert repeat["coalesced"] is False
            assert submitted(client) == queued
            assert client.get_result(repeat["result_sha"]) == expected

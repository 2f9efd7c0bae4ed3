"""Tests for the engine telemetry stream."""

import io
import json

from repro.engine import telemetry as tm


class TestRunTelemetry:
    def test_counters_track_job_events(self):
        t = tm.RunTelemetry()
        t.emit(tm.SWEEP_STARTED, total_jobs=3)
        t.emit(tm.JOB_STARTED, "a/adaptive", attempt=1)
        t.emit(tm.JOB_FINISHED, "a/adaptive", wall_s=0.5)
        t.emit(tm.JOB_CACHE_HIT, "b/adaptive")
        t.emit(tm.JOB_RETRIED, "c/pid", error="boom")
        t.emit(tm.JOB_FAILED, "c/pid", error="boom")
        t.emit(tm.SWEEP_FINISHED)
        assert t.counters[tm.JOB_FINISHED] == 1
        assert t.counters[tm.JOB_CACHE_HIT] == 1
        assert t.counters[tm.JOB_RETRIED] == 1
        assert t.counters[tm.JOB_FAILED] == 1
        assert t.completed_jobs == 3

    def test_summary_and_throughput(self):
        t = tm.RunTelemetry()
        t.emit(tm.SWEEP_STARTED)
        t.emit(tm.JOB_FINISHED, "x/adaptive")
        t.emit(tm.SWEEP_FINISHED)
        summary = t.summary()
        assert summary["jobs_run"] == 1
        assert summary["failures"] == 0
        assert summary["wall_s"] >= 0.0
        assert summary["jobs_per_s"] > 0.0

    def test_listeners_receive_every_event(self):
        seen = []
        t = tm.RunTelemetry()
        t.add_listener(seen.append)
        t.emit(tm.JOB_STARTED, "x/pid")
        t.emit(tm.JOB_FINISHED, "x/pid")
        assert [e.kind for e in seen] == [tm.JOB_STARTED, tm.JOB_FINISHED]
        assert seen[0].job_id == "x/pid"


class TestJsonlEventLog:
    def test_one_json_object_per_line(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        t = tm.RunTelemetry()
        t.add_listener(tm.JsonlEventLog(path))
        t.emit(tm.SWEEP_STARTED, total_jobs=1)
        t.emit(tm.JOB_FINISHED, "gzip/adaptive", wall_s=1.25, attempts=1)
        t.emit(tm.SWEEP_FINISHED)
        lines = [
            json.loads(line)
            for line in open(path).read().splitlines()
        ]
        assert [rec["event"] for rec in lines] == [
            tm.SWEEP_STARTED, tm.JOB_FINISHED, tm.SWEEP_FINISHED,
        ]
        assert lines[1]["job"] == "gzip/adaptive"
        assert lines[1]["wall_s"] == 1.25
        assert all("timestamp" in rec for rec in lines)

    def test_reopening_truncates(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        first = tm.JsonlEventLog(path)
        first(tm.TelemetryEvent(kind=tm.SWEEP_STARTED, timestamp=0.0))
        # a new sweep starts a fresh log; truncation is lazy (no file
        # I/O in the constructor), so it lands with the first event
        second = tm.JsonlEventLog(path)
        assert open(path).read() != ""  # untouched until an event arrives
        second(tm.TelemetryEvent(kind=tm.SWEEP_FINISHED, timestamp=1.0))
        lines = [json.loads(l) for l in open(path).read().splitlines()]
        assert [rec["event"] for rec in lines] == [tm.SWEEP_FINISHED]


class TestProgressReporter:
    def test_reports_terminal_events_only(self):
        stream = io.StringIO()
        t = tm.RunTelemetry()
        t.add_listener(tm.ProgressReporter(stream=stream))
        t.emit(tm.SWEEP_STARTED, total_jobs=2)
        t.emit(tm.JOB_STARTED, "gzip/adaptive")
        t.emit(tm.JOB_FINISHED, "gzip/adaptive", wall_s=0.75)
        t.emit(tm.JOB_CACHE_HIT, "swim/pid")
        out = stream.getvalue()
        assert "[1/2] gzip/adaptive: 0.75s" in out
        assert "[2/2] swim/pid: cached" in out

    def test_reports_failures(self):
        stream = io.StringIO()
        reporter = tm.ProgressReporter(stream=stream)
        reporter(
            tm.TelemetryEvent(
                kind=tm.SWEEP_STARTED, timestamp=0.0, data={"total_jobs": 1}
            )
        )
        reporter(
            tm.TelemetryEvent(
                kind=tm.JOB_FAILED, timestamp=0.0,
                job_id="mcf/pid", data={"error": "RuntimeError: boom"},
            )
        )
        assert "[1/1] mcf/pid: FAILED: RuntimeError: boom" in stream.getvalue()

"""Trace recorder: ring retention and the JSONL/Chrome writers."""

from __future__ import annotations

import json

import pytest

from repro.obs import TraceRecorder, chrome_trace_events
from repro.obs.schema import validate_chrome_file, validate_jsonl_file


def _sample_event(t_ns: float, domain: str = "int", occ: int = 3):
    return {
        "kind": "sample", "t_ns": t_ns, "domain": domain, "occupancy": occ,
        "freq_ghz": 0.8, "voltage": 0.9, "energy": 1.25,
    }


class TestRingRetention:
    def test_keeps_most_recent(self):
        recorder = TraceRecorder(ring_size=3)
        for i in range(5):
            recorder.record(_sample_event(float(i)))
        assert recorder.recorded == 5
        assert recorder.dropped == 2
        assert [e["t_ns"] for e in recorder.events()] == [2.0, 3.0, 4.0]
        assert recorder.summary() == {
            "recorded": 5, "retained": 3, "dropped": 2, "ring_size": 3,
        }

    def test_rejects_nonpositive_ring(self):
        with pytest.raises(ValueError):
            TraceRecorder(ring_size=0)


class TestWriters:
    def test_jsonl_round_trip(self, tmp_path):
        recorder = TraceRecorder()
        events = [_sample_event(4.0 * i) for i in range(4)]
        for event in events:
            recorder.record(event)
        path = recorder.write_jsonl(str(tmp_path / "metrics.jsonl"))
        lines = [json.loads(line) for line in open(path)]
        assert lines == events
        assert validate_jsonl_file(path) == []

    def test_chrome_file_is_loadable_and_valid(self, tmp_path):
        recorder = TraceRecorder()
        recorder.record(_sample_event(8.0))
        recorder.record({
            "kind": "fsm_transition", "t_ns": 12.0, "domain": "fp",
            "signal": "level", "from_state": "wait", "to_state": "count_up",
            "dwell_samples": 1, "trigger": 0,
        })
        path = recorder.write_chrome(str(tmp_path / "trace.json"))
        payload = json.load(open(path))
        assert payload["displayTimeUnit"] == "ns"
        assert payload["otherData"]["dropped"] == 0
        assert validate_chrome_file(path) == []


class TestChromeConversion:
    def test_sample_becomes_two_counter_series(self):
        events = chrome_trace_events([_sample_event(4.0, "ls", occ=5)])
        counters = [e for e in events if e["ph"] == "C"]
        assert {e["name"] for e in counters} == {
            "occupancy/ls", "frequency/ls",
        }
        occ = next(e for e in counters if e["name"] == "occupancy/ls")
        assert occ["ts"] == pytest.approx(0.004)  # ns -> us
        assert occ["args"]["entries"] == 5
        assert occ["tid"] == 3  # the LS track

    def test_freq_step_is_duration_slice(self):
        events = chrome_trace_events([{
            "kind": "freq_step", "t_ns": 100.0, "domain": "int", "steps": -2,
            "target_ghz": 0.7, "freq_ghz": 0.705, "applied": True,
            "slew_ns": 343.0,
        }])
        slice_ = next(e for e in events if e["ph"] == "X")
        assert slice_["name"] == "step -2"
        assert slice_["dur"] == pytest.approx(0.343)
        assert slice_["args"]["applied"] is True

    def test_metadata_names_only_used_tracks(self):
        events = chrome_trace_events([_sample_event(4.0, "int")])
        thread_names = [
            e for e in events if e.get("name") == "thread_name"
        ]
        assert [e["tid"] for e in thread_names] == [1]
        assert thread_names[0]["args"]["name"] == "INT domain"

    def test_unknown_kind_skipped(self):
        events = chrome_trace_events([{"kind": "wat", "t_ns": 1.0}])
        assert [e["ph"] for e in events] == ["M"]  # just process_name

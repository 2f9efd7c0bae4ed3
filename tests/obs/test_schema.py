"""Schema validators: accept the real stream, reject malformed events."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import repro
from repro.obs.schema import main as schema_main
from repro.obs.schema import validate_chrome_event, validate_event


GOOD_SAMPLE = {
    "kind": "sample", "t_ns": 4.0, "domain": "int", "occupancy": 3,
    "freq_ghz": 1.0, "voltage": 1.05, "energy": 2.5,
}


class TestEventValidator:
    def test_valid_events_of_every_kind(self):
        events = [
            GOOD_SAMPLE,
            {"kind": "fsm_transition", "t_ns": 8.0, "domain": "fp",
             "signal": "level", "from_state": "wait", "to_state": "count_up",
             "dwell_samples": 0, "trigger": 0},
            {"kind": "reconcile", "t_ns": 8.0, "domain": "ls",
             "level_trigger": 1, "slope_trigger": 1, "outcome": "combine",
             "steps": 2},
            {"kind": "freq_step", "t_ns": 8.0, "domain": "int", "steps": -1,
             "target_ghz": 0.9, "freq_ghz": 0.902, "applied": True},
            {"kind": "interval_decision", "t_ns": 10_000.0, "domain": "int",
             "controller": "pid", "q_avg": 3.5},
            {"kind": "profile", "t_ns": 99.0, "phase": "observe",
             "wall_s": 0.25, "calls": 1000},
        ]
        for event in events:
            assert validate_event(event) == [], event["kind"]

    def test_unknown_kind_rejected(self):
        assert validate_event({"kind": "nope", "t_ns": 1.0})

    def test_missing_field_rejected(self):
        event = dict(GOOD_SAMPLE)
        del event["voltage"]
        assert any("voltage" in p for p in validate_event(event))

    def test_bool_is_not_an_int(self):
        event = dict(GOOD_SAMPLE, occupancy=True)
        assert any("bool" in p for p in validate_event(event))

    def test_negative_timestamp_rejected(self):
        assert validate_event(dict(GOOD_SAMPLE, t_ns=-1.0))

    def test_value_constraints(self):
        bad_state = {
            "kind": "fsm_transition", "t_ns": 1.0, "domain": "int",
            "signal": "level", "from_state": "waiting", "to_state": "wait",
            "dwell_samples": 1, "trigger": 0,
        }
        assert any("from_state" in p for p in validate_event(bad_state))
        bad_outcome = {
            "kind": "reconcile", "t_ns": 1.0, "domain": "int",
            "level_trigger": 1, "slope_trigger": 0, "outcome": "merged",
            "steps": 1,
        }
        assert any("outcome" in p for p in validate_event(bad_outcome))

    def test_extra_fields_allowed(self):
        assert validate_event(dict(GOOD_SAMPLE, custom="note")) == []


class TestChromeValidator:
    GOOD = {"name": "x", "ph": "i", "s": "t", "ts": 1.0, "pid": 1, "tid": 0}

    def test_valid(self):
        assert validate_chrome_event(self.GOOD) == []

    def test_bad_phase(self):
        assert validate_chrome_event(dict(self.GOOD, ph="B"))

    def test_complete_event_needs_duration(self):
        assert validate_chrome_event(dict(self.GOOD, ph="X"))
        assert validate_chrome_event(dict(self.GOOD, ph="X", dur=0.5)) == []

    def test_counter_needs_args(self):
        assert validate_chrome_event(dict(self.GOOD, ph="C"))
        assert validate_chrome_event(
            dict(self.GOOD, ph="C", args={"v": 1})
        ) == []


class TestCliValidator:
    def test_exit_codes(self, tmp_path, capsys):
        good = tmp_path / "good.jsonl"
        good.write_text(json.dumps(GOOD_SAMPLE) + "\n")
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({"kind": "nope", "t_ns": 0}) + "\n")
        assert schema_main([str(good)]) == 0
        assert schema_main([str(good), str(bad)]) == 1
        assert schema_main([]) == 2
        capsys.readouterr()

    def test_module_entry_point_runs_without_warnings(self, tmp_path):
        """``python -m repro.obs.schema`` must not find the module already
        imported by its package (runpy's RuntimeWarning), so it stays
        clean under ``-W error``."""
        good = tmp_path / "good.jsonl"
        good.write_text(json.dumps(GOOD_SAMPLE) + "\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning",
             "-m", "repro.obs.schema", str(good)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "ok: 1 file(s) valid" in proc.stdout

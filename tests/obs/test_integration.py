"""End-to-end observability: simulator, artifacts, persistence, engine."""

from __future__ import annotations

import json

import pytest

from repro.harness.experiment import run_experiment
from repro.harness.persistence import result_from_dict, result_to_dict
from repro.mcd.domains import DomainId
from repro.obs import ObsConfig, Observability
from repro.obs.schema import validate_chrome_file, validate_jsonl_file


@pytest.fixture(scope="module")
def observed_run():
    """One small adaptive run with full observability, shared read-only."""
    obs = Observability(ObsConfig())
    result = run_experiment(
        "adpcm-encode",
        scheme="adaptive",
        max_instructions=3000,
        record_history=False,
        obs=obs,
    )
    return obs, result


class TestStepEventsAlwaysRecorded:
    """Satellite fix: step decisions survive ``record_history=False``."""

    def test_step_events_without_history_or_obs(self):
        result = run_experiment(
            "adpcm-encode",
            scheme="adaptive",
            max_instructions=3000,
            record_history=False,
        )
        assert result.history.time_ns == []  # history really is off
        assert result.probe_summary is None  # obs really is off
        assert len(result.step_events) > 0
        # and they agree with the regulators' own transition counts
        by_domain = {}
        for event in result.step_events:
            if event.applied:
                by_domain[event.domain] = by_domain.get(event.domain, 0) + 1
        assert by_domain == {
            d: n for d, n in result.transitions.items() if n
        }

    def test_step_event_fields(self):
        result = run_experiment(
            "adpcm-encode", scheme="adaptive", max_instructions=3000,
            record_history=False,
        )
        event = result.step_events[0]
        assert event.domain in (DomainId.INT, DomainId.FP, DomainId.LS)
        assert event.steps != 0  # adaptive commands are relative steps
        assert event.time_ns > 0
        assert event.target_ghz > 0
        assert event.freq_ghz > 0

    def test_absolute_target_schemes_record_steps_zero(self):
        result = run_experiment(
            "g721-encode", scheme="pid", max_instructions=20_000,
            record_history=False,
        )
        assert result.step_events  # PID issued at least one retarget
        assert all(e.steps == 0 for e in result.step_events)


class TestObservedRun:
    def test_identical_simulation_with_obs_on(self, observed_run):
        _, observed = observed_run
        plain = run_experiment(
            "adpcm-encode", scheme="adaptive", max_instructions=3000,
            record_history=False,
        )
        assert observed.time_ns == plain.time_ns
        assert observed.energy.total == plain.energy.total
        assert observed.instructions == plain.instructions

    def test_probe_summary_contents(self, observed_run):
        _, result = observed_run
        summary = result.probe_summary
        counters = summary["counters"]
        assert counters["samples"] > 0
        assert counters["events.sample"] == 3 * counters["samples"]
        assert any(k.startswith("fsm_transitions.") for k in counters)
        assert any(k.startswith("freq_steps.") for k in counters)
        for domain in ("int", "fp", "ls"):
            assert f"occupancy.{domain}" in summary["gauges"]
            assert summary["histograms"][f"occupancy.{domain}"]["count"] > 0
        profile = summary["profile"]
        assert profile["samples"] == counters["samples"]
        assert profile["samples_per_s"] > 0
        assert set(profile["phases"]) >= {"latch", "observe", "slew", "record"}
        json.dumps(summary)  # the whole summary must be JSON-clean

    def test_trace_artifacts_validate_and_cover_all_kinds(
        self, observed_run, tmp_path
    ):
        obs, _ = observed_run
        jsonl = str(tmp_path / "metrics.jsonl")
        chrome = str(tmp_path / "trace.chrome.json")
        obs.write_trace_files(jsonl, chrome)
        assert validate_jsonl_file(jsonl) == []
        assert validate_chrome_file(chrome) == []

        events = [json.loads(line) for line in open(jsonl)]
        kinds = {e["kind"] for e in events}
        assert {"sample", "fsm_transition", "reconcile", "freq_step",
                "profile"} <= kinds
        sample_domains = {
            e["domain"] for e in events if e["kind"] == "sample"
        }
        assert sample_domains == {"int", "fp", "ls"}

        chrome_events = json.load(open(chrome))["traceEvents"]
        names = {e["name"] for e in chrome_events}
        assert {"occupancy/int", "frequency/ls"} <= names
        assert any(e["ph"] == "X" for e in chrome_events)  # freq steps

    def test_obs_argument_forms(self):
        kwargs = dict(
            scheme="adaptive", max_instructions=2000, record_history=False
        )
        assert run_experiment("adpcm-encode", obs=True, **kwargs).probe_summary
        assert run_experiment(
            "adpcm-encode", obs=ObsConfig(trace=False, profile=False), **kwargs
        ).probe_summary is not None
        with pytest.raises(TypeError):
            run_experiment("adpcm-encode", obs="yes", **kwargs)

    def test_sample_stride_thins_sample_events_only(self):
        r1 = run_experiment(
            "adpcm-encode", scheme="adaptive", max_instructions=2000,
            record_history=False, obs=ObsConfig(sample_stride=1),
        )
        r4 = run_experiment(
            "adpcm-encode", scheme="adaptive", max_instructions=2000,
            record_history=False, obs=ObsConfig(sample_stride=4),
        )
        c1, c4 = r1.probe_summary["counters"], r4.probe_summary["counters"]
        assert c4["events.sample"] < c1["events.sample"]
        # decision events are never strided
        assert c4["events.freq_step"] == c1["events.freq_step"]
        assert c4["events.fsm_transition"] == c1["events.fsm_transition"]


class TestPersistenceRoundTrip:
    def test_new_fields_survive(self, observed_run):
        _, result = observed_run
        data = result_to_dict(result)
        json.dumps(data)
        rebuilt = result_from_dict(data)
        assert rebuilt.step_events == result.step_events
        assert rebuilt.probe_summary == result.probe_summary

    def test_old_payloads_still_load(self, observed_run):
        _, result = observed_run
        data = result_to_dict(result)
        del data["step_events"]  # a file written before this PR
        data.pop("probe_summary", None)
        rebuilt = result_from_dict(data)
        assert rebuilt.step_events == []
        assert rebuilt.probe_summary is None


class TestEngineIntegration:
    def test_sweep_aggregates_probe_summaries(self, tmp_path):
        from repro.engine import EngineConfig, SweepEngine
        from repro.harness.comparison import sweep

        engine = SweepEngine(EngineConfig(cache_dir=str(tmp_path / "cache")))
        sweep(
            ["adpcm-encode"], schemes=("adaptive",),
            max_instructions=2000, engine=engine, obs=True,
        )
        summary = engine.telemetry.summary()
        assert summary["obs"]["observed_jobs"] == 2  # baseline + adaptive
        assert summary["obs"]["samples"] > 0
        assert summary["obs"]["samples_per_s"] > 0

        # cache hits must re-surface the stored probe summaries
        engine2 = SweepEngine(EngineConfig(cache_dir=str(tmp_path / "cache")))
        sweep(
            ["adpcm-encode"], schemes=("adaptive",),
            max_instructions=2000, engine=engine2, obs=True,
        )
        summary2 = engine2.telemetry.summary()
        assert summary2["cache_hits"] == 2
        assert summary2["obs"]["observed_jobs"] == 2
        assert summary2["obs"]["events"] == summary["obs"]["events"]

    def test_sweep_without_obs_has_no_obs_key(self, tmp_path):
        from repro.engine import SweepEngine
        from repro.harness.comparison import sweep

        engine = SweepEngine()
        sweep(
            ["adpcm-encode"], schemes=("adaptive",),
            max_instructions=2000, engine=engine,
        )
        assert "obs" not in engine.telemetry.summary()

    def test_engine_path_rejects_live_observability(self):
        from repro.engine import SweepEngine
        from repro.harness.comparison import sweep

        with pytest.raises(ValueError):
            sweep(
                ["adpcm-encode"], schemes=("adaptive",),
                max_instructions=2000, engine=SweepEngine(),
                obs=Observability(),
            )

    def test_obs_config_is_part_of_the_cache_key(self):
        from repro.engine.cache import job_cache_key
        from repro.engine.jobs import SweepJob

        bare = SweepJob.make("adpcm-encode", max_instructions=2000)
        observed = SweepJob.make(
            "adpcm-encode", max_instructions=2000, obs=ObsConfig()
        )
        assert job_cache_key(bare) != job_cache_key(observed)


class TestCliTrace:
    def test_trace_subcommand_writes_valid_artifacts(self, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path / "trace")
        code = main([
            "trace", "adpcm-encode", "--instructions", "2000",
            "--out", out, "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["validation_errors"] == []
        assert validate_jsonl_file(payload["files"]["jsonl"]) == []
        assert validate_chrome_file(payload["files"]["chrome"]) == []
        assert payload["probe_summary"]["counters"]["samples"] > 0

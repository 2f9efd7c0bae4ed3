"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "gzip"])
        assert args.scheme == "adaptive"
        assert args.instructions == 60_000

    def test_run_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "doom"])

    def test_compare_rejects_full_speed(self):
        """full-speed is the implicit baseline, not a comparable scheme."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "gzip", "--schemes", "full-speed"])

    @pytest.mark.parametrize("argv", [
        ["run", "gzip"], ["sweep", "gzip"], ["serve"],
    ])
    def test_retired_batch_core_exits_2_listing_cores(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--simcore", "batch"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'batch'" in err
        assert "ref" in err and "fast" in err

    @pytest.mark.parametrize("command", ["run", "compare", "sweep", "trace"])
    @pytest.mark.parametrize("size", ["0", "-5"])
    def test_non_positive_instructions_exit_2(self, command, size, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "adpcm-encode", "--instructions", size])
        assert excinfo.value.code == 2
        assert "--instructions: must be positive" in capsys.readouterr().err


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "epic-decode" in out
        assert "fast" in out and "steady" in out

    def test_run(self, capsys):
        assert main(["run", "adpcm-encode", "--instructions", "3000"]) == 0
        out = capsys.readouterr().out
        assert "instructions retired" in out
        assert "mean f (fp )" in out or "mean f (fp" in out

    def test_compare(self, capsys):
        assert main(
            ["compare", "adpcm-encode", "--schemes", "adaptive",
             "--instructions", "3000"]
        ) == 0
        out = capsys.readouterr().out
        assert "energy savings" in out

    def test_analyze(self, capsys):
        assert main(["analyze"]) == 0
        out = capsys.readouterr().out
        assert "STABLE" in out
        assert "xi=" in out

    def test_analyze_custom_delays(self, capsys):
        assert main(["analyze", "--t-m0", "16", "--t-l0", "8"]) == 0
        assert "STABLE" in capsys.readouterr().out


class TestJsonAndSeedOptions:
    def test_run_json(self, capsys):
        import json

        assert main(
            ["run", "adpcm-encode", "--instructions", "2000", "--json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["benchmark"] == "adpcm-encode"
        assert data["scheme"] == "adaptive"
        assert data["time_ns"] > 0
        assert set(data["energy"]["by_domain"]) >= {"int", "fp", "ls"}

    def test_run_seed_is_reproducible(self, capsys):
        import json

        argv = ["run", "adpcm-encode", "--instructions", "2000",
                "--seed", "42", "--json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second

    def test_compare_json(self, capsys):
        import json

        assert main(
            ["compare", "adpcm-encode", "--schemes", "adaptive",
             "--instructions", "2000", "--seed", "7", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["benchmark"] == "adpcm-encode"
        (scheme,) = payload[0]["schemes"]
        assert scheme["scheme"] == "adaptive"
        assert "energy_savings_pct" in scheme


class TestSweepCommand:
    def test_sweep_end_to_end_with_cache_and_events(self, capsys, tmp_path):
        import json

        cache_dir = str(tmp_path / "cache")
        events = str(tmp_path / "events.jsonl")
        argv = [
            "sweep", "adpcm-encode", "gzip",
            "--schemes", "adaptive", "pid",
            "--instructions", "2000", "--jobs", "2",
            "--cache-dir", cache_dir, "--events", events,
            "--no-progress", "--json",
        ]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        # 2 benchmarks x (baseline + 2 schemes) = 6 jobs, all simulated
        assert first["telemetry"]["jobs_run"] == 6
        assert first["telemetry"]["cache_hits"] == 0
        assert first["telemetry"]["failures"] == 0
        assert {b["benchmark"] for b in first["benchmarks"]} == {
            "adpcm-encode", "gzip",
        }
        assert set(first["aggregate"]) == {"adaptive", "pid"}

        # second invocation: every job served from the cache
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["telemetry"]["jobs_run"] == 0
        assert second["telemetry"]["cache_hits"] == 6
        assert second["benchmarks"] == first["benchmarks"]

        events_seen = [
            json.loads(line)["event"]
            for line in open(events).read().splitlines()
        ]
        assert events_seen[0] == "sweep_started"
        assert events_seen[-1] == "sweep_finished"
        assert events_seen.count("job_cache_hit") == 6

    def test_sweep_table_output(self, capsys):
        assert main(
            ["sweep", "adpcm-encode", "--schemes", "adaptive",
             "--instructions", "2000", "--no-progress"]
        ) == 0
        out = capsys.readouterr().out
        assert "Sweep vs full-speed baseline" in out
        assert "Mean over 1 benchmarks" in out
        assert "core): 2 simulated" in out

    def test_sweep_rejects_unknown_benchmark(self, capsys):
        assert main(["sweep", "doom"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_run_rejects_bad_simcore_env(self, capsys, monkeypatch):
        for name in ("turbo", "batch"):
            monkeypatch.setenv("REPRO_SIMCORE", name)
            assert main(["run", "adpcm-encode", "--instructions", "2000"]) == 2
            assert f"unknown simcore '{name}'" in capsys.readouterr().err

    def test_sweep_rejects_bad_simcore_env(self, capsys, monkeypatch):
        for name in ("turbo", "batch"):
            monkeypatch.setenv("REPRO_SIMCORE", name)
            assert main(["sweep", "adpcm-encode"]) == 2
            assert f"unknown simcore '{name}'" in capsys.readouterr().err


class TestSimcoreEcho:
    """run/sweep --json echo the *resolved* core: arg > env > default."""

    _RUN = ["run", "adpcm-encode", "--instructions", "1500", "--json"]

    def _run_core(self, capsys, extra=()):
        import json

        assert main(self._RUN + list(extra)) == 0
        return json.loads(capsys.readouterr().out)["simcore"]

    def test_run_json_echoes_default(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_SIMCORE", raising=False)
        assert self._run_core(capsys) == "fast"

    def test_run_json_echoes_env(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SIMCORE", "ref")
        assert self._run_core(capsys) == "ref"

    def test_run_json_arg_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SIMCORE", "ref")
        assert self._run_core(capsys, ["--simcore", "fast"]) == "fast"

    def test_sweep_json_echoes_ref(self, capsys, monkeypatch):
        import json

        monkeypatch.delenv("REPRO_SIMCORE", raising=False)
        assert main(
            ["sweep", "adpcm-encode", "--schemes", "adaptive",
             "--instructions", "1500", "--seed", "3", "--no-progress",
             "--simcore", "ref", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["simcore"] == "ref"

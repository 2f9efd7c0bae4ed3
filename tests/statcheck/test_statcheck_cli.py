"""CLI tests: exit-code contract, formats, and repro-dvfs integration."""

import json
import os

import pytest

import repro.cli as repro_cli
from repro.statcheck import cli as statcheck_cli
from repro.statcheck.cli import EXIT_CLEAN, EXIT_ERROR, EXIT_FINDINGS, main


@pytest.fixture
def clean_tree(tmp_path):
    (tmp_path / "ok.py").write_text("VALUE = 1\n", encoding="utf-8")
    return str(tmp_path)


@pytest.fixture
def dirty_tree(tmp_path):
    (tmp_path / "bad.py").write_text(
        "def f(job):\n"
        "    try:\n"
        "        return job()\n"
        "    except:\n"
        "        return None\n",
        encoding="utf-8",
    )
    return str(tmp_path)


class TestExitCodes:
    def test_clean_tree_exits_zero(self, clean_tree, capsys):
        assert main([clean_tree]) == EXIT_CLEAN
        assert "0 findings" in capsys.readouterr().out

    def test_findings_exit_one(self, dirty_tree, capsys):
        assert main([dirty_tree]) == EXIT_FINDINGS
        assert "PY002" in capsys.readouterr().out

    def test_missing_path_is_usage_error(self, capsys):
        assert main(["/no/such/path-xyz"]) == EXIT_ERROR
        assert "statcheck" in capsys.readouterr().err

    def test_unknown_rule_is_usage_error(self, clean_tree, capsys):
        assert main([clean_tree, "--select", "NOPE999"]) == EXIT_ERROR
        assert "NOPE999" in capsys.readouterr().err

    @pytest.mark.parametrize("selection", ["", ",", " , "])
    def test_empty_select_is_usage_error(self, clean_tree, capsys, selection):
        """A selection naming no rule would check nothing and pass."""
        assert main([clean_tree, "--select", selection]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert "names no rule" in captured.err
        assert "0 findings" not in captured.out

    def test_broken_pipe_is_quiet(self, clean_tree, capfd, monkeypatch):
        """`check ... | head` must not dump a traceback when head exits."""

        def raise_epipe(*args, **kwargs):
            raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(statcheck_cli.Analyzer, "analyze_paths", raise_epipe)
        monkeypatch.setattr(
            statcheck_cli.IncrementalAnalyzer, "analyze_paths", raise_epipe
        )
        assert main([clean_tree]) == EXIT_ERROR
        err = capfd.readouterr().err
        assert "Traceback" not in err
        assert "internal error" not in err

    def test_analyzer_crash_exits_two(self, clean_tree, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("synthetic crash")

        monkeypatch.setattr(statcheck_cli.Analyzer, "analyze", boom)
        monkeypatch.setattr(
            statcheck_cli.IncrementalAnalyzer, "analyze_paths", boom
        )
        assert main([clean_tree]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "internal error" in err
        assert "synthetic crash" in err


class TestFormatsAndListing:
    def test_json_format(self, dirty_tree, capsys):
        assert main([dirty_tree, "--format", "json"]) == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["rule"] == "PY002"

    def test_sarif_format(self, clean_tree, capsys):
        assert main([clean_tree, "--format", "sarif"]) == EXIT_CLEAN
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for rule_id in (
            "DET001", "DET002", "DET003", "CTL001",
            "POOL001", "OBS001", "PY002",
        ):
            assert rule_id in out

    def test_select_and_ignore(self, dirty_tree, capsys):
        assert main([dirty_tree, "--ignore", "PY002"]) == EXIT_CLEAN
        assert main([dirty_tree, "--select", "OBS001"]) == EXIT_CLEAN


class TestReproDvfsSubcommand:
    def test_check_subcommand_clean(self, clean_tree, capsys):
        assert repro_cli.main(["check", clean_tree]) == EXIT_CLEAN
        assert "0 findings" in capsys.readouterr().out

    def test_check_subcommand_findings(self, dirty_tree):
        assert repro_cli.main(["check", dirty_tree]) == EXIT_FINDINGS

    def test_check_subcommand_json(self, dirty_tree, capsys):
        code = repro_cli.main(["check", dirty_tree, "--format", "json"])
        assert code == EXIT_FINDINGS
        assert json.loads(capsys.readouterr().out)["findings"]


class TestModuleEntryPoint:
    def test_python_m_invocation(self, clean_tree):
        import subprocess
        import sys

        env = dict(os.environ)
        src = os.path.join(os.path.dirname(repro_cli.__file__), os.pardir)
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.statcheck", clean_tree],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == EXIT_CLEAN
        assert "0 findings" in proc.stdout


class TestSuppressionJustification:
    """A pragma without a ``-- reason`` is itself a finding (SUP001)."""

    def _check(self, tmp_path, pragma, capsys):
        src = tmp_path / "src"
        src.mkdir()
        (src / "mod.py").write_text(
            "def f(job):\n"
            "    try:\n"
            "        return job()\n"
            f"    except:  {pragma}\n"
            "        return None\n",
            encoding="utf-8",
        )
        code = main(["--no-incremental", str(src)])
        return code, capsys.readouterr()

    def test_bare_suppression_fails(self, tmp_path, capsys):
        code, captured = self._check(
            tmp_path, "# statcheck: disable=PY002", capsys
        )
        assert code == EXIT_FINDINGS
        assert "SUP001" in captured.out

    def test_justified_suppression_passes(self, tmp_path, capsys):
        code, _ = self._check(
            tmp_path,
            "# statcheck: disable=PY002 -- caller retries on None",
            capsys,
        )
        assert code == EXIT_CLEAN


class TestStatsFlag:
    def test_stats_goes_to_stderr_not_stdout(self, clean_tree, capsys, tmp_path):
        cache = str(tmp_path / "cache.json")
        code = main([clean_tree, "--stats", "--cache-file", cache])
        assert code == EXIT_CLEAN
        out, err = capsys.readouterr()
        assert "statcheck stats:" in err
        assert "statcheck stats:" not in out
        assert "files=1" in err
        assert "wall_s=" in err

    def test_stats_reports_warm_cache_ratio(self, clean_tree, capsys, tmp_path):
        cache = str(tmp_path / "cache.json")
        main([clean_tree, "--stats", "--cache-file", cache])
        capsys.readouterr()
        main([clean_tree, "--stats", "--cache-file", cache])
        assert "cache_hit_ratio=100%" in capsys.readouterr().err

    def test_stats_counts_findings_per_rule(self, dirty_tree, capsys):
        code = main([dirty_tree, "--stats", "--no-incremental"])
        assert code == EXIT_FINDINGS
        assert "findings=PY002:1" in capsys.readouterr().err

    def test_stats_keeps_json_stdout_pure(self, dirty_tree, capsys):
        main([dirty_tree, "--stats", "--json", "--no-incremental"])
        out, err = capsys.readouterr()
        assert json.loads(out)["findings"]
        assert "statcheck stats:" in err

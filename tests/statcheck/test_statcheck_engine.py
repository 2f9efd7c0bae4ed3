"""Engine-level tests: suppressions, scoping, parse errors, rule selection."""

import pytest

from conftest import IN_SCOPE, load_fixture

from repro.statcheck import Analyzer, SourceFile
from repro.statcheck.engine import PARSE_ERROR_RULE


def analyze(files, **kwargs):
    return Analyzer(**kwargs).analyze(files)


class TestSuppressions:
    def test_line_pragma_suppresses_exact_line(self):
        report = analyze([load_fixture("suppressed.py")])
        assert report.findings == []
        assert report.suppressed == 3

    def test_pragma_on_wrong_line_does_not_suppress(self):
        source = (
            "import time\n"
            "# statcheck: disable=DET002 -- meant for the next line\n"
            "def f():\n"
            "    return time.time()\n"
        )
        report = analyze(
            [SourceFile.from_source(source, path="x.py", module=IN_SCOPE)]
        )
        assert [f.rule for f in report.findings] == ["DET002"]
        assert report.suppressed == 0

    def test_file_pragma_suppresses_whole_file(self):
        source = (
            "# statcheck: disable-file=DET002 -- timing helpers only\n"
            "import time\n"
            "def f():\n"
            "    return time.time() + time.monotonic()\n"
        )
        report = analyze(
            [SourceFile.from_source(source, path="x.py", module=IN_SCOPE)]
        )
        assert report.findings == []
        assert report.suppressed == 2

    def test_pragma_inside_string_literal_is_ignored(self):
        source = (
            "import time\n"
            "def f():\n"
            '    note = "# statcheck: disable=DET002"\n'
            "    return time.time(), note\n"
        )
        report = analyze(
            [SourceFile.from_source(source, path="x.py", module=IN_SCOPE)]
        )
        assert [f.rule for f in report.findings] == ["DET002"]

    def test_disable_all_wildcard(self):
        source = (
            "import time\n"
            "def f():\n"
            "    return time.time()  # statcheck: disable=all -- timing only\n"
        )
        report = analyze(
            [SourceFile.from_source(source, path="x.py", module=IN_SCOPE)]
        )
        assert report.findings == []
        assert report.suppressed == 1


class TestParseErrors:
    def test_syntax_error_yields_e001(self):
        bad = SourceFile.from_source("def f(:\n", path="bad.py")
        report = analyze([bad])
        assert [f.rule for f in report.findings] == [PARSE_ERROR_RULE]
        assert not report.ok

    def test_parse_error_does_not_abort_other_files(self):
        bad = SourceFile.from_source("def f(:\n", path="bad.py")
        good = SourceFile.from_source(
            "import time\ndef f():\n    return time.time()\n",
            path="good.py",
            module=IN_SCOPE,
        )
        report = analyze([bad, good])
        assert sorted(f.rule for f in report.findings) == [
            "DET002",
            PARSE_ERROR_RULE,
        ]


class TestRuleSelection:
    def test_select_runs_only_named_rules(self):
        report = analyze([load_fixture("py002_fires.py")], select=["DET002"])
        assert report.findings == []
        assert report.rules == ["DET002"]

    def test_ignore_removes_named_rules(self):
        report = analyze([load_fixture("py002_fires.py")], ignore=["PY002"])
        assert "PY002" not in report.rules
        assert report.findings == []

    @pytest.mark.parametrize("kwargs", [
        {"select": ["NOPE999"]},
        {"ignore": ["NOPE999"]},
    ])
    def test_unknown_rule_id_raises(self, kwargs):
        with pytest.raises(ValueError, match="NOPE999"):
            Analyzer(**kwargs)


class TestReportShape:
    def test_findings_are_sorted_and_counted(self):
        report = analyze([
            load_fixture("py002_fires.py"),
            load_fixture("det002_fires.py"),
        ])
        assert report.files_scanned == 2
        keys = [f.sort_key for f in report.findings]
        assert keys == sorted(keys)
        assert report.ok is False

    def test_clean_report_is_ok(self):
        report = analyze([load_fixture("py002_clean.py")])
        assert report.ok is True
        assert report.findings == []

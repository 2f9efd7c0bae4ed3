"""Reporter tests: text, JSON, and SARIF output shapes."""

import json

from conftest import load_fixture

from repro.statcheck import Analyzer
from repro.statcheck.reporters import (
    RENDERERS,
    render_json,
    render_sarif,
    render_text,
)


def _report():
    return Analyzer(select=["DET002", "PY002"]).analyze(
        [load_fixture("det002_fires.py"), load_fixture("py002_fires.py")]
    )


def test_renderers_registry_is_complete():
    assert set(RENDERERS) == {"text", "json", "sarif"}


def test_text_lists_every_finding_with_location():
    report = _report()
    out = render_text(report)
    lines = out.strip().splitlines()
    # one line per finding plus the trailing summary line
    assert len(lines) == len(report.findings) + 1
    for finding in report.findings:
        assert any(
            f":{finding.line}:" in line and finding.rule in line
            for line in lines
        )
    assert lines[-1].startswith("statcheck: ")
    assert f"{len(report.findings)} findings" in lines[-1]


def test_json_round_trips_findings():
    report = _report()
    payload = json.loads(render_json(report))
    assert payload["files_scanned"] == 2
    assert payload["rules"] == ["DET002", "PY002"]
    assert len(payload["findings"]) == len(report.findings)
    first = payload["findings"][0]
    assert set(first) == {
        "rule", "severity", "path", "line", "col", "message",
    }


def test_sarif_is_valid_2_1_0_shape():
    report = _report()
    doc = json.loads(render_sarif(report))
    assert doc["version"] == "2.1.0"
    (run,) = doc["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "statcheck"
    rule_ids = {r["id"] for r in driver["rules"]}
    results = run["results"]
    assert len(results) == len(report.findings)
    for result in results:
        assert result["ruleId"] in rule_ids
        assert result["level"] in {"error", "warning"}
        loc = result["locations"][0]["physicalLocation"]
        assert loc["region"]["startLine"] >= 1


def test_clean_report_renders_everywhere():
    report = Analyzer(select=["PY002"]).analyze(
        [load_fixture("py002_clean.py")]
    )
    assert "0 findings" in render_text(report)
    assert json.loads(render_json(report))["findings"] == []
    assert json.loads(render_sarif(report))["runs"][0]["results"] == []


def test_sarif_columns_are_one_based_pinned_document():
    """Regression pin: AST columns are 0-based, SARIF columns are 1-based.

    A finding at col 0 must serialize as startColumn 1; this test pins the
    whole region object so an accidental revert to 0-based columns (or a
    silent region reshape) fails loudly.
    """
    from repro.statcheck.engine import AnalysisReport
    from repro.statcheck.findings import Finding, Severity

    report = AnalysisReport(
        findings=[
            Finding(
                rule="PY002",
                path="src/repro/core/mod.py",
                line=12,
                col=0,
                message="bare except",
                severity=Severity.ERROR,
            ),
            Finding(
                rule="DET002",
                path="src/repro/core/mod.py",
                line=30,
                col=4,
                message="wall-clock call in simulation code",
                severity=Severity.WARNING,
            ),
        ],
        files_scanned=1,
        rules=["DET002", "PY002"],
    )
    doc = json.loads(render_sarif(report))
    regions = [
        result["locations"][0]["physicalLocation"]["region"]
        for result in doc["runs"][0]["results"]
    ]
    assert regions == [
        {"startLine": 12, "startColumn": 1},
        {"startLine": 30, "startColumn": 5},
    ]

"""Render an :class:`~repro.statcheck.engine.AnalysisReport` for humans,
scripts (JSON), and code-scanning UIs (SARIF 2.1.0)."""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List

from repro.statcheck.engine import AnalysisReport
from repro.statcheck.findings import Severity
from repro.statcheck.registry import all_rules

TOOL_NAME = "statcheck"

_SARIF_LEVEL = {Severity.ERROR: "error", Severity.WARNING: "warning"}


def render_text(report: AnalysisReport) -> str:
    lines = [finding.format_text() for finding in report.findings]
    noun = "finding" if len(report.findings) == 1 else "findings"
    summary = (
        f"{TOOL_NAME}: {len(report.findings)} {noun} in "
        f"{report.files_scanned} file(s) "
        f"({len(report.rules)} rules, {report.suppressed} suppressed)"
    )
    if report.incremental is not None:
        summary += (
            f" [cache: {report.incremental.get('hits', 0)} hit(s), "
            f"{report.incremental.get('misses', 0)} miss(es)]"
        )
    lines.append(summary)
    return "\n".join(lines)


def render_json(report: AnalysisReport) -> str:
    payload: Dict[str, Any] = {
        "tool": TOOL_NAME,
        "files_scanned": report.files_scanned,
        "rules": report.rules,
        "suppressed": report.suppressed,
        "findings": [finding.to_dict() for finding in report.findings],
    }
    if report.incremental is not None:
        payload["incremental"] = report.incremental
    return json.dumps(payload, indent=2, sort_keys=True)


def render_sarif(report: AnalysisReport) -> str:
    descriptors: List[Dict[str, Any]] = [
        {
            "id": cls.id,
            "shortDescription": {"text": cls.description},
            "defaultConfiguration": {"level": _SARIF_LEVEL[cls.severity]},
        }
        for cls in all_rules()
        if cls.id in set(report.rules)
    ]
    results = [
        {
            "ruleId": finding.rule,
            "level": _SARIF_LEVEL[finding.severity],
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": finding.path},
                        "region": {
                            "startLine": finding.line,
                            "startColumn": finding.col + 1,
                        },
                    }
                }
            ],
        }
        for finding in report.findings
    ]
    payload = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {"name": TOOL_NAME, "rules": descriptors}
                },
                "results": results,
            }
        ],
    }
    return json.dumps(payload, indent=2)


RENDERERS: Dict[str, Callable[[AnalysisReport], str]] = {
    "text": render_text,
    "json": render_json,
    "sarif": render_sarif,
}

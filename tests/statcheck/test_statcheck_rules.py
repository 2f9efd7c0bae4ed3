"""Per-rule positive/negative tests over the fixture snippets.

Every rule must both fire on its positive fixture (at the expected
lines) and stay silent on its negative fixture -- the acceptance bar for
shipping a rule at all.
"""

import pytest

from conftest import IN_SCOPE, OUT_OF_SCOPE, findings_for

#: (rule, firing fixture, expected lines, clean fixture).  pytest names
#: each firing case ``lines<row index>``, so a new rule goes at the end.
RULE_CASES = [
    ("DET001", "det001_fires.py", [10, 14, 18, 22], "det001_clean.py"),
    ("DET002", "det002_fires.py", [9, 13, 17], "det002_clean.py"),
    ("DET003", "det003_fires.py", [8, 14], "det003_clean.py"),
    ("CTL001", "ctl001_fires.py", [5, 9, 11, 15], "ctl001_clean.py"),
    (
        "UNIT001",
        "unit001_fires.py",
        [10, 15, 20, 24, 29, 33, 37, 42],
        "unit001_clean.py",
    ),
    ("POOL001", "pool001_fires.py", [13, 14], "pool001_clean.py"),
    ("OBS001", "obs001_fires.py", [5, 15, 16], "obs001_clean.py"),
    ("MET001", "met001_fires.py", [11, 13, 16], "met001_clean.py"),
    ("PY002", "py002_fires.py", [8, 16, 23], "py002_clean.py"),
    ("ASYNC001", "async001_fires.py", [17, 22, 23, 24, 33], "async001_clean.py"),
    ("ASYNC002", "async002_fires.py", [7, 8, 12], "async002_clean.py"),
    ("ASYNC003", "async003_fires.py", [22, 27, 30, 33], "async003_clean.py"),
    ("LOCK001", "lock001_fires.py", [18, 19], "lock001_clean.py"),
]


@pytest.mark.parametrize(
    "rule_id,fixture,lines",
    [(rule, fires, lines) for rule, fires, lines, _ in RULE_CASES],
)
def test_rule_fires_at_expected_lines(rule_id, fixture, lines):
    findings = findings_for(fixture, rule_id)
    assert sorted(f.line for f in findings) == lines
    for finding in findings:
        assert finding.rule == rule_id
        assert finding.message


@pytest.mark.parametrize(
    "rule_id,fixture", [(rule, clean) for rule, _, _, clean in RULE_CASES]
)
def test_rule_is_silent_on_clean_fixture(rule_id, fixture):
    assert findings_for(fixture, rule_id) == []


#: PERF001 scopes to the simulator packages, not repro.core, so it gets
#: its own module path instead of the shared IN_SCOPE.
PERF_SCOPE_MODULE = "repro.simcore.fixture"


def test_perf001_fires_on_every_hot_loop_allocation():
    findings = findings_for(
        "perf001_fires.py", "PERF001", module=PERF_SCOPE_MODULE
    )
    assert sorted(f.line for f in findings) == [8, 9, 10, 11, 19, 20, 30, 31]
    messages = " | ".join(f.message for f in findings)
    for kind in ("dict literal", "list literal", "set literal",
                 "list comprehension", "dict comprehension",
                 "dict() call", "list() call", "set() call"):
        assert kind in messages, f"expected a {kind} finding"


def test_perf001_silent_on_clean_fixture():
    # covers: pre-loop setup allocations, non-hot functions, nested defs,
    # and the justified cold-branch suppression
    assert (
        findings_for("perf001_clean.py", "PERF001", module=PERF_SCOPE_MODULE)
        == []
    )


def test_perf001_scopes_to_simulator_packages():
    # repro.core is hot-rule territory for DET001 but not for PERF001
    assert findings_for("perf001_fires.py", "PERF001", module=IN_SCOPE) == []
    assert (
        findings_for("perf001_fires.py", "PERF001", module=OUT_OF_SCOPE) == []
    )
    assert findings_for(
        "perf001_fires.py", "PERF001", module="repro.mcd.fixture"
    )


@pytest.mark.parametrize("rule_id,fixture", [
    ("DET001", "det001_fires.py"),
    ("DET002", "det002_fires.py"),
    ("CTL001", "ctl001_fires.py"),
])
def test_scoped_rules_ignore_out_of_scope_modules(rule_id, fixture):
    """The same firing source produces nothing outside the rule's scope."""
    assert findings_for(fixture, rule_id, module=OUT_OF_SCOPE) == []


def test_unscoped_rules_apply_everywhere():
    assert findings_for("py002_fires.py", "PY002", module=OUT_OF_SCOPE)


def test_obs001_bidirectional_messages():
    findings = findings_for("obs001_fires.py", "OBS001")
    messages = " | ".join(f.message for f in findings)
    assert "orphan" in messages  # schema with no emitter
    assert "no schema registered" in messages  # emitter with no schema
    assert "string literal" in messages  # dynamic kind rejected


def test_obs001_inactive_without_a_schema_registry():
    """Scanning a subtree without EVENT_SCHEMAS must not false-positive."""
    findings = findings_for("py002_fires.py", "OBS001")
    assert findings == []


class TestSemanticRuleDetails:
    """Behaviours of the semantic rules beyond the fixture tables."""

    def test_unit001_fails_open_on_unknown_values(self):
        from repro.statcheck import Analyzer, SourceFile

        source = (
            "def f(samples, cfg):\n"
            "    x = samples[0]\n"
            "    y = cfg.whatever()\n"
            "    return x + y\n"
        )
        report = Analyzer(select=["UNIT001"]).analyze(
            [SourceFile.from_source(source, path="fx.py", module=IN_SCOPE)]
        )
        assert report.findings == []

    def test_unit001_out_of_scope_module_is_ignored(self):
        assert (
            findings_for("unit001_fires.py", "UNIT001", module=OUT_OF_SCOPE)
            == []
        )

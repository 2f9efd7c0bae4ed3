"""Shared helpers for the statcheck test suite."""

import os

import pytest

from repro.statcheck import Analyzer, SourceFile

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")

#: Virtual module path that puts a fixture inside every scoped rule's
#: scope (repro.core is covered by the determinism AND control scopes).
IN_SCOPE = "repro.core.fixture"
#: Virtual module path outside every scoped rule's scope.
OUT_OF_SCOPE = "fixtures.fixture"


def load_fixture(name, module=IN_SCOPE):
    """Parse one fixture file under a virtual module path."""
    path = os.path.join(FIXTURES, name)
    with open(path, encoding="utf-8") as handle:
        return SourceFile.from_source(handle.read(), path=path, module=module)


def findings_for(name, rule_id, module=IN_SCOPE):
    """Run a single rule over a single fixture; return its findings."""
    analyzer = Analyzer(select=[rule_id])
    report = analyzer.analyze([load_fixture(name, module=module)])
    return [f for f in report.findings if f.rule == rule_id]


@pytest.fixture
def fixtures_dir():
    return FIXTURES


@pytest.fixture(autouse=True)
def _private_cwd(tmp_path, monkeypatch):
    """Run each test in its own directory.

    ``main()`` without ``--cache-file`` writes ``.statcheck-cache.json``
    into the working directory; from the repo root that would rewrite the
    checkout's cache, and a later run would replay it instead of analysing
    cold.  Tree paths in these tests are absolute, so the move is safe.
    """
    monkeypatch.chdir(tmp_path)

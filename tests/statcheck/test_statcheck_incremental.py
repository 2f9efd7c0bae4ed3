"""Incremental-analysis tests: cache hits, invalidation, replay."""

import json
import os

import pytest

from repro.statcheck.engine import Analyzer
from repro.statcheck.incremental import IncrementalAnalyzer


@pytest.fixture
def tree(tmp_path):
    """A two-module package: ``app`` imports ``state``."""
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("", encoding="utf-8")
    (pkg / "state.py").write_text("LIMIT = 5\n", encoding="utf-8")
    (pkg / "app.py").write_text(
        "from pkg import state\n\nVALUE = state.LIMIT\n", encoding="utf-8"
    )
    return tmp_path


BARE_EXCEPT = (
    "def f(job):\n"
    "    try:\n"
    "        return job()\n"
    "    except:\n"
    "        return None\n"
)


def _run(tree, cache_name="cache.json"):
    inc = IncrementalAnalyzer(Analyzer(), cache_path=str(tree / cache_name))
    return inc.analyze_paths([str(tree / "pkg")])


class TestCacheLifecycle:
    def test_cold_run_misses_everything(self, tree):
        report = _run(tree)
        assert report.incremental["hits"] == 0
        assert report.incremental["misses"] == 3
        assert not report.incremental["project_hit"]

    def test_fully_warm_run_hits_the_project_entry(self, tree):
        first = _run(tree)
        second = _run(tree)
        assert second.incremental["project_hit"]
        assert second.incremental["hits"] == 3
        assert second.incremental["misses"] == 0
        assert second.incremental["hit_ratio"] == 1.0
        assert [f.to_dict() for f in second.findings] == [
            f.to_dict() for f in first.findings
        ]
        assert second.suppressed == first.suppressed

    def test_touched_module_reanalyzes_untouched_hits(self, tree):
        _run(tree)
        (tree / "pkg" / "state.py").write_text(
            "LIMIT = 6\n", encoding="utf-8"
        )
        report = _run(tree)
        assert not report.incremental["project_hit"]
        # state changed AND app depends on it -> both re-analyzed;
        # __init__ is untouched and hits the cache
        assert report.incremental["misses"] == 2
        assert report.incremental["hits"] == 1

    def test_dependency_invalidation_is_transitive_only_via_deps(self, tree):
        (tree / "pkg" / "leaf.py").write_text("X = 1\n", encoding="utf-8")
        _run(tree)
        (tree / "pkg" / "leaf.py").write_text("X = 2\n", encoding="utf-8")
        report = _run(tree)
        # nothing imports leaf, so only leaf itself misses
        assert report.incremental["misses"] == 1
        assert report.incremental["hits"] == 3

    def test_cached_findings_round_trip(self, tree):
        (tree / "pkg" / "bad.py").write_text(BARE_EXCEPT, encoding="utf-8")
        first = _run(tree)
        assert any(f.rule == "PY002" for f in first.findings)
        second = _run(tree)
        assert second.incremental["project_hit"]
        assert [f.to_dict() for f in second.findings] == [
            f.to_dict() for f in first.findings
        ]

    def test_rule_selection_invalidates_the_cache(self, tree):
        _run(tree)
        analyzer = Analyzer(select=["PY002"])
        inc = IncrementalAnalyzer(
            analyzer, cache_path=str(tree / "cache.json")
        )
        report = inc.analyze_paths([str(tree / "pkg")])
        assert report.incremental["misses"] == 3

    def test_corrupt_cache_is_ignored(self, tree):
        (tree / "cache.json").write_text("{not json", encoding="utf-8")
        report = _run(tree)
        assert report.incremental["misses"] == 3

    def test_matches_non_incremental_analyzer(self, tree):
        (tree / "pkg" / "bad.py").write_text(
            "import random\n" + BARE_EXCEPT, encoding="utf-8"
        )
        plain = Analyzer().analyze_paths([str(tree / "pkg")])
        inc = _run(tree)
        assert [f.to_dict() for f in inc.findings] == [
            f.to_dict() for f in plain.findings
        ]
        assert inc.suppressed == plain.suppressed
        assert inc.files_scanned == plain.files_scanned

    def test_different_tree_same_content_does_not_replay_paths(
        self, tree, tmp_path_factory
    ):
        """Cache entries are keyed by path too: a second checkout with
        identical content must not resurrect the first checkout's paths."""
        cache = str(tree / "cache.json")
        analyzer = Analyzer()
        IncrementalAnalyzer(analyzer, cache_path=cache).analyze_paths(
            [str(tree / "pkg")]
        )
        other = tmp_path_factory.mktemp("other")
        pkg = other / "pkg"
        pkg.mkdir()
        for name in ("__init__.py", "state.py", "app.py"):
            (pkg / name).write_text(
                (tree / "pkg" / name).read_text(encoding="utf-8"),
                encoding="utf-8",
            )
        report = IncrementalAnalyzer(
            Analyzer(), cache_path=cache
        ).analyze_paths([str(pkg)])
        assert not report.incremental["project_hit"]
        assert report.incremental["misses"] == 3


class TestCacheFileFormat:
    def test_cache_is_json_with_module_entries(self, tree):
        _run(tree)
        with open(tree / "cache.json", encoding="utf-8") as handle:
            data = json.load(handle)
        assert data["version"] == 1
        assert set(data["modules"]) == {"pkg", "pkg.state", "pkg.app"}
        app = data["modules"]["pkg.app"]
        assert "pkg.state" in app["deps"]
        assert os.path.basename(app["path"]) == "app.py"

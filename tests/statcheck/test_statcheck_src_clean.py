"""End-to-end gate: the analyzer must exit clean on the real source tree.

This is the same invocation CI runs (`repro-dvfs check src`), so a
failure here means a rule regressed or new code introduced a finding.
"""

import os

from repro.statcheck import Analyzer, all_rules
from repro.statcheck.cli import EXIT_CLEAN, main

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
)
SRC = os.path.join(REPO_ROOT, "src")


def test_src_tree_is_clean():
    assert main([SRC]) == EXIT_CLEAN


def test_at_least_fourteen_rules_active():
    rules = all_rules()
    assert len(rules) >= 14
    assert len({rule.id for rule in rules}) == len(rules)


def test_concurrency_rules_are_registered():
    ids = {rule.id for rule in all_rules()}
    expected = {
        "ASYNC001", "ASYNC002", "ASYNC003", "LOCK001", "MET001",
    }
    assert expected <= ids


def test_report_covers_whole_tree():
    report = Analyzer().analyze_paths([SRC])
    assert report.files_scanned >= 60
    assert report.findings == []
    # the known, justified suppressions in mcd/processor.py
    assert report.suppressed >= 5


def test_analyzer_is_clean_on_its_own_source():
    statcheck_dir = os.path.join(SRC, "repro", "statcheck")
    report = Analyzer().analyze_paths([statcheck_dir])
    assert report.findings == []


def test_warm_incremental_run_hits_cache(tmp_path):
    """A no-change rerun over src must serve >=80% of files from cache
    (in fact 100%: the project-level entry replays wholesale)."""
    from repro.statcheck.incremental import IncrementalAnalyzer

    cache = str(tmp_path / "cache.json")
    IncrementalAnalyzer(Analyzer(), cache_path=cache).analyze_paths([SRC])
    report = IncrementalAnalyzer(Analyzer(), cache_path=cache).analyze_paths(
        [SRC]
    )
    assert report.incremental is not None
    assert report.incremental["hit_ratio"] >= 0.8

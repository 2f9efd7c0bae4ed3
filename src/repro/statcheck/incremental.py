"""Incremental analysis: per-module result cache with dependency invalidation.

A full statcheck run re-parses and re-analyzes ~100 files on every
invocation even though typically one or two changed.  This module makes
the common case cheap:

* each module's **per-file** rule results are cached in a JSON file
  keyed on the sha256 of the module's source *and* of every project
  module it imports -- editing ``repro.mcd.processor`` invalidates
  cached results for everything that imports it, nothing else;
* a **project entry** keyed on the shas of *all* modules (plus the rule
  signature) caches the complete report, so a fully-warm run parses
  nothing at all and just replays findings;
* cross-module rules (OBS001, ASYNC*, LOCK001, ...) always run over the
  full project when anything at all changed -- only the fully-warm fast
  path skips them, and it replays their cached findings.

Misses go through the same per-file pass as a plain run
(:meth:`Analyzer.check_file`), so a cached result is exactly what a
recompute would report.  The cache file is advisory: unreadable,
stale-format, or differently-configured (rule selection) caches are
ignored and rewritten, never trusted.  Hit/miss statistics are surfaced in
``AnalysisReport.incremental`` for the CLI's ``--json`` output and the
CI warm-run gate.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.statcheck.engine import (
    AnalysisReport,
    Analyzer,
    Project,
    SourceFile,
    _collect_paths,
    _module_for_path,
)
from repro.statcheck.findings import Finding
from repro.statcheck.semantic import _dep_modules

_FORMAT_VERSION = 1


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


_tool_sig_cache: Optional[str] = None


def _tool_sig() -> str:
    """sha256 over the statcheck package sources themselves.

    Rule IDs alone under-key the cache: editing a rule's implementation
    (or the shared walkers it builds on) without renaming it must not
    replay findings computed by the old code.  Unreadable files hash as
    empty -- the signature only needs to *change* when sources change.
    """
    global _tool_sig_cache
    if _tool_sig_cache is None:
        digest = hashlib.sha256()
        package_dir = os.path.dirname(os.path.abspath(__file__))
        for root, dirs, names in sorted(os.walk(package_dir)):
            dirs.sort()
            for name in sorted(names):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(root, name)
                digest.update(os.path.relpath(path, package_dir).encode())
                try:
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
                except OSError:
                    pass
        _tool_sig_cache = digest.hexdigest()
    return _tool_sig_cache


class IncrementalAnalyzer:
    """Wraps an :class:`Analyzer` with the module cache described above."""

    def __init__(self, analyzer: Analyzer, cache_path: str) -> None:
        self.analyzer = analyzer
        self.cache_path = cache_path

    # -- cache plumbing -------------------------------------------------

    def _rules_sig(self) -> str:
        parts = sorted(rule.id for rule in self.analyzer.rules)
        parts.append(f"format={_FORMAT_VERSION}")
        parts.append(f"tool={_tool_sig()}")
        return _sha256("\n".join(parts))

    def _load_cache(self) -> Dict[str, Any]:
        try:
            with open(self.cache_path, encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            return {}
        if (
            not isinstance(data, dict)
            or data.get("version") != _FORMAT_VERSION
            or data.get("rules_sig") != self._rules_sig()
        ):
            return {}
        return data

    def _store_cache(
        self,
        shas: Dict[str, str],
        path_for: Dict[str, str],
        deps: Dict[str, Set[str]],
        per_file: Dict[str, Tuple[List[Dict[str, Any]], int]],
        report: AnalysisReport,
    ) -> None:
        modules: Dict[str, Any] = {}
        for module, sha in shas.items():
            findings, suppressed = per_file.get(module, ([], 0))
            modules[module] = {
                "sha": sha,
                "path": path_for[module],
                "deps": {
                    dep: shas[dep]
                    for dep in sorted(deps.get(module, set()))
                    if dep in shas
                },
                "findings": findings,
                "suppressed": suppressed,
            }
        payload = {
            "version": _FORMAT_VERSION,
            "rules_sig": self._rules_sig(),
            "modules": modules,
            "project": {
                # keyed by *path*, so a different tree that happens to
                # reuse module names and content cannot replay findings
                # carrying stale paths
                "shas": {path_for[m]: shas[m] for m in shas},
                "findings": [f.to_dict() for f in report.findings],
                "suppressed": report.suppressed,
                "files_scanned": report.files_scanned,
            },
        }
        tmp = f"{self.cache_path}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(tmp, self.cache_path)
        except OSError:
            # cache is advisory; never fail an analysis over it
            try:
                os.unlink(tmp)
            except OSError:
                pass

    # -- analysis -------------------------------------------------------

    def analyze_paths(self, paths: Sequence[str]) -> AnalysisReport:
        sources: Dict[str, str] = {}
        path_for: Dict[str, str] = {}
        shas: Dict[str, str] = {}
        for path in _collect_paths(paths):
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
            module = _module_for_path(path)
            sources[module] = source
            path_for[module] = path
            shas[module] = _sha256(source)

        cache = self._load_cache()

        # fully-warm fast path: nothing changed since the cached run
        path_shas = {path_for[m]: shas[m] for m in shas}
        project_entry = cache.get("project")
        if (
            isinstance(project_entry, dict)
            and project_entry.get("shas") == path_shas
        ):
            stats = {
                "enabled": True,
                "project_hit": True,
                "hits": len(shas),
                "misses": 0,
                "hit_ratio": 1.0 if shas else 0.0,
            }
            return self.analyzer.report(
                [Finding.from_dict(d) for d in project_entry["findings"]],
                int(project_entry["files_scanned"]),
                int(project_entry["suppressed"]),
                incremental=stats,
            )

        # parse everything (cross-module rules need the full project)
        files: List[SourceFile] = []
        deps: Dict[str, Set[str]] = {}
        for module in sorted(sources):
            file = SourceFile.from_source(
                sources[module], path=path_for[module], module=module
            )
            files.append(file)
            if file.tree is not None:
                deps[module] = _dep_modules(file.tree, module, set(shas))
        project = Project(files=files)
        by_module = {file.module: file for file in files}

        cached_modules = cache.get("modules", {})

        def _entry_valid(module: str) -> bool:
            entry = cached_modules.get(module)
            if not isinstance(entry, dict) or entry.get("sha") != shas[module]:
                return False
            if entry.get("path") != path_for[module]:
                return False
            recorded_deps = entry.get("deps", {})
            if not isinstance(recorded_deps, dict):
                return False
            for dep, dep_sha in recorded_deps.items():
                if shas.get(dep) != dep_sha:
                    return False
            # a dep edge added since the cache was written implies the
            # source changed, which the sha check already catches
            return True

        per_file: Dict[str, Tuple[List[Dict[str, Any]], int]] = {}
        misses: List[str] = []
        hits = 0
        for module in sorted(shas):
            if _entry_valid(module):
                entry = cached_modules[module]
                per_file[module] = (
                    list(entry.get("findings", [])),
                    int(entry.get("suppressed", 0)),
                )
                hits += 1
            else:
                misses.append(module)

        for module in misses:
            kept, suppressed = self.analyzer.check_file(by_module[module])
            per_file[module] = ([f.to_dict() for f in kept], suppressed)

        # cross-module rules always see the whole (re-parsed) project
        findings, suppressed_total = self.analyzer.check_project(project)
        for module in sorted(per_file):
            dicts, suppressed = per_file[module]
            findings.extend(Finding.from_dict(d) for d in dicts)
            suppressed_total += suppressed

        total = hits + len(misses)
        stats = {
            "enabled": True,
            "project_hit": False,
            "hits": hits,
            "misses": len(misses),
            "hit_ratio": (hits / total) if total else 0.0,
        }
        report = self.analyzer.report(
            findings, len(files), suppressed_total, incremental=stats
        )
        self._store_cache(shas, path_for, deps, per_file, report)
        return report

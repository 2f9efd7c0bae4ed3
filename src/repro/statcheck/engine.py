"""The statcheck analysis engine.

Parses source files once, runs every selected rule over them, applies
inline suppressions, and returns a sorted :class:`AnalysisReport`.  Two
rule shapes exist:

* **per-file** rules override :meth:`Rule.check_file` and see one
  :class:`SourceFile` at a time, pre-filtered by the rule's ``scope``
  (a tuple of dotted package prefixes -- determinism rules only apply to
  simulation/controller packages, hygiene rules everywhere);
* **cross-module** rules override :meth:`Rule.check_project` and see the
  whole :class:`Project` at once (probe-schema bidirectionality, the
  execution-context rules).

Suppressions
------------
``# statcheck: disable=RULE[,RULE...]`` on the line a finding is
reported at suppresses it there; ``# statcheck: disable-file=RULE`` on
any line suppresses the rule for the whole file; ``all`` matches every
rule.  A suppression must carry a justification after ``--``: a bare
pragma is itself reported as ``SUP001``, which no pragma can suppress.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

from repro.statcheck.findings import Finding, Severity
from repro.statcheck.registry import all_rules

_PRAGMA = re.compile(
    r"#\s*statcheck:\s*(?P<kind>disable|disable-file)\s*="
    r"\s*(?P<rules>[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
    r"(?:\s*--\s*(?P<reason>\S.*?))?\s*$"
)

#: Rule ID reserved for files the analyzer cannot parse at all.
PARSE_ERROR_RULE = "E001"
#: Rule ID reserved for suppressions without a ``-- reason`` (never
#: itself suppressible).
SUPPRESSION_RULE = "SUP001"


@dataclass(frozen=True)
class Pragma:
    """One ``# statcheck: disable[-file]=...`` comment, as written."""

    line: int
    kind: str  # "disable" | "disable-file"
    rules: Tuple[str, ...]
    reason: Optional[str] = None


def _parse_pragmas(
    source: str,
) -> "Tuple[Set[str], Dict[int, Set[str]], List[Pragma]]":
    """Extract (file-wide, per-line, raw-pragma) tables from comments.

    Tokenizing (rather than regexing raw lines) keeps pragma-looking text
    inside string literals from being honoured.  On tokenization failure
    -- the file will produce a parse-error finding anyway -- no
    suppressions are recognized.
    """
    file_wide: Set[str] = set()
    per_line: Dict[int, Set[str]] = {}
    pragmas: List[Pragma] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _PRAGMA.search(token.string)
            if not match:
                continue
            rules = {part.strip() for part in match.group("rules").split(",")}
            pragmas.append(
                Pragma(
                    line=token.start[0],
                    kind=match.group("kind"),
                    rules=tuple(sorted(rules)),
                    reason=match.group("reason"),
                )
            )
            if match.group("kind") == "disable-file":
                file_wide |= rules
            else:
                per_line.setdefault(token.start[0], set()).update(rules)
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass
    return file_wide, per_line, pragmas


def _module_for_path(path: str) -> str:
    """Dotted module path inferred from the package layout on disk.

    Walks up while ``__init__.py`` exists, so ``src/repro/mcd/rob.py``
    maps to ``repro.mcd.rob`` regardless of where the tree is rooted.
    """
    abspath = os.path.abspath(path)
    parts = [os.path.splitext(os.path.basename(abspath))[0]]
    directory = os.path.dirname(abspath)
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        parts.append(os.path.basename(directory))
        directory = os.path.dirname(directory)
    if parts[0] == "__init__":
        parts = parts[1:] or [os.path.basename(directory)]
    return ".".join(reversed(parts))


@dataclass
class SourceFile:
    """One parsed source file plus its suppression tables."""

    path: str
    module: str
    source: str
    tree: Optional[ast.Module]
    parse_error: Optional[str] = None
    file_suppressions: Set[str] = field(default_factory=set)
    line_suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    pragmas: List[Pragma] = field(default_factory=list)

    @classmethod
    def from_source(
        cls, source: str, path: str = "<string>", module: Optional[str] = None
    ) -> "SourceFile":
        """Build from in-memory source; ``module`` overrides the inferred
        dotted path (tests use this to exercise scoped rules on fixtures)."""
        file_wide, per_line, pragmas = _parse_pragmas(source)
        tree: Optional[ast.Module] = None
        parse_error: Optional[str] = None
        try:
            tree = ast.parse(source, filename=path)
        except (SyntaxError, ValueError) as exc:
            parse_error = str(exc)
        return cls(
            path=path,
            module=module if module is not None else _module_for_path(path),
            source=source,
            tree=tree,
            parse_error=parse_error,
            file_suppressions=file_wide,
            line_suppressions=per_line,
            pragmas=pragmas,
        )

    @classmethod
    def from_path(cls, path: str, module: Optional[str] = None) -> "SourceFile":
        with open(path, encoding="utf-8") as handle:
            return cls.from_source(handle.read(), path=path, module=module)

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        for pragma in (rule_id, "all"):
            if pragma in self.file_suppressions:
                return True
            if pragma in self.line_suppressions.get(line, ()):
                return True
        return False


@dataclass
class Project:
    """Every file of one analysis run, for cross-module rules."""

    files: List[SourceFile]

    def modules(self) -> Dict[str, SourceFile]:
        return {file.module: file for file in self.files}


class Rule:
    """Base class for all statcheck rules.

    Subclasses set ``id``, ``severity`` and ``description``, optionally
    narrow ``scope`` to dotted package prefixes, and override exactly one
    of :meth:`check_file` / :meth:`check_project`.
    """

    id: str = ""
    severity: Severity = Severity.ERROR
    description: str = ""
    #: dotted package prefixes this rule applies to; empty = everywhere.
    scope: Tuple[str, ...] = ()

    def applies_to(self, file: SourceFile) -> bool:
        if not self.scope:
            return True
        return any(
            file.module == prefix or file.module.startswith(prefix + ".")
            for prefix in self.scope
        )

    def check_file(self, file: SourceFile) -> Iterator[Finding]:
        return iter(())

    def check_project(self, project: Project) -> Iterator[Finding]:
        return iter(())

    def finding(
        self, file: SourceFile, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule=self.id,
            severity=self.severity,
            path=file.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


@dataclass
class AnalysisReport:
    """The outcome of one analyzer run."""

    findings: List[Finding]
    files_scanned: int
    rules: List[str]
    suppressed: int = 0
    #: incremental-cache statistics (hits/misses/...), when enabled
    incremental: Optional[Dict[str, object]] = None

    @property
    def ok(self) -> bool:
        return not self.findings


def _collect_paths(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    collected: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d
                    for d in dirnames
                    if not d.startswith(".") and d != "__pycache__"
                )
                collected.extend(
                    os.path.join(dirpath, name)
                    for name in sorted(filenames)
                    if name.endswith(".py")
                )
        elif os.path.isfile(path):
            collected.append(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return collected


def _screen(
    findings: Iterable[Finding], files: Sequence[SourceFile]
) -> Tuple[List[Finding], int]:
    """Split raw findings into (kept, suppressed count) by the pragmas of
    the file each was reported in."""
    by_path = {file.path: file for file in files}
    kept: List[Finding] = []
    suppressed = 0
    for finding in findings:
        file = by_path.get(finding.path)
        if file is not None and file.is_suppressed(finding.rule, finding.line):
            suppressed += 1
        else:
            kept.append(finding)
    return kept, suppressed


class Analyzer:
    """Runs a rule set over a set of files and reports the findings."""

    def __init__(
        self,
        rules: Optional[Sequence[Type[Rule]]] = None,
        select: Optional[Iterable[str]] = None,
        ignore: Optional[Iterable[str]] = None,
    ) -> None:
        classes = list(rules) if rules is not None else all_rules()
        known = {cls.id for cls in classes}
        for rule_set in (select, ignore):
            unknown = set(rule_set or ()) - known
            if unknown:
                raise ValueError(
                    f"unknown rule id(s): {', '.join(sorted(unknown))} "
                    f"(known: {', '.join(sorted(known))})"
                )
        if select is not None:
            wanted = set(select)
            classes = [cls for cls in classes if cls.id in wanted]
        if ignore is not None:
            dropped = set(ignore)
            classes = [cls for cls in classes if cls.id not in dropped]
        self.rules: List[Rule] = [cls() for cls in classes]

    def check_file(self, file: SourceFile) -> Tuple[List[Finding], int]:
        """The per-file pass over one module: the parse-error finding,
        every in-scope per-file rule, the suppression filter and SUP001.
        Returns the kept findings and the suppressed count."""
        raw: List[Finding] = []
        if file.parse_error is not None:
            raw.append(
                Finding(
                    rule=PARSE_ERROR_RULE,
                    severity=Severity.ERROR,
                    path=file.path,
                    line=1,
                    col=0,
                    message=f"cannot parse file: {file.parse_error}",
                )
            )
        if file.tree is not None:
            for rule in self.rules:
                if rule.applies_to(file):
                    raw.extend(rule.check_file(file))
        kept, suppressed = _screen(raw, [file])
        # emitted after suppression filtering, so a bare
        # ``disable=all`` cannot suppress its own finding
        kept.extend(
            Finding(
                rule=SUPPRESSION_RULE,
                severity=Severity.ERROR,
                path=file.path,
                line=pragma.line,
                col=0,
                message=(
                    f"suppression of {', '.join(pragma.rules)} carries no "
                    "justification; append '-- <reason>' to the pragma"
                ),
            )
            for pragma in file.pragmas
            if pragma.reason is None
        )
        return kept, suppressed

    def check_project(self, project: Project) -> Tuple[List[Finding], int]:
        """Every cross-module rule over the whole project, suppression
        filtered: the kept findings and the suppressed count."""
        raw = [
            finding
            for rule in self.rules
            for finding in rule.check_project(project)
        ]
        return _screen(raw, project.files)

    def report(
        self,
        findings: List[Finding],
        files_scanned: int,
        suppressed: int,
        incremental: Optional[Dict[str, object]] = None,
    ) -> AnalysisReport:
        """Sort ``findings`` and wrap them in this analyzer's report."""
        findings.sort(key=lambda finding: finding.sort_key)
        return AnalysisReport(
            findings=findings,
            files_scanned=files_scanned,
            rules=[rule.id for rule in self.rules],
            suppressed=suppressed,
            incremental=incremental,
        )

    def analyze_paths(self, paths: Sequence[str]) -> AnalysisReport:
        files = [SourceFile.from_path(path) for path in _collect_paths(paths)]
        return self.analyze(files)

    def analyze(self, files: Sequence[SourceFile]) -> AnalysisReport:
        project = Project(files=list(files))
        findings, suppressed = self.check_project(project)
        for file in project.files:
            kept, count = self.check_file(file)
            findings.extend(kept)
            suppressed += count
        return self.report(findings, len(project.files), suppressed)

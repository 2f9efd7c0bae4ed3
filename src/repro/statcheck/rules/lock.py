"""LOCK001: cross-context attribute writes need a lock.

The metrics instruments and span recorder are touched from the event
loop (request handlers), executor threads (the coalescer's batch
runner, the sweep engine) and -- through the trace pipeline -- pool
workers.  An instance attribute written from two of those contexts
without a lock is a data race: counter increments are lost, gauge
values tear.

The rule joins three facts per ``(class, attribute)`` pair:

* **writes** -- ``self.x = ...`` / ``self.x += ...`` / ``self.x[k] =
  ...`` / ``self.x.append(...)`` inside the class's methods
  (``__init__``/``__new__`` are exempt: construction happens-before
  publication);
* **contexts** -- which execution contexts each writing method can run
  in, from the :mod:`repro.statcheck.concurrency` reachability maps;
* **guards** -- whether the write is lexically inside ``with
  self._lock:`` (any context manager whose name mentions ``lock`` or
  ``mutex``).

A pair written from >=2 contexts fires on every unguarded write site.
Single-context classes stay lock-free (that is the point of loop
confinement); intentionally unguarded single-owner objects take a
justified ``# statcheck: disable=LOCK001`` pragma.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Tuple

from repro.statcheck.astutil import FUNCTION_NODES, dotted_name
from repro.statcheck.concurrency import context_model
from repro.statcheck.engine import Project, Rule
from repro.statcheck.findings import Finding
from repro.statcheck.registry import register
from repro.statcheck.semantic import FunctionInfo

#: methods that mutate their receiver in place
_MUTATING_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "setdefault",
        "sort",
        "update",
    }
)

_EXEMPT_METHODS = frozenset({"__init__", "__new__"})


def _is_lock_guard(expr: ast.expr) -> bool:
    """``with self._lock:`` / ``with LOCK:`` -- name mentions a lock."""
    target = expr.func if isinstance(expr, ast.Call) else expr
    dotted = dotted_name(target)
    if dotted is None:
        return False
    last = dotted.rsplit(".", 1)[-1].lower()
    return "lock" in last or "mutex" in last


def _self_attr_of(node: ast.expr) -> str:
    """The ``X`` of a ``self.X`` expression, or ``""``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return ""


#: one write site: (attribute, AST node, lock-guarded?, description)
_Write = Tuple[str, ast.AST, bool, str]


def _collect_writes(method: FunctionInfo) -> List[_Write]:
    writes: List[_Write] = []

    def visit(node: ast.AST, guarded: bool) -> None:
        if isinstance(node, FUNCTION_NODES) and node is not method.node:
            return  # nested scope, analyzed on its own
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner = guarded or any(
                _is_lock_guard(item.context_expr) for item in node.items
            )
            for child in ast.iter_child_nodes(node):
                visit(child, inner)
            return
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                list(node.targets)
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                attr = _self_attr_of(target)
                if attr:
                    writes.append((attr, node, guarded, "assignment to"))
                elif isinstance(target, ast.Subscript):
                    attr = _self_attr_of(target.value)
                    if attr:
                        writes.append(
                            (attr, node, guarded, "item assignment on")
                        )
        elif isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            if node.func.attr in _MUTATING_METHODS:
                attr = _self_attr_of(node.func.value)
                if attr:
                    writes.append(
                        (attr, node, guarded, f".{node.func.attr}() on")
                    )
        for child in ast.iter_child_nodes(node):
            visit(child, guarded)

    for stmt in method.node.body:
        visit(stmt, False)
    return writes


@register
class CrossContextWriteRule(Rule):
    """Attributes shared across execution contexts take a lock."""

    id = "LOCK001"
    description = (
        "an instance attribute written from two or more execution "
        "contexts (event loop, threads, pool workers) must hold a lock "
        "around the write; single-owner objects suppress with a "
        "justified pragma instead"
    )
    scope = ()  # cross-module

    def check_project(self, project: Project) -> Iterator[Finding]:
        model = context_model(project)
        for cls_qualname in sorted(model.table.classes):
            cls = model.table.classes[cls_qualname]
            by_attr: Dict[str, List[Tuple[FunctionInfo, _Write]]] = {}
            contexts_by_attr: Dict[str, Set[str]] = {}
            for method in cls.methods.values():
                if method.name in _EXEMPT_METHODS:
                    continue
                contexts = model.contexts_of(method.qualname)
                for write in _collect_writes(method):
                    attr = write[0]
                    by_attr.setdefault(attr, []).append((method, write))
                    contexts_by_attr.setdefault(attr, set()).update(contexts)
            for attr in sorted(by_attr):
                contexts = tuple(sorted(contexts_by_attr[attr]))
                if len(contexts) < 2:
                    continue
                for method, (name, node, guarded, how) in sorted(
                    by_attr[attr],
                    key=lambda item: getattr(item[1][1], "lineno", 0),
                ):
                    if guarded:
                        continue
                    if not model.contexts_of(method.qualname):
                        continue  # write site itself is unreachable
                    yield self.finding(
                        method.file,
                        node,
                        f"unguarded {how} self.{name} in "
                        f"{method.qualname}: {cls.name}.{name} is written "
                        f"from contexts {'+'.join(contexts)}; hold a lock "
                        "around the write or confine the object to one "
                        "context",
                    )

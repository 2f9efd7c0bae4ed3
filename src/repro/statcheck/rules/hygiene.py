"""General Python hygiene rule (PY002).

An overbroad ``except`` in the scheduler retry path turns a real defect
into a silent retry storm, a classic footgun for control-loop
reproductions.  The other one, a mutable default argument shared across
controller instances, is ruff's B006, which CI runs over ``src``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.statcheck.engine import Rule, SourceFile
from repro.statcheck.findings import Finding
from repro.statcheck.registry import register

#: Exception types too broad to swallow silently.
_OVERBROAD = frozenset({"BaseException", "Exception"})


@register
class SwallowedExceptionRule(Rule):
    """PY002: no bare/overbroad except that silently swallows errors."""

    id = "PY002"
    description = (
        "no bare except, and no except Exception/BaseException whose "
        "handler neither re-raises nor uses the caught exception"
    )

    def check_file(self, file: SourceFile) -> Iterator[Finding]:
        assert file.tree is not None
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    file,
                    node,
                    "bare except catches SystemExit and KeyboardInterrupt; "
                    "name the exceptions this handler is meant for",
                )
                continue
            if not self._is_overbroad(node.type):
                continue
            if self._handler_reraises(node):
                continue
            if node.name is not None and self._uses_name(node, node.name):
                # the error is inspected/reported, not swallowed
                continue
            yield self.finding(
                file,
                node,
                f"overbroad 'except {ast.unparse(node.type)}' swallows "
                "errors silently; catch specific exceptions, re-raise, or "
                "report the caught error",
            )

    @staticmethod
    def _is_overbroad(type_node: ast.AST) -> bool:
        nodes = (
            type_node.elts if isinstance(type_node, ast.Tuple) else [type_node]
        )
        return any(
            isinstance(node, ast.Name) and node.id in _OVERBROAD
            for node in nodes
        )

    @staticmethod
    def _handler_reraises(handler: ast.ExceptHandler) -> bool:
        return any(
            isinstance(node, ast.Raise) for node in ast.walk(handler)
        )

    @staticmethod
    def _uses_name(handler: ast.ExceptHandler, name: str) -> bool:
        for stmt in handler.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and node.id == name:
                    return True
        return False

"""Per-function dataflow: a forward abstract walker.

UNIT001 needs flow-sensitive facts about local variables -- "what
physical unit does this name carry here".  That is a forward dataflow
analysis over the function body, run by :class:`ForwardWalker`, an
abstract-interpretation skeleton over the statement AST.  It threads an
environment (``Dict[str, V]``) through straight-line code, forks it at
``if``/``try``/loops and re-merges the branch environments with the
subclass's :meth:`~ForwardWalker.merge`.  There is no explicit CFG: one
pass per loop body is enough for lint-grade facts (the merge after the
body accounts for the zero-iteration path, and a second iteration could
only *widen* values toward unknown -- rules fail open on unknown, so
skipping it can suppress, never invent, a finding).

Nested function/class bodies open new scopes and are deliberately not
descended into (they are analyzed as their own functions); their *names*
are treated as ordinary assignments in the enclosing scope.
"""

from __future__ import annotations

import ast
from typing import Dict, Generic, List, Optional, TypeVar

from repro.statcheck.astutil import FUNCTION_NODES

V = TypeVar("V")

Env = Dict[str, V]


class ForwardWalker(Generic[V]):
    """Forward abstract interpreter over one function (or module) body.

    Subclasses provide the value domain: :meth:`merge` joins the values a
    name carries on two control-flow paths, :meth:`infer` computes the
    abstract value of an expression (and may emit findings as a side
    effect), and :meth:`assign_hook` observes name bindings.
    """

    def merge(self, a: V, b: V) -> V:
        raise NotImplementedError

    def infer(self, node: ast.expr, env: "Env[V]") -> Optional[V]:
        """Abstract value of an expression; ``None`` means unknown."""
        raise NotImplementedError

    def assign_hook(
        self, name: str, value: Optional[V], node: ast.AST, env: "Env[V]"
    ) -> None:
        """Called on every binding of ``name``; override to observe."""

    def store_hook(
        self, target: ast.expr, value: Optional[V], env: "Env[V]"
    ) -> None:
        """Called on non-name stores (attributes, subscripts)."""

    # -- driver ---------------------------------------------------------

    def run(
        self, body: List[ast.stmt], env: Optional["Env[V]"] = None
    ) -> "Env[V]":
        current: Env[V] = dict(env) if env else {}
        for stmt in body:
            current = self._stmt(stmt, current)
        return current

    def _merge_envs(self, a: "Env[V]", b: "Env[V]") -> "Env[V]":
        merged: Env[V] = dict(a)
        for name, value in b.items():
            if name in merged:
                merged[name] = self.merge(merged[name], value)
            else:
                merged[name] = value
        return merged

    def _bind(
        self, target: ast.expr, value: Optional[V], env: "Env[V]"
    ) -> None:
        if isinstance(target, ast.Name):
            if value is None:
                env.pop(target.id, None)
            else:
                env[target.id] = value
            self.assign_hook(target.id, value, target, env)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, None, env)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, None, env)
        else:
            # attribute / subscript stores: evaluate for side effects
            self.infer(target, env)
            self.store_hook(target, value, env)

    def _stmt(self, stmt: ast.stmt, env: "Env[V]") -> "Env[V]":
        if isinstance(stmt, ast.Assign):
            value = self.infer(stmt.value, env)
            for target in stmt.targets:
                self._bind(target, value, env)
            return env
        if isinstance(stmt, ast.AnnAssign):
            value = self.infer(stmt.value, env) if stmt.value else None
            self._bind(stmt.target, value, env)
            return env
        if isinstance(stmt, ast.AugAssign):
            # x += e reads x, combines, and rebinds x
            right = self.infer(stmt.value, env)
            left: Optional[V] = None
            if isinstance(stmt.target, ast.Name):
                left = self.infer(
                    ast.copy_location(
                        ast.Name(id=stmt.target.id, ctx=ast.Load()),
                        stmt.target,
                    ),
                    env,
                )
            combined = self.aug_combine(stmt, left, right)
            self._bind(stmt.target, combined, env)
            return env
        if isinstance(stmt, ast.If):
            self.infer(stmt.test, env)
            then_env = self.run(stmt.body, env)
            else_env = self.run(stmt.orelse, env)
            return self._merge_envs(then_env, else_env)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.infer(stmt.iter, env)
            entry = dict(env)
            self._bind(stmt.target, None, entry)
            body_env = self.run(stmt.body, entry)
            merged = self._merge_envs(env, body_env)
            return self.run(stmt.orelse, merged)
        if isinstance(stmt, ast.While):
            self.infer(stmt.test, env)
            body_env = self.run(stmt.body, dict(env))
            merged = self._merge_envs(env, body_env)
            return self.run(stmt.orelse, merged)
        if isinstance(stmt, ast.Try):
            body_env = self.run(stmt.body, dict(env))
            merged = self._merge_envs(env, body_env)
            for handler in stmt.handlers:
                handler_env = dict(merged)
                if handler.name is not None:
                    handler_env.pop(handler.name, None)
                merged = self._merge_envs(
                    merged, self.run(handler.body, handler_env)
                )
            merged = self.run(stmt.orelse, merged)
            return self.run(stmt.finalbody, merged)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                value = self.infer(item.context_expr, env)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, None, env)
            return self.run(stmt.body, env)
        if isinstance(stmt, FUNCTION_NODES) or isinstance(stmt, ast.ClassDef):
            # new scope: do not descend; the def binds its name here
            env.pop(stmt.name, None)
            return env
        if isinstance(stmt, (ast.Global, ast.Nonlocal)):
            for name in stmt.names:
                env.pop(name, None)
            return env
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.infer(stmt.value, env)
            return env
        if isinstance(stmt, ast.Expr):
            self.infer(stmt.value, env)
            return env
        if isinstance(stmt, ast.Assert):
            self.infer(stmt.test, env)
            if stmt.msg is not None:
                self.infer(stmt.msg, env)
            return env
        if isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self.infer(stmt.exc, env)
            return env
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
                else:
                    self.infer(target, env)
            return env
        return env

    def aug_combine(
        self, stmt: ast.AugAssign, left: Optional[V], right: Optional[V]
    ) -> Optional[V]:
        """Value of ``x op= e``; defaults to keeping the left value."""
        return left

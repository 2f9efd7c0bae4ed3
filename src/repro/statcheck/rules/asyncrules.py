"""ASYNC001-003: event-loop discipline for the serve layer.

Three rules over the :mod:`repro.statcheck.concurrency` context model:

* **ASYNC001** -- a blocking call (``time.sleep``, synchronous file or
  socket I/O, ``subprocess``, a scalar ``run_experiment``) reachable
  from a coroutine body stalls every in-flight request: the service
  analogue of the paper's reaction-time argument.  Off-loop work
  belongs behind ``loop.run_in_executor`` -- the call graph models that
  hop, so properly dispatched work is not flagged.
* **ASYNC002** -- ``create_task`` / ``ensure_future`` whose handle is
  discarded.  A dropped task is garbage-collectable mid-flight and its
  exceptions vanish; the clean pattern is the ``ServeApp._tasks``
  retention idiom (keep the handle, remove it on completion).
* **ASYNC003** -- methods of loop-confined classes (``# statcheck:
  loop-confined`` / ``@loop_confined``) called from thread or pool
  context.  Confined state has no lock on purpose: every touch must
  come from the loop, and thread-side code must hop back via
  ``call_soon_threadsafe`` / ``run_coroutine_threadsafe`` (edges the
  thread traversal deliberately refuses to follow, so the sanctioned
  hop pattern stays clean).  ``__init__``/``__new__`` are exempt
  (construction happens-before publication).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set, Tuple

from repro.statcheck.astutil import dotted_name, import_map, resolve_call, walk_scope
from repro.statcheck.callgraph import TASK_SPAWN_ATTRS
from repro.statcheck.concurrency import (
    BLOCKING_CALLS,
    BLOCKING_METHOD_ATTRS,
    BLOCKING_PROJECT_NAMES,
    context_model,
)
from repro.statcheck.engine import Project, Rule, SourceFile
from repro.statcheck.findings import Finding
from repro.statcheck.registry import register

#: fully-resolved task-spawn functions (module-level forms)
_TASK_SPAWN_FUNCTIONS = frozenset(
    {"asyncio.create_task", "asyncio.ensure_future"}
)


@register
class BlockingCallInCoroutineRule(Rule):
    """No blocking calls reachable from ``async def`` bodies."""

    id = "ASYNC001"
    description = (
        "code reachable from coroutine bodies must not make blocking "
        "calls (sleep, sync file/socket I/O, subprocess, scalar "
        "simulation runs): one blocked step stalls every in-flight "
        "request; dispatch through loop.run_in_executor instead"
    )
    scope = ()  # cross-module

    def check_project(self, project: Project) -> Iterator[Finding]:
        model = context_model(project)
        for qualname in sorted(model.loop):
            fn = model.table.functions.get(qualname)
            if fn is None:
                continue
            module = model.table.modules.get(fn.module)
            imports = module.imports if module is not None else {}
            root = model.loop[qualname]
            via = "" if root == qualname else f" (reachable from {root})"
            for node in walk_scope(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                resolved = resolve_call(node.func, imports)
                reason: Optional[str] = None
                shown = resolved
                if resolved is not None and resolved in BLOCKING_CALLS:
                    reason = BLOCKING_CALLS[resolved]
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in BLOCKING_METHOD_ATTRS
                ):
                    reason = BLOCKING_METHOD_ATTRS[node.func.attr]
                    shown = f".{node.func.attr}()"
                else:
                    func_name = dotted_name(node.func)
                    if func_name is not None:
                        target = model.table.resolve_function(
                            fn.module, func_name
                        )
                        if (
                            target is not None
                            and target.name in BLOCKING_PROJECT_NAMES
                        ):
                            reason = (
                                "runs a full scalar simulation synchronously"
                            )
                            shown = target.qualname
                if reason is None:
                    continue
                yield self.finding(
                    fn.file,
                    node,
                    f"blocking call {shown} ({reason}) in {qualname}, "
                    f"which runs on the event loop{via}; move it behind "
                    "loop.run_in_executor",
                )


@register
class DroppedTaskHandleRule(Rule):
    """Spawned tasks must keep their handles."""

    id = "ASYNC002"
    description = (
        "create_task/ensure_future results must be retained (assigned, "
        "awaited, or registered like ServeApp._tasks): a dropped handle "
        "can be garbage-collected mid-flight and its exception is lost"
    )
    scope = ()

    def check_file(self, file: SourceFile) -> Iterator[Finding]:
        assert file.tree is not None
        imports = import_map(file.tree)
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Expr):
                continue
            call = node.value
            if not isinstance(call, ast.Call):
                continue
            resolved = resolve_call(call.func, imports)
            is_spawn = resolved in _TASK_SPAWN_FUNCTIONS or (
                isinstance(call.func, ast.Attribute)
                and call.func.attr in TASK_SPAWN_ATTRS
            )
            if not is_spawn:
                continue
            yield self.finding(
                file,
                node,
                "task spawned and immediately dropped; retain the handle "
                "(assign it, await it, or track it in a task set with a "
                "done-callback) so cancellation and exceptions are "
                "observable",
            )


@register
class LoopConfinementRule(Rule):
    """Loop-confined classes stay on the loop."""

    id = "ASYNC003"
    description = (
        "methods of loop-confined classes (# statcheck: loop-confined) "
        "must not be called from thread or pool context; thread-side "
        "code hops back via call_soon_threadsafe / "
        "run_coroutine_threadsafe"
    )
    scope = ()

    #: edge kinds that dispatch the callee *into* off-loop execution
    _CROSSING_KINDS = frozenset({"thread", "executor", "pool"})
    #: edge kinds that stay in the caller's own context
    _SAME_CONTEXT_KINDS = frozenset({"direct", "method"})
    _EXEMPT_METHODS = frozenset({"__init__", "__new__"})

    def check_project(self, project: Project) -> Iterator[Finding]:
        model = context_model(project)
        if not model.loop_confined:
            return
        seen: Set[Tuple[str, str, int]] = set()
        confined_methods: Dict[str, str] = {}
        for cls_qualname in model.loop_confined:
            cls = model.table.classes.get(cls_qualname)
            if cls is None:
                continue
            for method in cls.methods.values():
                confined_methods[method.qualname] = cls.name
        for edge in model.graph.edges:
            cls_name = confined_methods.get(edge.callee)
            if cls_name is None:
                continue
            callee = model.table.functions.get(edge.callee)
            if callee is None or callee.name in self._EXEMPT_METHODS:
                continue
            off_loop_caller = (
                edge.caller in model.thread or edge.caller in model.pool
            )
            crossing = edge.kind in self._CROSSING_KINDS
            same_context = (
                edge.kind in self._SAME_CONTEXT_KINDS and off_loop_caller
            )
            if not crossing and not same_context:
                continue
            caller = model.table.functions.get(edge.caller)
            if caller is None:
                continue
            key = (edge.caller, edge.callee, edge.line)
            if key in seen:
                continue
            seen.add(key)
            if crossing:
                how = f"dispatched to a {edge.kind} entry point"
            else:
                root = model.thread.get(edge.caller) or model.pool.get(
                    edge.caller
                )
                how = (
                    f"called from {edge.caller}, which runs off-loop "
                    f"(reachable from {root})"
                )
            site = ast.Pass(lineno=edge.line, col_offset=0)
            yield self.finding(
                caller.file,
                site,
                f"loop-confined {edge.callee} ({cls_name} is marked "
                f"loop-confined) {how}; hand work back to the loop with "
                "call_soon_threadsafe or run_coroutine_threadsafe",
            )

"""Static call graph over the project symbol table.

Nodes are function qualnames from :class:`~repro.statcheck.semantic.
SymbolTable`; edges are added for the call shapes this codebase uses:

* **direct calls** -- ``helper(x)`` to a module-level function, in the
  same module or through an import alias;
* **method calls** -- ``self.method(x)`` / ``cls.method(x)`` resolved
  against the enclosing class and its project-resolvable bases;
* **pool submissions** -- ``executor.submit(fn, ...)`` and friends (see
  :data:`~repro.statcheck.astutil.SUBMIT_METHODS`).  Any argument that
  statically resolves to a project function gets a call edge *and* is
  recorded as a **worker entry point**: it runs inside a pool worker
  process, the root of the context model's *pool* context;
* **concurrency hops** (PR 8) -- the asyncio/threading shapes the serve
  layer is built from, each with its own edge kind so context-sensitive
  reachability (:mod:`repro.statcheck.concurrency`) can follow or prune
  them:

  - ``await fn(...)`` -- kind ``"await"`` (stays in the caller's context);
  - ``create_task(...)`` / ``ensure_future(...)`` -- kind ``"task"``
    (the coroutine runs on the event loop);
  - ``loop.run_in_executor(pool, fn, ...)`` -- kind ``"executor"``; the
    callable is recorded as a **thread entry point**;
  - ``threading.Thread(target=fn)`` / ``threading.Timer(s, fn)`` --
    kind ``"thread"``; also a thread entry point;
  - ``loop.call_soon_threadsafe(fn, ...)``, ``loop.run_until_complete``,
    ``asyncio.run(...)``, ``asyncio.run_coroutine_threadsafe`` -- kind
    ``"loop"`` (a context hop: the callee runs on the loop no matter
    which thread schedules it).

An optional *resolver* callback extends name resolution -- the
concurrency layer passes a type-inference-backed resolver so
``self.store.publish(...)`` (attribute receivers with inferable types)
and ``SweepEngine(...)`` (constructor calls) also get edges.

Unresolvable targets (dynamic dispatch, callables stored in data
structures, ``self.runner(...)``) simply contribute no edge: the graph
under-approximates calls, so reachability-based rules fail open.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.statcheck.astutil import dotted_name, is_pool_submit, resolve_call
from repro.statcheck.semantic import (
    ClassInfo,
    FunctionInfo,
    SymbolTable,
)

#: ``X.create_task(coro)`` / ``X.ensure_future(coro)`` -- the coroutine
#: is scheduled onto the event loop.  The attribute names are specific
#: enough that no receiver check is needed (``asyncio.get_event_loop()
#: .create_task(...)`` has an unresolvable receiver but a clear verb).
TASK_SPAWN_ATTRS = frozenset({"create_task", "ensure_future"})

#: Loop methods whose callable/coroutine argument executes *on the
#: loop*, regardless of the calling thread -- a context hop.
LOOP_SCHEDULE_ATTRS = frozenset(
    {
        "call_at",
        "call_later",
        "call_soon",
        "call_soon_threadsafe",
        "run_until_complete",
    }
)

#: Module-level asyncio entry points with the same context-hop shape.
LOOP_SCHEDULE_FUNCTIONS = frozenset(
    {"asyncio.run", "asyncio.run_coroutine_threadsafe"}
)

#: Constructors whose ``target``/``function`` callable runs on a new
#: plain thread.
THREAD_FACTORIES = frozenset({"threading.Thread", "threading.Timer"})

#: Receiver-name fragments identifying an event loop (mirrors
#: :data:`~repro.statcheck.astutil.POOL_HINTS` for pools).
LOOP_HINTS = ("loop",)

#: A pluggable fallback resolver: ``(enclosing function, callable
#: expression) -> FunctionInfo`` tried when the syntactic resolution
#: fails.  The concurrency layer supplies a type-inference-backed one.
RefResolver = Callable[[FunctionInfo, ast.expr], Optional[FunctionInfo]]


@dataclass(frozen=True)
class CallEdge:
    """One resolved call site."""

    caller: str
    callee: str
    line: int
    # "direct" | "method" | "pool" | "await" | "task" | "executor"
    # | "thread" | "loop"
    kind: str


def _loop_receiver(func: ast.Attribute) -> bool:
    """Whether an attribute call's receiver looks like an event loop."""
    receiver = dotted_name(func.value)
    if receiver is None:
        return False
    last = receiver.rsplit(".", 1)[-1].lower()
    return any(hint in last for hint in LOOP_HINTS)


class CallGraph:
    """Directed call graph with pool/thread entry points."""

    def __init__(
        self, table: SymbolTable, resolver: Optional[RefResolver] = None
    ) -> None:
        self.table = table
        self.resolver = resolver
        self.edges: List[CallEdge] = []
        #: caller -> [(callee, kind)] for kind-filtered traversal
        self.kinded_successors: Dict[str, List[Tuple[str, str]]] = {}
        #: qualnames of functions that execute inside pool workers
        self.worker_entries: Set[str] = set()
        #: qualnames that execute on a plain/executor thread
        self.thread_entries: Set[str] = set()

    @classmethod
    def build(
        cls, table: SymbolTable, resolver: Optional[RefResolver] = None
    ) -> "CallGraph":
        graph = cls(table, resolver=resolver)
        for qualname in sorted(table.functions):
            graph._scan_function(table.functions[qualname])
        return graph

    # -- construction ---------------------------------------------------

    def _add_edge(self, caller: str, callee: str, line: int, kind: str) -> None:
        self.edges.append(
            CallEdge(caller=caller, callee=callee, line=line, kind=kind)
        )
        self.kinded_successors.setdefault(caller, []).append((callee, kind))
        if kind == "pool":
            self.worker_entries.add(callee)
        elif kind in ("thread", "executor"):
            self.thread_entries.add(callee)

    def _enclosing_class(self, fn: FunctionInfo) -> Optional[ClassInfo]:
        if fn.class_name is None:
            return None
        module = self.table.modules.get(fn.module)
        if module is None:
            return None
        return module.classes.get(fn.class_name)

    def _resolve_callable_ref(
        self, fn: FunctionInfo, node: ast.expr
    ) -> Optional[FunctionInfo]:
        """Resolve an expression used *as a callable value* (not called)."""
        dotted = dotted_name(node)
        target: Optional[FunctionInfo] = None
        if dotted is not None:
            if dotted.startswith("self.") or dotted.startswith("cls."):
                target = self._resolve_method(fn, dotted.split(".", 1)[1])
            else:
                target = self.table.resolve_function(fn.module, dotted)
        if target is None and self.resolver is not None:
            target = self.resolver(fn, node)
        return target

    def _resolve_method(
        self, fn: FunctionInfo, method: str
    ) -> Optional[FunctionInfo]:
        cls = self._enclosing_class(fn)
        if cls is None or "." in method:
            return None
        found = self.table.mro_methods(cls, method)
        return found[0] if found else None

    def _imports(self, fn: FunctionInfo) -> Dict[str, str]:
        module = self.table.modules.get(fn.module)
        return module.imports if module is not None else {}

    def _callable_arg_edge(
        self,
        fn: FunctionInfo,
        arg: Optional[ast.expr],
        line: int,
        kind: str,
        claimed: Set[int],
    ) -> None:
        """Edge for a callable/coroutine passed *as an argument* (the
        pool/executor/thread/loop/task shapes).  ``functools.partial(f,
        ...)`` unwraps to ``f``.  For ``task`` and ``loop`` edges a call
        ``f(...)`` is the coroutine, so it resolves through its own callee
        and is claimed so the generic pass does not add a second
        (wrong-kind) edge for it.  For the other kinds a call argument
        runs in the submitter (``pool.submit(work, helper(x))``), so it is
        left to the generic pass."""
        if arg is None:
            return
        if isinstance(arg, ast.Call):
            resolved = resolve_call(arg.func, self._imports(fn))
            if resolved in ("functools.partial", "partial"):
                claimed.add(id(arg))
                if arg.args:
                    self._callable_arg_edge(fn, arg.args[0], line, kind, claimed)
                return
            if kind not in ("task", "loop"):
                return
            target = self._resolve_callable_ref(fn, arg.func)
            if target is not None:
                claimed.add(id(arg))
                self._add_edge(fn.qualname, target.qualname, line, kind)
            return
        target = self._resolve_callable_ref(fn, arg)
        if target is not None:
            self._add_edge(fn.qualname, target.qualname, line, kind)

    def _scan_function(self, fn: FunctionInfo) -> None:
        imports = self._imports(fn)
        claimed: Set[int] = set()
        awaited: Set[int] = set()
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Await) and isinstance(node.value, ast.Call):
                awaited.add(id(node.value))
        # ast.walk is breadth-first, so an outer special-shape call is
        # always visited before the inner calls it claims
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            line = getattr(node, "lineno", fn.node.lineno)
            if id(node) in claimed:
                continue
            # pool submissions: every statically-resolvable callable
            # argument crosses into a worker process
            if is_pool_submit(node):
                for arg in node.args:
                    self._callable_arg_edge(fn, arg, line, "pool", claimed)
                continue
            func_name = dotted_name(node.func)
            resolved = resolve_call(node.func, imports)
            # executor dispatch: loop.run_in_executor(pool, fn, *args)
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "run_in_executor"
            ):
                if len(node.args) >= 2:
                    self._callable_arg_edge(
                        fn, node.args[1], line, "executor", claimed
                    )
                continue
            # plain threads: threading.Thread(target=fn) / Timer(s, fn)
            if resolved in THREAD_FACTORIES:
                target_arg: Optional[ast.expr] = None
                for keyword in node.keywords:
                    if keyword.arg in ("target", "function"):
                        target_arg = keyword.value
                if (
                    target_arg is None
                    and resolved.endswith("Timer")
                    and len(node.args) >= 2
                ):
                    target_arg = node.args[1]
                self._callable_arg_edge(fn, target_arg, line, "thread", claimed)
                continue
            # task spawns: the coroutine runs on the event loop
            if resolved in ("asyncio.create_task", "asyncio.ensure_future") or (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in TASK_SPAWN_ATTRS
            ):
                if node.args:
                    self._callable_arg_edge(fn, node.args[0], line, "task", claimed)
                continue
            # loop scheduling: a context hop onto the loop's thread
            is_loop_method = (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in LOOP_SCHEDULE_ATTRS
                and _loop_receiver(node.func)
            )
            if is_loop_method or resolved in LOOP_SCHEDULE_FUNCTIONS:
                arg_index = (
                    1
                    if isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("call_at", "call_later")
                    else 0
                )
                if len(node.args) > arg_index:
                    self._callable_arg_edge(
                        fn, node.args[arg_index], line, "loop", claimed
                    )
                continue
            # direct / method calls (``await``ed ones keep their own kind)
            kind = "await" if id(node) in awaited else None
            if func_name is not None and (
                func_name.startswith("self.") or func_name.startswith("cls.")
            ):
                method = self._resolve_method(fn, func_name.split(".", 1)[1])
                if method is None and self.resolver is not None:
                    method = self.resolver(fn, node.func)
                if method is not None:
                    self._add_edge(
                        fn.qualname, method.qualname, line, kind or "method"
                    )
                continue
            target: Optional[FunctionInfo] = None
            if func_name is not None:
                target = self.table.resolve_function(fn.module, func_name)
            if target is None and self.resolver is not None:
                target = self.resolver(fn, node.func)
                if target is not None:
                    self._add_edge(
                        fn.qualname, target.qualname, line, kind or "method"
                    )
                continue
            if target is not None:
                self._add_edge(
                    fn.qualname, target.qualname, line, kind or "direct"
                )

    # -- queries --------------------------------------------------------

    def reachable_via(
        self,
        roots: Iterable[str],
        kinds: FrozenSet[str],
        enter: Optional[Callable[[str], bool]] = None,
    ) -> Dict[str, str]:
        """Every qualname reachable from ``roots`` (inclusive) along edges
        whose kind is in ``kinds``, mapped to the root it was first
        reached from (BFS order, deterministic).  When ``enter`` is given,
        only callees for which ``enter(qualname)`` holds are entered --
        how the context model keeps a thread traversal from walking into
        coroutine bodies it cannot execute."""
        origin: Dict[str, str] = {}
        queue: List[Tuple[str, str]] = [
            (root, root)
            for root in sorted(roots)
            if enter is None or enter(root)
        ]
        while queue:
            current, root = queue.pop(0)
            if current in origin:
                continue
            origin[current] = root
            for callee, kind in sorted(self.kinded_successors.get(current, [])):
                if kind not in kinds or callee in origin:
                    continue
                if enter is not None and not enter(callee):
                    continue
                queue.append((callee, root))
        return origin

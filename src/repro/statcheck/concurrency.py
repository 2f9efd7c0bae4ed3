"""Execution-context model: who runs where, with what types.

The serve layer (PRs 6-7) runs one program in three execution contexts:

* the **event loop** -- ``async def`` coroutine bodies, tasks spawned
  with ``create_task``, callbacks scheduled with
  ``call_soon_threadsafe`` / ``run_coroutine_threadsafe``;
* **threads** -- ``threading.Thread(target=...)`` bodies and callables
  dispatched through ``loop.run_in_executor``;
* **pool workers** -- callables crossing ``executor.submit`` /
  ``pool.map`` into worker processes.

The concurrency rules (ASYNC001/003, LOCK001) are all *reachability
questions over contexts*: "can a blocking call execute on the loop",
"can a loop-confined method execute on a thread", "is this attribute
written from two contexts at once".  This module builds the shared
model once per analysis run:

* :class:`TypeInferencer` -- annotation- and constructor-driven type
  inference for locals, parameters and ``self`` attributes, so
  ``self._m_requests.labels(...).inc()`` resolves through
  ``counter_family(...) -> CounterFamily`` and ``labels() -> Counter``
  to the project method ``Counter.inc``;
* :func:`make_resolver` -- plugs that inference into the call graph as
  its fallback resolver, giving edges for typed attribute receivers and
  class constructors;
* :class:`ContextModel` -- the three context-reachability maps
  (kind-filtered BFS over the graph: a thread traversal never follows a
  ``loop`` hop or enters a coroutine body), the loop-confined class set
  and thread-safe method set from source markers, and the blocking-call
  tables.

Markers (documented in DESIGN.md §6h):

* ``# statcheck: loop-confined`` on (or directly above) a ``class``
  line, or a ``@loop_confined`` decorator -- the class's methods must
  only run on the event loop (ASYNC003);
* ``# statcheck: thread-safe`` on (or directly above) a ``def`` line,
  or a ``@thread_safe`` decorator -- opts one method of a confined
  class out, for deliberately thread-side code.

Everything fails open: an unresolvable call contributes no edge, an
unannotated value has no type, and code reachable from no modeled root
belongs to no context.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.statcheck.astutil import dotted_name, walk_scope
from repro.statcheck.callgraph import CallGraph
from repro.statcheck.engine import Project, SourceFile
from repro.statcheck.semantic import FunctionInfo, SymbolTable

# ---------------------------------------------------------------------------
# blocking-call tables (ASYNC001)
# ---------------------------------------------------------------------------

#: Fully-resolved call targets that block the calling thread.  On the
#: event loop each of these stalls *every* in-flight request -- the
#: static analogue of the paper's reaction-time argument: one slow
#: synchronous step delays all concurrent control decisions.
BLOCKING_CALLS: Dict[str, str] = {
    "time.sleep": "sleeps the calling thread",
    "open": "synchronous file I/O",
    "io.open": "synchronous file I/O",
    "os.system": "spawns and waits on a shell",
    "os.waitpid": "waits on a child process",
    "subprocess.run": "spawns and waits on a subprocess",
    "subprocess.call": "spawns and waits on a subprocess",
    "subprocess.check_call": "spawns and waits on a subprocess",
    "subprocess.check_output": "spawns and waits on a subprocess",
    "socket.create_connection": "synchronous socket connect",
    "urllib.request.urlopen": "synchronous HTTP request",
    "shutil.copy": "synchronous file copy",
    "shutil.copytree": "synchronous tree copy",
    "shutil.rmtree": "synchronous tree removal",
}

#: Method names that block regardless of receiver type (pathlib file
#: I/O, socket primitives).  Narrow on purpose: ``.read()``/``.write()``
#: are far too common to match syntactically.
BLOCKING_METHOD_ATTRS: Dict[str, str] = {
    "read_text": "synchronous file read",
    "write_text": "synchronous file write",
    "read_bytes": "synchronous file read",
    "write_bytes": "synchronous file write",
    "accept": "blocking socket accept",
    "recv": "blocking socket receive",
    "sendall": "blocking socket send",
}

#: Project functions that are themselves long-running synchronous work
#: (a scalar simulation run takes seconds); matched by bare name after
#: resolution to a project function.
BLOCKING_PROJECT_NAMES: FrozenSet[str] = frozenset({"run_experiment"})

# ---------------------------------------------------------------------------
# context traversal kinds
# ---------------------------------------------------------------------------

#: Edges an event-loop traversal follows: plain calls, awaits, task
#: spawns, and loop-scheduling hops (which land back on the loop).
LOOP_EDGE_KINDS: FrozenSet[str] = frozenset(
    {"direct", "method", "await", "task", "loop"}
)

#: Edges a thread traversal follows.  ``loop`` hops are deliberately
#: excluded -- ``call_soon_threadsafe`` / ``run_coroutine_threadsafe``
#: hand work *back* to the loop, which is exactly how thread code is
#: supposed to touch loop-confined state.
THREAD_EDGE_KINDS: FrozenSet[str] = frozenset(
    {"direct", "method", "thread", "executor"}
)

#: Edges inside a pool worker process (no loop, no extra threads that
#: the model cares about).
POOL_EDGE_KINDS: FrozenSet[str] = frozenset({"direct", "method", "pool"})


# ---------------------------------------------------------------------------
# type inference
# ---------------------------------------------------------------------------

#: typing wrappers whose argument carries the interesting type
_UNWRAP_SUBSCRIPTS = frozenset({"Optional", "Final", "ClassVar", "Annotated"})


class TypeInferencer:
    """Best-effort nominal types for expressions, from three sources:

    * **annotations** -- return types, parameter types and
      ``self.x: T`` attribute declarations, unwrapped through
      ``Optional[...]`` / ``"quoted"`` / ``X | None`` forms;
    * **constructors** -- ``self.store = JobStore(...)`` types the
      attribute, ``engine = SweepEngine(...)`` types the local;
    * **return chaining** -- ``self.metrics.counter(...)`` types
      through :class:`MetricsRegistry`'s annotated return.

    Types are project class qualnames; anything else is ``None``
    (unknown).  Conflicting evidence poisons the binding back to
    unknown, so the inference under-approximates and the rules built on
    it fail open.
    """

    def __init__(self, table: SymbolTable) -> None:
        self.table = table
        #: function qualname -> class qualname of its return value
        self.return_types: Dict[str, str] = {}
        #: function qualname -> {param name: class qualname}
        self.param_types: Dict[str, Dict[str, str]] = {}
        #: class qualname -> {attribute: class qualname}
        self.attr_types: Dict[str, Dict[str, str]] = {}
        self._poisoned_attrs: Set[Tuple[str, str]] = set()
        self._locals: Dict[str, Dict[str, str]] = {}
        self._locals_in_progress: Set[str] = set()
        self._build()

    # -- construction ---------------------------------------------------

    def _build(self) -> None:
        for qualname in sorted(self.table.functions):
            fn = self.table.functions[qualname]
            returns = fn.node.returns
            if returns is not None:
                resolved = self._annotation_type(fn.module, returns)
                if resolved is not None:
                    self.return_types[qualname] = resolved
            params: Dict[str, str] = {}
            args = fn.node.args
            for arg in (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            ):
                if arg.annotation is None:
                    continue
                param_type = self._annotation_type(fn.module, arg.annotation)
                if param_type is not None:
                    params[arg.arg] = param_type
            if fn.class_name is not None:
                owner = self.table.modules[fn.module].classes.get(fn.class_name)
                if owner is not None:
                    params.setdefault("self", owner.qualname)
                    params.setdefault("cls", owner.qualname)
            if params:
                self.param_types[qualname] = params
        # two rounds so chained attributes settle:
        # self.metrics = MetricsRegistry()      (round 1)
        # self._m = self.metrics.counter(...)   (round 2 sees round 1)
        for _ in range(2):
            self._build_attr_types()

    def _build_attr_types(self) -> None:
        for cls_qualname in sorted(self.table.classes):
            cls = self.table.classes[cls_qualname]
            for method in cls.methods.values():
                for node in ast.walk(method.node):
                    if isinstance(node, ast.AnnAssign):
                        attr = self._self_attr(node.target)
                        if attr is not None:
                            self._record_attr(
                                cls_qualname,
                                attr,
                                self._annotation_type(
                                    method.module, node.annotation
                                ),
                            )
                    elif isinstance(node, ast.Assign):
                        self_targets = [
                            attr
                            for attr in (
                                self._self_attr(t) for t in node.targets
                            )
                            if attr is not None
                        ]
                        if not self_targets:
                            continue
                        value_type = self.infer(method, node.value)
                        for attr in self_targets:
                            self._record_attr(cls_qualname, attr, value_type)

    @staticmethod
    def _self_attr(target: ast.expr) -> Optional[str]:
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            return target.attr
        return None

    def _record_attr(
        self, cls_qualname: str, attr: str, inferred: Optional[str]
    ) -> None:
        if inferred is None or (cls_qualname, attr) in self._poisoned_attrs:
            return
        attrs = self.attr_types.setdefault(cls_qualname, {})
        existing = attrs.get(attr)
        if existing is None:
            attrs[attr] = inferred
        elif existing != inferred:
            del attrs[attr]
            self._poisoned_attrs.add((cls_qualname, attr))

    def _annotation_type(
        self, module: str, node: ast.expr, depth: int = 0
    ) -> Optional[str]:
        if depth > 6:
            return None
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
            return self._annotation_type(module, parsed, depth + 1)
        if isinstance(node, ast.Subscript):
            base = dotted_name(node.value)
            if base is None:
                return None
            last = base.rsplit(".", 1)[-1]
            inner: ast.expr = node.slice
            if last in _UNWRAP_SUBSCRIPTS:
                if isinstance(inner, ast.Tuple):
                    if not inner.elts:
                        return None
                    inner = inner.elts[0]
                return self._annotation_type(module, inner, depth + 1)
            if last == "Union":
                elements = (
                    list(inner.elts)
                    if isinstance(inner, ast.Tuple)
                    else [inner]
                )
                return self._single_type(module, elements, depth)
            return None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            return self._single_type(module, [node.left, node.right], depth)
        if isinstance(node, (ast.Name, ast.Attribute)):
            dotted = dotted_name(node)
            if dotted is None:
                return None
            cls = self.table.resolve_class(module, dotted)
            return cls.qualname if cls is not None else None
        return None

    def _single_type(
        self, module: str, elements: List[ast.expr], depth: int
    ) -> Optional[str]:
        """The unique project type among union members, if there is one."""
        found: Set[str] = set()
        for element in elements:
            resolved = self._annotation_type(module, element, depth + 1)
            if resolved is not None:
                found.add(resolved)
        return found.pop() if len(found) == 1 else None

    # -- queries --------------------------------------------------------

    def infer(
        self, fn: FunctionInfo, expr: ast.expr, depth: int = 0
    ) -> Optional[str]:
        """Class qualname of ``expr`` evaluated inside ``fn``, or None."""
        if depth > 8:
            return None
        if isinstance(expr, ast.Name):
            params = self.param_types.get(fn.qualname)
            if params is not None and expr.id in params:
                return params[expr.id]
            return self._locals_of(fn).get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self.infer(fn, expr.value, depth + 1)
            if base is None:
                return None
            return self.attr_types.get(base, {}).get(expr.attr)
        if isinstance(expr, ast.Await):
            return self.infer(fn, expr.value, depth + 1)
        if isinstance(expr, ast.Call):
            return self._infer_call(fn, expr, depth)
        if isinstance(expr, ast.IfExp):
            body = self.infer(fn, expr.body, depth + 1)
            orelse = self.infer(fn, expr.orelse, depth + 1)
            if body is not None and orelse is not None:
                return body if body == orelse else None
            # one branch is typically a None default: Optional narrowing
            return body if body is not None else orelse
        if isinstance(expr, ast.BoolOp):
            for value in expr.values:
                inferred = self.infer(fn, value, depth + 1)
                if inferred is not None:
                    return inferred
            return None
        return None

    def _infer_call(
        self, fn: FunctionInfo, call: ast.Call, depth: int
    ) -> Optional[str]:
        func = call.func
        dotted = dotted_name(func)
        if dotted is not None and not dotted.startswith(("self.", "cls.")):
            cls = self.table.resolve_class(fn.module, dotted)
            if cls is not None:
                return cls.qualname
            target = self.table.resolve_function(fn.module, dotted)
            if target is not None:
                return self.return_types.get(target.qualname)
        if isinstance(func, ast.Attribute):
            receiver = self.infer(fn, func.value, depth + 1)
            if receiver is not None:
                cls = self.table.classes.get(receiver)
                if cls is not None:
                    methods = self.table.mro_methods(cls, func.attr)
                    if methods:
                        return self.return_types.get(methods[0].qualname)
        return None

    def _locals_of(self, fn: FunctionInfo) -> Dict[str, str]:
        cached = self._locals.get(fn.qualname)
        if cached is not None:
            return cached
        if fn.qualname in self._locals_in_progress:
            return {}
        self._locals_in_progress.add(fn.qualname)
        result: Dict[str, str] = {}
        # the partial map is visible to nested infer() calls on purpose
        self._locals[fn.qualname] = result
        poisoned: Set[str] = set()
        for node in walk_scope(fn.node):
            bindings: List[Tuple[str, ast.expr]] = []
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                bindings.append((node.targets[0].id, node.value))
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if isinstance(item.optional_vars, ast.Name):
                        bindings.append(
                            (item.optional_vars.id, item.context_expr)
                        )
            for name, value in bindings:
                if name in poisoned:
                    continue
                inferred = self.infer(fn, value)
                existing = result.get(name)
                if inferred is None:
                    # a re-binding we cannot type invalidates the name
                    if existing is not None:
                        del result[name]
                        poisoned.add(name)
                    continue
                if existing is None:
                    result[name] = inferred
                elif existing != inferred:
                    del result[name]
                    poisoned.add(name)
        self._locals_in_progress.discard(fn.qualname)
        return result


def make_resolver(
    table: SymbolTable, types: TypeInferencer
) -> Callable[[FunctionInfo, ast.expr], Optional[FunctionInfo]]:
    """Call-graph fallback resolver backed by type inference.

    Handles the two shapes the syntactic resolver cannot: attribute
    calls on typed receivers (``self.store.publish`` where ``store`` was
    constructed as a ``JobStore``) and class constructor calls
    (``SweepEngine(...)`` resolves to ``SweepEngine.__init__``).
    """

    def resolve(fn: FunctionInfo, node: ast.expr) -> Optional[FunctionInfo]:
        if isinstance(node, ast.Attribute):
            receiver = types.infer(fn, node.value)
            if receiver is not None:
                cls = table.classes.get(receiver)
                if cls is not None:
                    methods = table.mro_methods(cls, node.attr)
                    if methods:
                        return methods[0]
        dotted = dotted_name(node)
        if dotted is not None and not dotted.startswith(("self.", "cls.")):
            cls_info = table.resolve_class(fn.module, dotted)
            if cls_info is not None:
                init = table.mro_methods(cls_info, "__init__")
                if init:
                    return init[0]
        return None

    return resolve


# ---------------------------------------------------------------------------
# source markers
# ---------------------------------------------------------------------------

_CONFINED_MARKER = re.compile(r"#\s*statcheck:\s*loop-confined\b")
_THREAD_SAFE_MARKER = re.compile(r"#\s*statcheck:\s*thread-safe\b")


def _has_marker(
    file: SourceFile, node: ast.AST, marker: "re.Pattern[str]"
) -> bool:
    """Marker comment on the def/class line, a decorator line, or the
    line directly above."""
    lines = file.source.splitlines()
    lineno = getattr(node, "lineno", 1)
    start = lineno
    for decorator in getattr(node, "decorator_list", []):
        start = min(start, getattr(decorator, "lineno", start))
    start = max(1, start - 1)
    for line in range(start, lineno + 1):
        if line <= len(lines) and marker.search(lines[line - 1]):
            return True
    return False


def _has_decorator(node: ast.AST, name: str) -> bool:
    for decorator in getattr(node, "decorator_list", []):
        target = (
            decorator.func if isinstance(decorator, ast.Call) else decorator
        )
        dotted = dotted_name(target)
        if dotted is not None and dotted.rsplit(".", 1)[-1] == name:
            return True
    return False


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------


@dataclass
class ContextModel:
    """The shared per-run concurrency model the relational rules query."""

    table: SymbolTable
    types: TypeInferencer
    graph: CallGraph
    #: qualnames of ``async def`` functions (coroutine bodies)
    async_functions: FrozenSet[str]
    #: context -> {reachable qualname -> root it was reached from}
    loop: Dict[str, str] = field(default_factory=dict)
    thread: Dict[str, str] = field(default_factory=dict)
    pool: Dict[str, str] = field(default_factory=dict)
    #: class qualnames marked ``# statcheck: loop-confined``
    loop_confined: FrozenSet[str] = frozenset()
    #: method qualnames marked ``# statcheck: thread-safe`` (opt-out)
    thread_safe: FrozenSet[str] = frozenset()

    @classmethod
    def build(cls, project: Project) -> "ContextModel":
        table = SymbolTable.build(project)
        types = TypeInferencer(table)
        graph = CallGraph.build(table, resolver=make_resolver(table, types))
        async_functions = frozenset(
            qualname
            for qualname, fn in table.functions.items()
            if isinstance(fn.node, ast.AsyncFunctionDef)
        )
        loop_roots: Set[str] = set(async_functions)
        for edge in graph.edges:
            if edge.kind in ("task", "loop"):
                loop_roots.add(edge.callee)
        loop = graph.reachable_via(loop_roots, LOOP_EDGE_KINDS)

        def sync_only(qualname: str) -> bool:
            # a thread/pool traversal cannot execute a coroutine body
            return qualname not in async_functions

        thread = graph.reachable_via(
            graph.thread_entries, THREAD_EDGE_KINDS, enter=sync_only
        )
        pool = graph.reachable_via(
            graph.worker_entries, POOL_EDGE_KINDS, enter=sync_only
        )
        confined: Set[str] = set()
        thread_safe: Set[str] = set()
        for qualname in sorted(table.classes):
            info = table.classes[qualname]
            if _has_marker(
                info.file, info.node, _CONFINED_MARKER
            ) or _has_decorator(info.node, "loop_confined"):
                confined.add(qualname)
            for method in info.methods.values():
                if _has_marker(
                    method.file, method.node, _THREAD_SAFE_MARKER
                ) or _has_decorator(method.node, "thread_safe"):
                    thread_safe.add(method.qualname)
        return cls(
            table=table,
            types=types,
            graph=graph,
            async_functions=async_functions,
            loop=loop,
            thread=thread,
            pool=pool,
            loop_confined=frozenset(confined),
            thread_safe=frozenset(thread_safe),
        )

    def contexts_of(self, qualname: str) -> Tuple[str, ...]:
        """Which execution contexts ``qualname`` may run in (sorted)."""
        contexts = []
        if qualname in self.loop:
            contexts.append("loop")
        if qualname in self.pool:
            contexts.append("pool")
        if qualname in self.thread:
            contexts.append("thread")
        return tuple(contexts)


def context_model(project: Project) -> ContextModel:
    """The per-run :class:`ContextModel`, built once and memoized on the
    project (the analyzer creates a fresh :class:`Project` per run, so
    the cache cannot go stale across runs)."""
    cached = getattr(project, "_statcheck_context_model", None)
    if isinstance(cached, ContextModel):
        return cached
    model = ContextModel.build(project)
    setattr(project, "_statcheck_context_model", model)
    return model

"""Project-wide symbol table: the semantic layer's ground truth.

The syntactic rules look at one AST at a time; the context-sensitive
rules (ASYNC*/LOCK001, via :mod:`~repro.statcheck.concurrency`) need to
answer *project* questions -- "which function does this call resolve
to", "what does module A import from module B".  This module builds
that index once per analysis run:

* :class:`FunctionInfo` / :class:`ClassInfo` -- every function, method
  and class in the project under a stable dotted qualname
  (``repro.engine.scheduler._pool_entry``,
  ``repro.mcd.processor.MCDProcessor._sample``);
* :class:`ModuleInfo` -- per-module import map, top-level symbols, and
  the set of project modules it imports -- the dependency edges the
  incremental cache invalidates along;
* :class:`SymbolTable` -- the project-wide index with name resolution
  through import aliases (``from repro.engine.jobs import run_job as
  rj`` resolves ``rj`` to the ``run_job`` FunctionInfo).

Everything here is a *static over-approximation that fails open*: a name
that cannot be resolved simply resolves to ``None`` and downstream rules
do not fire on it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.statcheck.astutil import FUNCTION_NODES, import_map
from repro.statcheck.engine import Project, SourceFile

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass
class FunctionInfo:
    """One function or method, addressable by dotted qualname."""

    qualname: str
    name: str
    node: FunctionNode
    file: SourceFile
    module: str
    #: enclosing class name for methods, ``None`` for plain functions
    class_name: Optional[str] = None


@dataclass
class ClassInfo:
    """One class definition plus its methods and resolved base names."""

    qualname: str
    name: str
    node: ast.ClassDef
    file: SourceFile
    module: str
    #: base-class names as written, resolved through the import map when
    #: possible (``MCDProcessor`` -> ``repro.mcd.processor.MCDProcessor``)
    bases: Tuple[str, ...] = ()
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """Per-module slice of the symbol table."""

    module: str
    file: SourceFile
    #: local name -> fully-qualified target (see :func:`astutil.import_map`)
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: project modules this module imports (incremental-cache dependencies)
    deps: Set[str] = field(default_factory=set)


def _dep_modules(
    tree: ast.Module, module: str, project_modules: Set[str]
) -> Set[str]:
    """Project modules this module imports, at any nesting depth.

    ``from repro.mcd import processor`` depends on ``repro.mcd.processor``
    when that module exists in the project, else on ``repro.mcd``.
    """
    deps: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in project_modules:
                    deps.add(alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue
            base = node.module
            if base in project_modules:
                deps.add(base)
            for alias in node.names:
                candidate = f"{base}.{alias.name}"
                if candidate in project_modules:
                    deps.add(candidate)
    deps.discard(module)
    return deps


class SymbolTable:
    """Project-wide index of modules, functions and classes."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}

    @classmethod
    def build(cls, project: Project) -> "SymbolTable":
        table = cls()
        project_modules = {
            file.module for file in project.files if file.tree is not None
        }
        for file in project.files:
            if file.tree is None:
                continue
            table._index_module(file, project_modules)
        return table

    # -- construction ---------------------------------------------------

    def _index_module(
        self, file: SourceFile, project_modules: Set[str]
    ) -> None:
        assert file.tree is not None
        info = ModuleInfo(
            module=file.module,
            file=file,
            imports=import_map(file.tree),
            deps=_dep_modules(file.tree, file.module, project_modules),
        )
        for stmt in file.tree.body:
            if isinstance(stmt, FUNCTION_NODES):
                self._index_function(info, stmt, class_name=None)
            elif isinstance(stmt, ast.ClassDef):
                self._index_class(info, stmt)
        self.modules[file.module] = info

    def _index_function(
        self,
        info: ModuleInfo,
        node: FunctionNode,
        class_name: Optional[str],
    ) -> FunctionInfo:
        parts = [info.module]
        if class_name is not None:
            parts.append(class_name)
        parts.append(node.name)
        fn = FunctionInfo(
            qualname=".".join(parts),
            name=node.name,
            node=node,
            file=info.file,
            module=info.module,
            class_name=class_name,
        )
        self.functions[fn.qualname] = fn
        if class_name is None:
            info.functions[node.name] = fn
        # nested defs get their own (addressable) entries so the call
        # graph can give them edges; they are not module-level symbols
        for child in ast.walk(node):
            if child is node or not isinstance(child, FUNCTION_NODES):
                continue
            nested = FunctionInfo(
                qualname=f"{fn.qualname}.{child.name}",
                name=child.name,
                node=child,
                file=info.file,
                module=info.module,
                class_name=class_name,
            )
            self.functions.setdefault(nested.qualname, nested)
        return fn

    def _index_class(self, info: ModuleInfo, node: ast.ClassDef) -> None:
        from repro.statcheck.astutil import dotted_name

        bases: List[str] = []
        for base in node.bases:
            dotted = dotted_name(base)
            if dotted is None:
                continue
            head, _, rest = dotted.partition(".")
            resolved = info.imports.get(head, head)
            bases.append(f"{resolved}.{rest}" if rest else resolved)
        cls_info = ClassInfo(
            qualname=f"{info.module}.{node.name}",
            name=node.name,
            node=node,
            file=info.file,
            module=info.module,
            bases=tuple(bases),
        )
        for stmt in node.body:
            if isinstance(stmt, FUNCTION_NODES):
                method = self._index_function(info, stmt, class_name=node.name)
                cls_info.methods[stmt.name] = method
        info.classes[node.name] = cls_info
        self.classes[cls_info.qualname] = cls_info

    # -- queries --------------------------------------------------------

    def resolve_function(
        self, module: str, dotted: str
    ) -> Optional[FunctionInfo]:
        """Resolve a (possibly aliased) dotted name used in ``module`` to a
        project function, or ``None`` when it points outside the project."""
        info = self.modules.get(module)
        if info is None:
            return None
        head, _, rest = dotted.partition(".")
        if not rest and head in info.functions:
            return info.functions[head]
        resolved_head = info.imports.get(head, head)
        full = f"{resolved_head}.{rest}" if rest else resolved_head
        return self.functions.get(full)

    def resolve_class(self, module: str, dotted: str) -> Optional[ClassInfo]:
        """Like :meth:`resolve_function` for classes."""
        info = self.modules.get(module)
        if info is None:
            return None
        head, _, rest = dotted.partition(".")
        if not rest and head in info.classes:
            return info.classes[head]
        resolved_head = info.imports.get(head, head)
        full = f"{resolved_head}.{rest}" if rest else resolved_head
        return self.classes.get(full)

    def mro_methods(self, cls: ClassInfo, method: str) -> List[FunctionInfo]:
        """The method implementations ``cls`` (or a project base) provides.

        Walks the class and its project-resolvable base classes in
        declaration order; unresolvable bases are skipped (fail open).
        """
        seen: Set[str] = set()
        todo: List[ClassInfo] = [cls]
        found: List[FunctionInfo] = []
        while todo:
            current = todo.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            if method in current.methods:
                found.append(current.methods[method])
            for base in current.bases:
                base_cls = self.classes.get(base)
                if base_cls is None:
                    # the base may be referenced by bare name in-module
                    base_cls = self.resolve_class(current.module, base)
                if base_cls is not None:
                    todo.append(base_cls)
        return found

"""SIM001: reference/fast simulator state-contract drift.

The fast core (:class:`repro.simcore.fast.FastMCDProcessor`) re-derives
the reference hot loop of :class:`repro.mcd.processor.MCDProcessor` as a
megaloop over local variables, writing the state back at the end.  The
bit-identity CI gate catches *value* drift, but only for states the
golden workloads exercise; the structural hazard is a new piece of
mutable state added to the reference loop that the fast loop silently
never carries.  This rule makes that drift a static finding:

every ``self.<attr>`` the reference class *assigns outside* ``__init__``
(plain stores, augmented stores, and subscript stores like
``self._freq_sum[d] += per``) must be *touched* -- read or written,
subscripted or not -- somewhere in the fast class.  A reference-side
attribute the fast class never mentions means the megaloop neither
consumes nor maintains that state, and the two cores have structurally
diverged.

Pairings are found by class name (``MCDProcessor`` vs a subclass whose
name starts with ``Fast``), so the rule also covers fixture-shaped
pairs in tests.  Findings land on the fast class definition, where the
missing write-back belongs; a deliberate divergence is suppressed there
with ``# statcheck: disable=SIM001 -- <why>``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.statcheck.engine import Project, Rule
from repro.statcheck.findings import Finding
from repro.statcheck.registry import register
from repro.statcheck.semantic import ClassInfo, SymbolTable

#: reference class name -> required fast-subclass name prefix
_REF_CLASS = "MCDProcessor"
_FAST_PREFIX = "Fast"


def _self_attr_of(target: ast.expr) -> Optional[Tuple[str, ast.expr]]:
    """``self.X`` or ``self.X[...]`` store target -> (attr name, node)."""
    node = target
    if isinstance(node, ast.Subscript):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr, node
    return None


def _assigned_self_attrs(cls: ClassInfo) -> Dict[str, ast.expr]:
    """Attrs assigned in any method except __init__, with one store site."""
    assigned: Dict[str, ast.expr] = {}
    for name, method in sorted(cls.methods.items()):
        if name == "__init__":
            continue
        for node in ast.walk(method.node):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                found = _self_attr_of(target)
                if found is not None:
                    assigned.setdefault(found[0], found[1])
    return assigned


def _touched_self_attrs(cls: ClassInfo) -> Set[str]:
    """Every ``self.X`` mention (any context) anywhere in the class."""
    touched: Set[str] = set()
    for node in ast.walk(cls.node):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            touched.add(node.attr)
    return touched


def _fast_subclasses(
    table: SymbolTable, ref: ClassInfo
) -> Iterator[ClassInfo]:
    for qualname in sorted(table.classes):
        cls = table.classes[qualname]
        if cls.qualname == ref.qualname:
            continue
        if not cls.name.startswith(_FAST_PREFIX):
            continue
        if not cls.name.endswith(ref.name):
            continue
        for base in cls.bases:
            base_cls = table.classes.get(base) or table.resolve_class(
                cls.module, base
            )
            if base_cls is not None and base_cls.qualname == ref.qualname:
                yield cls
                break


@register
class SimContractRule(Rule):
    """Fast core must carry every reference hot-path state attribute."""

    id = "SIM001"
    description = (
        "every state attribute the reference MCDProcessor hot path assigns "
        "must be read or written by its Fast* subclass (or carry a "
        "justified suppression) -- silent state drift between the two "
        "cores breaks the bit-identity contract structurally"
    )
    scope = ()  # cross-module

    def check_project(self, project: Project) -> Iterator[Finding]:
        table = SymbolTable.build(project)
        for ref in table.classes_named(_REF_CLASS):
            assigned = _assigned_self_attrs(ref)
            if not assigned:
                continue
            for fast in _fast_subclasses(table, ref):
                touched = _touched_self_attrs(fast)
                for attr in sorted(assigned):
                    if attr in touched:
                        continue
                    store = assigned[attr]
                    yield self.finding(
                        fast.file,
                        fast.node,
                        f"reference hot path assigns self.{attr} "
                        f"({ref.module}:{store.lineno}) but "
                        f"{fast.name} never reads or writes it; the fast "
                        "core has drifted from the reference state contract",
                    )

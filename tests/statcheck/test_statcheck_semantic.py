"""Tests for the semantic layer: symbol table, dataflow, call graph."""

from conftest import IN_SCOPE

from repro.statcheck import Analyzer
from repro.statcheck.callgraph import CallGraph
from repro.statcheck.engine import Project, SourceFile
from repro.statcheck.semantic import SymbolTable


def _project(*named_sources):
    files = [
        SourceFile.from_source(source, path=f"{module}.py", module=module)
        for module, source in named_sources
    ]
    return Project(files=files)


class TestSymbolTable:
    def test_indexes_functions_methods_and_classes(self):
        table = SymbolTable.build(
            _project(
                (
                    "pkg.mod",
                    "def helper():\n"
                    "    return 1\n"
                    "class Widget:\n"
                    "    def render(self):\n"
                    "        return helper()\n",
                )
            )
        )
        assert "pkg.mod.helper" in table.functions
        assert "pkg.mod.Widget.render" in table.functions
        assert "pkg.mod.Widget" in table.classes
        widget = table.classes["pkg.mod.Widget"]
        assert "render" in widget.methods

    def test_resolves_imported_alias(self):
        table = SymbolTable.build(
            _project(
                ("lib.util", "def run_job(job):\n    return job\n"),
                (
                    "app.main",
                    "from lib.util import run_job as rj\n"
                    "def go(job):\n"
                    "    return rj(job)\n",
                ),
            )
        )
        resolved = table.resolve_function("app.main", "rj")
        assert resolved is not None
        assert resolved.qualname == "lib.util.run_job"

    def test_dependency_edges_for_incremental_invalidation(self):
        table = SymbolTable.build(
            _project(
                ("repro.mcd.processor", "X = 1\n"),
                (
                    "repro.simcore.fast",
                    "from repro.mcd import processor\n"
                    "Y = processor.X\n",
                ),
            )
        )
        deps = table.modules["repro.simcore.fast"].deps
        assert "repro.mcd.processor" in deps

    def test_mro_methods_walks_project_bases(self):
        table = SymbolTable.build(
            _project(
                (
                    "base",
                    "class Ref:\n"
                    "    def step(self):\n"
                    "        return 0\n",
                ),
                (
                    "fast",
                    "from base import Ref\n"
                    "class Quick(Ref):\n"
                    "    pass\n",
                ),
            )
        )
        quick = table.classes["fast.Quick"]
        found = table.mro_methods(quick, "step")
        assert [fn.qualname for fn in found] == ["base.Ref.step"]


class TestForwardWalker:
    """Join points of the shared walker, observed through UNIT001."""

    @staticmethod
    def _unit_lines(source):
        report = Analyzer(select=["UNIT001"]).analyze(
            [SourceFile.from_source(source, path="fx.py", module=IN_SCOPE)]
        )
        return [f.line for f in report.findings]

    def test_branches_merge_reaching_values(self):
        # a value both branches agree on survives the join; a
        # disagreement joins to unknown, which never fires
        assert self._unit_lines(
            "def agree(flag, freq_ghz, period_ns):\n"
            "    if flag:\n"
            "        x = freq_ghz\n"
            "    else:\n"
            "        x = 2 * freq_ghz\n"
            "    return x + period_ns\n"
            "def disagree(flag, freq_ghz, period_ns):\n"
            "    if flag:\n"
            "        x = freq_ghz\n"
            "    else:\n"
            "        x = period_ns\n"
            "    return x + period_ns\n"
        ) == [6]

    def test_loop_body_definition_reaches_after_loop(self):
        # the in-loop binding reaches the code after the loop; with a
        # pre-loop binding of another unit, both reach and join to unknown
        assert self._unit_lines(
            "def only_in_loop(items, freq_ghz, period_ns):\n"
            "    for item in items:\n"
            "        x = freq_ghz\n"
            "    return x + period_ns\n"
            "def before_and_in_loop(items, freq_ghz, period_ns):\n"
            "    x = period_ns\n"
            "    for item in items:\n"
            "        x = freq_ghz\n"
            "    return x + period_ns\n"
        ) == [4]


class TestCallGraph:
    def test_direct_call_edge(self):
        table = SymbolTable.build(
            _project(
                (
                    "m",
                    "def callee():\n"
                    "    return 1\n"
                    "def caller():\n"
                    "    return callee()\n",
                )
            )
        )
        graph = CallGraph.build(table)
        kinds = {
            (e.caller, e.callee): e.kind for e in graph.edges
        }
        assert kinds[("m.caller", "m.callee")] == "direct"

    def test_method_call_edge_through_self(self):
        table = SymbolTable.build(
            _project(
                (
                    "m",
                    "class C:\n"
                    "    def a(self):\n"
                    "        return self.b()\n"
                    "    def b(self):\n"
                    "        return 1\n",
                )
            )
        )
        graph = CallGraph.build(table)
        kinds = {(e.caller, e.callee): e.kind for e in graph.edges}
        assert kinds[("m.C.a", "m.C.b")] == "method"

    def test_pool_submitted_callable_is_worker_entry(self):
        table = SymbolTable.build(
            _project(
                (
                    "m",
                    "def work(x):\n"
                    "    return x\n"
                    "def helper(x):\n"
                    "    return x\n"
                    "def fan_out(executor, items):\n"
                    "    return [executor.submit(work, i) for i in items]\n"
                    "def fan_out_derived(pool, x):\n"
                    "    return pool.submit(work, helper(x))\n",
                )
            )
        )
        graph = CallGraph.build(table)
        # helper(x) is evaluated in the submitter; only work crosses over
        assert graph.worker_entries == {"m.work"}
        kinds = {(e.caller, e.callee): e.kind for e in graph.edges}
        assert kinds[("m.fan_out", "m.work")] == "pool"
        assert kinds[("m.fan_out_derived", "m.work")] == "pool"
        assert kinds[("m.fan_out_derived", "m.helper")] == "direct"

    def test_unresolvable_targets_contribute_nothing(self):
        table = SymbolTable.build(
            _project(
                (
                    "m",
                    "def fan_out(executor, handlers):\n"
                    "    return [executor.submit(h) for h in handlers]\n",
                )
            )
        )
        graph = CallGraph.build(table)
        assert graph.worker_entries == set()


def test_in_scope_module_constant_matches_fixture_layout():
    # the conftest virtual module must stay inside the semantic rules'
    # scope, or every fixture above silently tests nothing
    assert IN_SCOPE.startswith("repro.")

"""Tests for the execution-context model: async-aware call-graph edges,
context reachability, confinement markers, and seeded-bug detection on
the real source tree.
"""

import os

from repro.statcheck import Analyzer, SourceFile
from repro.statcheck.callgraph import CallGraph
from repro.statcheck.concurrency import ContextModel, context_model
from repro.statcheck.engine import Project
from repro.statcheck.semantic import SymbolTable

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
)
SRC = os.path.join(REPO_ROOT, "src")


def _project(*named_sources):
    files = [
        SourceFile.from_source(source, path=f"{module}.py", module=module)
        for module, source in named_sources
    ]
    return Project(files=files)


def _graph(project):
    return CallGraph.build(SymbolTable.build(project))


def _edge_kinds(graph, caller_suffix, callee_suffix):
    return sorted(
        edge.kind
        for edge in graph.edges
        if edge.caller.endswith(caller_suffix)
        and edge.callee.endswith(callee_suffix)
    )


class TestAsyncCallGraphEdges:
    def test_await_edge_kind(self):
        graph = _graph(_project((
            "m",
            "async def helper():\n"
            "    return 1\n"
            "async def top():\n"
            "    return await helper()\n",
        )))
        assert _edge_kinds(graph, "m.top", "m.helper") == ["await"]

    def test_create_task_edge_kind(self):
        graph = _graph(_project((
            "m",
            "import asyncio\n"
            "async def job():\n"
            "    return 1\n"
            "async def spawn():\n"
            "    task = asyncio.create_task(job())\n"
            "    return task\n",
        )))
        assert _edge_kinds(graph, "m.spawn", "m.job") == ["task"]

    def test_run_in_executor_edge_and_thread_entry(self):
        graph = _graph(_project((
            "m",
            "def work():\n"
            "    return 1\n"
            "async def dispatch(loop):\n"
            "    return await loop.run_in_executor(None, work)\n",
        )))
        assert _edge_kinds(graph, "m.dispatch", "m.work") == ["executor"]
        assert "m.work" in graph.thread_entries

    def test_run_in_executor_unwraps_functools_partial(self):
        graph = _graph(_project((
            "m",
            "import functools\n"
            "def work(a, b):\n"
            "    return a + b\n"
            "async def dispatch(loop):\n"
            "    return await loop.run_in_executor(\n"
            "        None, functools.partial(work, 1, b=2)\n"
            "    )\n",
        )))
        assert _edge_kinds(graph, "m.dispatch", "m.work") == ["executor"]

    def test_thread_target_edge_and_entry(self):
        graph = _graph(_project((
            "m",
            "import threading\n"
            "def body():\n"
            "    return 1\n"
            "def start():\n"
            "    t = threading.Thread(target=body)\n"
            "    t.start()\n",
        )))
        assert _edge_kinds(graph, "m.start", "m.body") == ["thread"]
        assert "m.body" in graph.thread_entries

    def test_call_soon_threadsafe_is_a_loop_edge(self):
        graph = _graph(_project((
            "m",
            "def publish(x):\n"
            "    return x\n"
            "def worker(loop, x):\n"
            "    loop.call_soon_threadsafe(publish, x)\n",
        )))
        assert _edge_kinds(graph, "m.worker", "m.publish") == ["loop"]

    def test_outer_special_call_claims_inner_call(self):
        # run_until_complete(self.app.start()) must yield ONE loop-kind
        # edge to start, not an extra direct edge for the inner call;
        # resolving self.app.start needs the type-inference resolver
        graph = context_model(_project((
            "m",
            "class App:\n"
            "    async def start(self):\n"
            "        return 1\n"
            "class Server:\n"
            "    def __init__(self):\n"
            "        self.app = App()\n"
            "    def run(self, loop):\n"
            "        loop.run_until_complete(self.app.start())\n",
        ))).graph
        assert _edge_kinds(graph, "Server.run", "App.start") == ["loop"]


class TestContextModel:
    def test_loop_reaches_through_sync_helpers(self):
        model = context_model(_project((
            "m",
            "def helper():\n"
            "    return 1\n"
            "async def handle():\n"
            "    return helper()\n",
        )))
        assert "m.helper" in model.loop
        assert model.loop["m.helper"] == "m.handle"

    def test_thread_traversal_refuses_loop_hops(self):
        model = context_model(_project((
            "m",
            "import threading\n"
            "def publish(x):\n"
            "    return x\n"
            "def worker(loop, x):\n"
            "    loop.call_soon_threadsafe(publish, x)\n"
            "def start(loop):\n"
            "    t = threading.Thread(target=worker, args=(loop, 1))\n"
            "    t.start()\n",
        )))
        assert "m.worker" in model.thread
        # the hand-back hop is sanctioned: publish stays off the thread map
        assert "m.publish" not in model.thread
        # ...and lands back in loop context instead
        assert "m.publish" in model.loop

    def test_thread_traversal_never_enters_coroutines(self):
        model = context_model(_project((
            "m",
            "import threading\n"
            "async def coro():\n"
            "    return 1\n"
            "def worker():\n"
            "    return coro()\n"
            "def start():\n"
            "    threading.Thread(target=worker).start()\n",
        )))
        assert "m.worker" in model.thread
        assert "m.coro" not in model.thread

    def test_confinement_markers_and_decorators(self):
        model = context_model(_project((
            "m",
            "# statcheck: loop-confined\n"
            "class Store:\n"
            "    def put(self):\n"
            "        pass\n"
            "def loop_confined(cls):\n"
            "    return cls\n"
            "@loop_confined\n"
            "class Decorated:\n"
            "    pass\n",
        )))
        assert "m.Store" in model.loop_confined
        assert "m.Decorated" in model.loop_confined

    def test_contexts_of_is_sorted_union(self):
        model = context_model(_project((
            "m",
            "import threading\n"
            "def shared():\n"
            "    return 1\n"
            "async def handle():\n"
            "    return shared()\n"
            "def start():\n"
            "    threading.Thread(target=shared).start()\n",
        )))
        assert model.contexts_of("m.shared") == ("loop", "thread")
        assert model.contexts_of("m.start") == ()

    def test_model_is_memoized_per_project(self):
        project = _project(("m", "async def f():\n    return 1\n"))
        assert context_model(project) is context_model(project)
        assert isinstance(context_model(project), ContextModel)


def _load_src_tree(mutate_path=None, mutate=None):
    """Parse the serve/engine/obs/harness subtree, optionally swapping in
    a mutated copy of one file (the seeded-bug idiom: break the real
    source in memory, prove the rule catches it)."""
    files = []
    for package in ("serve", "engine", "obs", "harness"):
        directory = os.path.join(SRC, "repro", package)
        for name in sorted(os.listdir(directory)):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
            if mutate_path is not None and path.endswith(mutate_path):
                mutated = mutate(source)
                assert mutated != source, "seed marker not found"
                source = mutated
            files.append(SourceFile.from_source(source, path=path))
    return files


class TestSeededBugs:
    def test_async001_catches_seeded_sleep_in_handler(self):
        def seed(source):
            marker = (
                "    async def _handle_health(self, request: Request)"
                " -> Response:\n"
            )
            return source.replace(
                marker, marker + "        time.sleep(0.01)\n"
            )

        files = _load_src_tree("serve/app.py", seed)
        report = Analyzer(select=["ASYNC001"]).analyze(files)
        assert any(
            f.rule == "ASYNC001"
            and "time.sleep" in f.message
            and "_handle_health" in f.message
            for f in report.findings
        ), [f.message for f in report.findings]

    def test_async003_catches_seeded_jobstore_call_in_thread(self):
        def seed(source):
            marker = "        self.app = ServeApp(self.config)\n"
            return source.replace(
                marker, marker + '        self.app.store.create("run", {})\n'
            )

        files = _load_src_tree("serve/testing.py", seed)
        report = Analyzer(select=["ASYNC003"]).analyze(files)
        assert any(
            f.rule == "ASYNC003"
            and "JobStore" in f.message
            and f.path.endswith("testing.py")
            for f in report.findings
        ), [f.message for f in report.findings]

    def test_unmutated_subtree_is_clean(self):
        files = _load_src_tree()
        report = Analyzer(
            select=["ASYNC001", "ASYNC002", "ASYNC003", "LOCK001", "MET001"]
        ).analyze(files)
        assert report.findings == []

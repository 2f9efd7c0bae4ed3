"""Benchmark-side tracing: spans around calls into each layer.

The traced run wraps public functions of the program from here, the
benchmark's own files; nothing inside ``src/`` changes.  Spans go to the
program's own in-memory :class:`repro.obs.spans.SpanRecorder` and are
written out when the run ends, as a Chrome-trace JSON (the recorder's
``chrome_events()``) and a per-layer table (:func:`layer_table`).  A
layer's self time is the sum over its spans of each span's duration
minus the union of its children's intervals (:func:`pb.stats.self_time`).

Times are ``time.time_ns()``, the recorder's clock, so spans the engine
records itself (its ``tracer=`` parameter, including spans shipped home
from pool workers) share one clock with the benchmark's own.
"""

from __future__ import annotations

import contextlib
import functools
import threading
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from pb.stats import self_time

#: spans one recorder keeps; a traced run stays far below it, and
#: :func:`layer_table` refuses a recorder that evicted any
MAX_SPANS = 1 << 20

#: per thread, the wrapper spans open on it, innermost last
_open = threading.local()


def new_recorder() -> Any:
    from repro.obs.spans import SpanRecorder

    return SpanRecorder(max_spans=MAX_SPANS)


def _stack() -> List[Any]:
    stack = getattr(_open, "stack", None)
    if stack is None:
        stack = _open.stack = []
    return stack


@contextlib.contextmanager
def span(recorder: Any, name: str, **attrs: Any) -> Iterator[Any]:
    """A span around the block, child of this thread's innermost open span."""
    stack = _stack()
    opened = recorder.start(name, parent=stack[-1] if stack else None, attrs=attrs)
    stack.append(opened)
    try:
        yield opened
    finally:
        stack.pop()
        opened.end()


def wrap(recorder: Any, fn: Callable[..., Any], name: str,
         after: Optional[Callable[[Any, Any], None]] = None) -> Callable[..., Any]:
    """``fn`` with every call recorded as a span named ``name``;
    ``after(span, result)`` may set attributes before the span ends."""

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        with span(recorder, name) as opened:
            result = fn(*args, **kwargs)
            if after is not None:
                after(opened, result)
        return result

    return traced


def record(recorder: Any, name: str, start_ns: int, end_ns: int,
           parent: Optional[Dict[str, Any]] = None, **attrs: Any) -> None:
    """Store a span timed elsewhere (a pool job, a client request), under
    the finished span ``parent`` or as a root of its own."""
    from repro.obs.spans import new_id

    recorder.record({
        "name": name,
        "trace_id": parent["trace_id"] if parent else new_id(16),
        "span_id": new_id(),
        "parent_id": parent["span_id"] if parent else "",
        "start_ns": int(start_ns),
        "end_ns": int(end_ns),
        "dur_ns": int(end_ns) - int(start_ns),
        "attrs": attrs,
    })


def named(spans: List[Dict[str, Any]], name: str) -> List[Dict[str, Any]]:
    return [s for s in spans if s["name"] == name]


def layer_table(recorder: Any, trace_ids: Optional[set] = None) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total and self seconds, over every span or
    over the traces in ``trace_ids``."""
    summary = recorder.summary()
    if summary["retained"] != summary["recorded"]:
        raise RuntimeError(f"span recorder evicted spans: {summary}")
    spans = [s for s in recorder.spans()
             if trace_ids is None or s["trace_id"] in trace_ids]
    children: Dict[str, List[Tuple[int, int]]] = {}
    for s in spans:
        children.setdefault(s["parent_id"], []).append((s["start_ns"], s["end_ns"]))
    table: Dict[str, Dict[str, float]] = {}
    for s in spans:
        row = table.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += (s["end_ns"] - s["start_ns"]) / 1e9
        row["self_s"] += self_time(
            s["start_ns"], s["end_ns"], children.get(s["span_id"], ())) / 1e9
    return table


def patch(target: Any, attr: str, replacement: Any, undo: List[Callable[[], None]]) -> None:
    """``setattr(target, attr, replacement)``, remembering how to undo it."""
    original = getattr(target, attr)
    setattr(target, attr, replacement)
    undo.append(lambda: setattr(target, attr, original))


def unpatch(undo: List[Callable[[], None]]) -> None:
    while undo:
        undo.pop()()


def install(recorder: Any, in_process: bool) -> List[Callable[[], None]]:
    """Wrap the public layer functions; returns the undo list.

    ``in_process`` also wraps the functions that run inside a job
    (trace generation, processor construction and ``run()``).  Leave it
    off while a process pool is running: forked workers would inherit
    the wrappers and record spans nobody collects.
    """
    from repro.engine import cache as engine_cache
    from repro.engine.scheduler import SweepEngine
    from repro.harness import experiment, persistence

    undo: List[Callable[[], None]] = []

    def _hit(opened: Any, result: Any) -> None:
        opened.set_attr("hit", result is not None)

    patch(engine_cache, "job_cache_key",
          wrap(recorder, engine_cache.job_cache_key, "engine.job_cache_key"), undo)
    patch(engine_cache.ResultCache, "get",
          wrap(recorder, engine_cache.ResultCache.get, "engine.cache.get", _hit), undo)
    patch(engine_cache.ResultCache, "put",
          wrap(recorder, engine_cache.ResultCache.put, "engine.cache.put"), undo)
    patch(persistence, "load_result_objects",
          wrap(recorder, persistence.load_result_objects, "harness.load_result_objects"), undo)
    patch(persistence, "save_results",
          wrap(recorder, persistence.save_results, "harness.save_results"), undo)
    patch(SweepEngine, "run", wrap(recorder, SweepEngine.run, "engine.run"), undo)
    if not in_process:
        return undo

    def _trace_len(opened: Any, trace: Any) -> None:
        opened.set_attr("instructions", len(trace))

    def _ran(opened: Any, result: Any) -> None:
        opened.set_attr("instructions", result.instructions)
        opened.set_attr("sim_ns", result.time_ns)

    def _wrap_run(_: Any, processor: Any) -> None:
        # the bound run() of this processor instance only
        processor.run = wrap(recorder, processor.run, "simcore.run", _ran)

    patch(experiment, "generate_trace",
          wrap(recorder, experiment.generate_trace, "workloads.generate_trace", _trace_len), undo)
    patch(experiment, "create_processor",
          wrap(recorder, experiment.create_processor, "simcore.create_processor", _wrap_run), undo)
    return undo

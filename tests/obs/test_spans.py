"""Span tracing: IDs, parent linkage, pickling, trees, Chrome export."""

from __future__ import annotations

import pickle

import pytest

from repro.obs.spans import (
    Span,
    SpanContext,
    SpanRecorder,
    new_id,
    start_worker_span,
)


def _recorder(**kwargs) -> SpanRecorder:
    """A recorder on a deterministic fake clock (1ms per start/record)."""
    ticks = iter(range(0, 10_000_000, 1_000_000))
    return SpanRecorder(clock_ns=lambda: next(ticks), **kwargs)


def test_new_id_is_hex_and_sized():
    assert len(new_id()) == 16
    assert len(new_id(16)) == 32
    int(new_id(), 16)  # parses as hex


def test_root_span_gets_fresh_trace_and_empty_parent():
    recorder = _recorder()
    span = recorder.start("root")
    assert span.parent_id == ""
    assert len(span.trace_id) == 32
    assert span.span_id != span.trace_id


def test_child_inherits_trace_and_links_parent():
    recorder = _recorder()
    root = recorder.start("root")
    child = recorder.start("child", parent=root)
    grandchild = recorder.start("grandchild", parent=child.context)
    assert child.trace_id == root.trace_id == grandchild.trace_id
    assert child.parent_id == root.span_id
    assert grandchild.parent_id == child.span_id


def test_end_is_idempotent_and_records_once():
    recorder = _recorder()
    span = recorder.start("s")
    first = span.end()
    second = span.end()
    assert first == second
    assert recorder.recorded == 1
    assert first["dur_ns"] >= 0


def test_context_manager_marks_errors():
    recorder = _recorder()
    with pytest.raises(RuntimeError):
        with recorder.start("boom") as span:
            raise RuntimeError("nope")
    (finished,) = recorder.spans()
    assert finished["attrs"]["error"] == "RuntimeError: nope"
    assert span.end_ns is not None


def test_span_context_pickles_and_round_trips():
    ctx = SpanContext(trace_id="a" * 32, span_id="b" * 16)
    assert pickle.loads(pickle.dumps(ctx)) == ctx
    assert SpanContext.from_dict(ctx.to_dict()) == ctx


def test_worker_span_stitches_across_the_boundary():
    """The full cross-process protocol, minus the process."""
    recorder = _recorder()
    root = recorder.start("submit")
    # -- worker side: context arrives as a plain dict ------------------
    shipped = root.context.to_dict()
    shipped = pickle.loads(pickle.dumps(shipped))
    worker = start_worker_span("job:x", shipped, attrs={"seed": 3})
    payload = worker.end()
    payload = pickle.loads(pickle.dumps(payload))
    # -- submitting side records the shipped dict ----------------------
    recorder.record(payload)
    root.end()
    spans = recorder.spans(root.trace_id)
    assert {s["name"] for s in spans} == {"submit", "job:x"}
    worker_span = next(s for s in spans if s["name"] == "job:x")
    assert worker_span["trace_id"] == root.trace_id
    assert worker_span["parent_id"] == root.span_id
    assert worker_span["attrs"]["seed"] == 3
    assert "pid" in worker_span["attrs"]


def test_tree_nests_children_under_parents():
    recorder = _recorder()
    root = recorder.start("root")
    a = recorder.start("a", parent=root)
    recorder.start("a1", parent=a).end()
    a.end()
    recorder.start("b", parent=root).end()
    root.end()
    (tree,) = recorder.tree(root.trace_id)
    assert tree["span"]["name"] == "root"
    names = [child["span"]["name"] for child in tree["children"]]
    assert sorted(names) == ["a", "b"]
    a_node = next(c for c in tree["children"] if c["span"]["name"] == "a")
    assert [c["span"]["name"] for c in a_node["children"]] == ["a1"]


def test_orphan_spans_become_roots():
    recorder = _recorder()
    recorder.record({
        "name": "orphan", "trace_id": "t1", "span_id": "s1",
        "parent_id": "evicted", "start_ns": 0, "end_ns": 1, "dur_ns": 1,
        "attrs": {},
    })
    (tree,) = recorder.tree("t1")
    assert tree["span"]["name"] == "orphan"


def test_ring_bound_evicts_oldest():
    recorder = SpanRecorder(max_spans=2)
    for i in range(5):
        recorder.start(f"s{i}").end()
    assert recorder.recorded == 5
    assert [s["name"] for s in recorder.spans()] == ["s3", "s4"]
    with pytest.raises(ValueError):
        SpanRecorder(max_spans=0)


def test_chrome_events_one_slice_per_span_with_pid_tracks():
    recorder = _recorder()
    root = recorder.start("root")
    recorder.record({
        "name": "worker", "trace_id": root.trace_id, "span_id": "w1",
        "parent_id": root.span_id, "start_ns": 100, "end_ns": 400,
        "dur_ns": 300, "attrs": {"pid": 4242},
    })
    root.end()
    events = recorder.chrome_events(root.trace_id)
    slices = [e for e in events if e.get("ph") == "X"]
    assert len(slices) == 2
    worker = next(e for e in slices if e["name"] == "worker")
    local = next(e for e in slices if e["name"] == "root")
    assert worker["tid"] != local["tid"], "distinct pids get distinct tracks"
    assert worker["dur"] == pytest.approx(0.3)  # 300ns -> 0.3us
    assert worker["args"]["trace_id"] == root.trace_id


def test_span_to_dict_before_end_uses_start():
    span = Span("open", trace_id="t", span_id="s")
    payload = span.to_dict()
    assert payload["dur_ns"] == 0
    assert payload["end_ns"] == payload["start_ns"]

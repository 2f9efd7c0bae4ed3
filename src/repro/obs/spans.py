"""Cross-process span tracing: trace/span IDs, parent linkage, stitching.

One *trace* covers one logical request as it moves through the stack --
an HTTP submission, the coalescer flush that batched it, the engine
sweep it rode, and the pool worker that finally simulated it.  Each tier
contributes *spans* (named, wall-clock-timed intervals) that link to
their parent by ID, so the pieces stitch back into one tree even though
they were produced in different threads and processes.

Crossing the process boundary is by value, in both directions:

* a :class:`SpanContext` (just the ``trace_id``/``span_id`` pair) is a
  frozen picklable dataclass that travels *into* the worker inside the
  :class:`~repro.engine.jobs.SweepJob` (or as a plain dict argument of
  the pool entry point);
* the worker builds a standalone span with :func:`start_worker_span`,
  and the finished span *dict* travels back as part of the pool entry's
  return value, where the engine records it into the submitting
  process's :class:`SpanRecorder`.

Timestamps are ``time.time_ns()`` epoch wall clocks so spans from
different processes share an origin (modulo OS clock skew, which is
orders of magnitude below the millisecond spans we time).  The recorder
exports finished spans as Chrome-trace ``"X"`` (complete) events,
viewable alongside the simulator's own traces.  Disabled tracing is
``None``: instrumented code takes ``tracer: Optional[SpanRecorder] =
None`` and tests ``is not None`` before every use, so the disabled path
makes no calls into this module.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Mapping, Optional, Union


def new_id(nbytes: int = 8) -> str:
    """A random lowercase-hex identifier (16 chars at the default width)."""
    return os.urandom(nbytes).hex()


@dataclass(frozen=True)
class SpanContext:
    """The propagatable identity of a span: enough to parent children."""

    trace_id: str
    span_id: str

    def to_dict(self) -> Dict[str, str]:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "SpanContext":
        return SpanContext(
            trace_id=str(payload["trace_id"]),
            span_id=str(payload["span_id"]),
        )


class Span:
    """One in-progress (or finished) named interval."""

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id",
        "start_ns", "end_ns", "attrs", "_recorder",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: str = "",
        start_ns: Optional[int] = None,
        attrs: Optional[Dict[str, Any]] = None,
        recorder: "Optional[SpanRecorder]" = None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_ns = int(time.time_ns() if start_ns is None else start_ns)
        self.end_ns: Optional[int] = None
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        self._recorder = recorder

    @property
    def context(self) -> SpanContext:
        return SpanContext(trace_id=self.trace_id, span_id=self.span_id)

    def set_attr(self, key: str, value: Any) -> None:
        # each Span instance is owned by exactly one context (the loop
        # span in a handler, the worker span in its process); only the
        # finished dict crosses boundaries, so writes need no lock.
        self.attrs[key] = value  # statcheck: disable=LOCK001 -- single-owner span instance

    def to_dict(self) -> Dict[str, Any]:
        end_ns = self.start_ns if self.end_ns is None else self.end_ns
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_ns": self.start_ns,
            "end_ns": end_ns,
            "dur_ns": end_ns - self.start_ns,
            "attrs": dict(self.attrs),
        }

    def end(self, end_ns: Optional[int] = None) -> Dict[str, Any]:
        """Finish the span (idempotent); returns the finished-span dict.

        Attached spans record themselves into their recorder on the
        first ``end()``; standalone (worker) spans just return the dict
        for the caller to ship across the process boundary.
        """
        if self.end_ns is not None:
            return self.to_dict()
        self.end_ns = int(time.time_ns() if end_ns is None else end_ns)  # statcheck: disable=LOCK001 -- single-owner span instance; end() is idempotent
        payload = self.to_dict()
        if self._recorder is not None:
            self._recorder.record(payload)
        return payload

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if exc_type is not None:
            self.attrs.setdefault("error", f"{exc_type.__name__}: {exc}")
        self.end()


def start_worker_span(
    name: str,
    parent: Union[SpanContext, Mapping[str, Any]],
    attrs: Optional[Dict[str, Any]] = None,
) -> Span:
    """A standalone child span for code on the far side of a process
    boundary: no recorder is attached, ``end()`` returns the dict and the
    caller is responsible for shipping it back to the submitting side."""
    ctx = (
        parent
        if isinstance(parent, SpanContext)
        else SpanContext.from_dict(parent)
    )
    span = Span(
        name=name,
        trace_id=ctx.trace_id,
        span_id=new_id(),
        parent_id=ctx.span_id,
        attrs=attrs,
    )
    span.attrs.setdefault("pid", os.getpid())
    return span


class SpanRecorder:
    """Thread-safe bounded store of finished spans, with tree queries."""

    def __init__(
        self,
        max_spans: int = 8192,
        clock_ns: Optional[Callable[[], int]] = None,
    ) -> None:
        if max_spans <= 0:
            raise ValueError("max_spans must be positive")
        self._clock_ns = clock_ns or time.time_ns
        self._lock = threading.Lock()
        self._finished: Deque[Dict[str, Any]] = deque(maxlen=max_spans)
        self.started = 0
        self.recorded = 0

    # -- producing spans -----------------------------------------------

    def start(
        self,
        name: str,
        parent: Union[Span, SpanContext, None] = None,
        trace_id: Optional[str] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Span:
        """Open a span; no ``parent`` starts a new trace (fresh trace ID)."""
        parent_ctx = parent.context if isinstance(parent, Span) else parent
        if parent_ctx is not None:
            trace_id = parent_ctx.trace_id
            parent_id = parent_ctx.span_id
        else:
            trace_id = trace_id or new_id(16)
            parent_id = ""
        span = Span(
            name=name,
            trace_id=trace_id,
            span_id=new_id(),
            parent_id=parent_id,
            start_ns=self._clock_ns(),
            attrs=attrs,
            recorder=self,
        )
        with self._lock:
            self.started += 1
        return span

    def record(self, payload: Mapping[str, Any]) -> None:
        """Store one finished-span dict (local ``Span.end()`` or a worker
        span shipped back across the process boundary)."""
        span = dict(payload)
        with self._lock:
            self._finished.append(span)
            self.recorded += 1

    # -- queries -------------------------------------------------------

    def spans(self, trace_id: Optional[str] = None) -> List[Dict[str, Any]]:
        """Finished spans (optionally one trace's), oldest start first."""
        with self._lock:
            snapshot = list(self._finished)
        if trace_id is not None:
            snapshot = [s for s in snapshot if s.get("trace_id") == trace_id]
        return sorted(snapshot, key=lambda s: (s.get("start_ns", 0),
                                               s.get("end_ns", 0)))

    def tree(self, trace_id: str) -> List[Dict[str, Any]]:
        """One trace's spans nested as ``{"span": ..., "children": [...]}``.

        Roots are spans whose parent is empty or not in the recorded set
        (e.g. evicted from the ring); children sort by start time.
        """
        flat = self.spans(trace_id)
        nodes = {
            s["span_id"]: {"span": s, "children": []}
            for s in flat
            if "span_id" in s
        }
        roots: List[Dict[str, Any]] = []
        for span in flat:
            node = nodes[span["span_id"]]
            parent = nodes.get(span.get("parent_id", ""))
            if parent is None or parent is node:
                roots.append(node)
            else:
                parent["children"].append(node)
        return roots

    def chrome_events(
        self, trace_id: Optional[str] = None
    ) -> List[Dict[str, Any]]:
        """Finished spans as Chrome-trace ``"X"`` (complete) events.

        Timestamps are microseconds relative to the earliest span start;
        each producing process gets its own ``tid`` track so the serve
        loop, engine thread, and every pool worker render as lanes.
        """
        flat = self.spans(trace_id)
        if not flat:
            return []
        t0_ns = min(s.get("start_ns", 0) for s in flat)
        tids: Dict[Any, int] = {}
        events: List[Dict[str, Any]] = []
        for span in flat:
            pid = span.get("attrs", {}).get("pid", 0)
            tid = tids.setdefault(pid, len(tids))
            events.append(
                {
                    "name": span.get("name", "span"),
                    "ph": "X",
                    "ts": (span.get("start_ns", t0_ns) - t0_ns) / 1e3,
                    "dur": span.get("dur_ns", 0) / 1e3,
                    "pid": 1,
                    "tid": tid,
                    "args": {
                        "trace_id": span.get("trace_id", ""),
                        "span_id": span.get("span_id", ""),
                        "parent_id": span.get("parent_id", ""),
                        **span.get("attrs", {}),
                    },
                }
            )
        return events

    def summary(self) -> Dict[str, int]:
        with self._lock:
            return {
                "started": self.started,
                "recorded": self.recorded,
                "retained": len(self._finished),
            }

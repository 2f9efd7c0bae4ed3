"""Structured trace retention and writers (JSONL + Chrome trace format).

A :class:`TraceRecorder` is a bounded ring buffer of event dicts (as
published by :meth:`repro.obs.probe.ProbeBus.event`): full-length runs
stay bounded in memory, keeping the most recent ``ring_size`` events and
counting what was dropped.  Two writers serialize the retained window:

* :meth:`TraceRecorder.write_jsonl` -- one JSON object per line, the
  machine-readable metric stream (schema in :mod:`repro.obs.schema`);
* :meth:`TraceRecorder.write_chrome` -- the Chrome trace event format,
  loadable in ``chrome://tracing`` or https://ui.perfetto.dev: per-domain
  tracks carry occupancy/frequency counter series, FSM transitions and
  reconcile decisions as instant events, and frequency steps as duration
  slices spanning the regulator's slew.

Simulated nanoseconds map to trace microseconds (the Chrome ``ts`` unit),
so one displayed "microsecond" is one simulated nanosecond scaled 1/1000.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Dict, Iterable, List

# Event kinds of the observability stream, in rough publisher order.
KIND_SAMPLE = "sample"
KIND_FSM_TRANSITION = "fsm_transition"
KIND_RECONCILE = "reconcile"
KIND_FREQ_STEP = "freq_step"
KIND_INTERVAL_DECISION = "interval_decision"
KIND_PROFILE = "profile"

#: Stable Chrome-trace thread ids per clock domain (+ one for non-domain
#: events such as profile summaries).
_DOMAIN_TID = {"front_end": 0, "int": 1, "fp": 2, "ls": 3}
_MISC_TID = 9
_PID = 1


class TraceRecorder:
    """Ring-buffered retention of structured trace events."""

    def __init__(self, ring_size: int = 65536) -> None:
        if ring_size <= 0:
            raise ValueError("ring_size must be positive")
        self.ring_size = ring_size
        self._ring: "deque[Dict]" = deque(maxlen=ring_size)
        self.recorded = 0

    def record(self, event: Dict) -> None:
        """Retain one event (oldest events fall out once the ring fills)."""
        self._ring.append(event)
        self.recorded += 1

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def dropped(self) -> int:
        """Events that aged out of the ring."""
        return self.recorded - len(self._ring)

    def events(self) -> List[Dict]:
        """The retained window, oldest first."""
        return list(self._ring)

    def summary(self) -> Dict:
        return {
            "recorded": self.recorded,
            "retained": len(self._ring),
            "dropped": self.dropped,
            "ring_size": self.ring_size,
        }

    # -- writers ------------------------------------------------------

    def write_jsonl(self, path: str) -> str:
        """Write the retained events as JSON lines; returns ``path``."""
        with open(path, "w") as handle:
            for event in self._ring:
                handle.write(json.dumps(event) + "\n")
        return path

    def write_chrome(self, path: str, trace_name: str = "repro-dvfs") -> str:
        """Write the retained events in Chrome trace format; returns ``path``."""
        payload = {
            "traceEvents": chrome_trace_events(self._ring, trace_name),
            "displayTimeUnit": "ns",
            "otherData": {
                "producer": trace_name,
                "recorded": self.recorded,
                "dropped": self.dropped,
            },
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)
        return path


def _tid_for(domain: str) -> int:
    return _DOMAIN_TID.get(domain, _MISC_TID)


def chrome_trace_events(events: Iterable[Dict], trace_name: str = "repro-dvfs") -> List[Dict]:
    """Convert observability events into Chrome trace event dicts.

    Mapping: ``sample`` -> two counter series per domain (occupancy and
    frequency); ``fsm_transition``/``reconcile``/``interval_decision`` ->
    thread-scoped instant events; ``freq_step`` -> a complete ("X") slice
    whose duration is the regulator slew; ``profile`` -> process-scoped
    instants at end-of-run.  Unknown kinds are skipped (forward
    compatibility beats strictness for a visualization artifact).
    """
    out: List[Dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "ts": 0,
            "pid": _PID,
            "tid": 0,
            "args": {"name": trace_name},
        }
    ]
    used_tids = set()

    for event in events:
        kind = event.get("kind")
        ts = float(event.get("t_ns", 0.0)) / 1000.0
        domain = event.get("domain", "")
        tid = _tid_for(domain)

        if kind == KIND_SAMPLE:
            used_tids.add(tid)
            out.append({
                "name": f"occupancy/{domain}", "ph": "C", "ts": ts,
                "pid": _PID, "tid": tid,
                "args": {"entries": event.get("occupancy", 0)},
            })
            out.append({
                "name": f"frequency/{domain}", "ph": "C", "ts": ts,
                "pid": _PID, "tid": tid,
                "args": {"ghz": event.get("freq_ghz", 0.0)},
            })
        elif kind == KIND_FSM_TRANSITION:
            used_tids.add(tid)
            out.append({
                "name": (
                    f"{event.get('signal', '?')}:"
                    f"{event.get('from_state', '?')}->{event.get('to_state', '?')}"
                ),
                "ph": "i", "s": "t", "ts": ts, "pid": _PID, "tid": tid,
                "args": {
                    "dwell_samples": event.get("dwell_samples", 0),
                    "trigger": event.get("trigger", 0),
                },
            })
        elif kind == KIND_RECONCILE:
            used_tids.add(tid)
            out.append({
                "name": f"reconcile:{event.get('outcome', '?')}",
                "ph": "i", "s": "t", "ts": ts, "pid": _PID, "tid": tid,
                "args": {
                    "level_trigger": event.get("level_trigger", 0),
                    "slope_trigger": event.get("slope_trigger", 0),
                    "steps": event.get("steps", 0),
                },
            })
        elif kind == KIND_FREQ_STEP:
            used_tids.add(tid)
            steps = event.get("steps", 0)
            label = f"step {steps:+d}" if steps else "set target"
            out.append({
                "name": label, "ph": "X", "ts": ts,
                "dur": max(0.0, float(event.get("slew_ns", 0.0)) / 1000.0),
                "pid": _PID, "tid": tid,
                "args": {
                    "target_ghz": event.get("target_ghz", 0.0),
                    "freq_ghz": event.get("freq_ghz", 0.0),
                    "applied": event.get("applied", True),
                },
            })
        elif kind == KIND_INTERVAL_DECISION:
            used_tids.add(tid)
            out.append({
                "name": f"interval:{event.get('controller', '?')}",
                "ph": "i", "s": "t", "ts": ts, "pid": _PID, "tid": tid,
                "args": {
                    k: v for k, v in event.items()
                    if k not in ("kind", "t_ns", "domain", "controller")
                },
            })
        elif kind == KIND_PROFILE:
            out.append({
                "name": f"profile:{event.get('phase', '?')}",
                "ph": "i", "s": "p", "ts": ts, "pid": _PID, "tid": _MISC_TID,
                "args": {
                    "wall_s": event.get("wall_s", 0.0),
                    "calls": event.get("calls", 0),
                },
            })
            used_tids.add(_MISC_TID)

    names = {0: "front-end", 1: "INT domain", 2: "FP domain", 3: "LS domain",
             _MISC_TID: "profiler"}
    for tid in sorted(used_tids):
        out.append({
            "name": "thread_name", "ph": "M", "ts": 0, "pid": _PID, "tid": tid,
            "args": {"name": names.get(tid, f"tid-{tid}")},
        })
    return out

"""Schema of the observability event stream, with validators.

Every event in the JSONL metric stream is a flat JSON object carrying a
``kind`` discriminator and a simulated timestamp ``t_ns``; per-kind
required fields are listed in :data:`EVENT_SCHEMAS`.  Extra fields are
allowed (publishers may enrich events), unknown kinds are not (a typo'd
kind would otherwise silently produce an unqueryable stream).

The validators double as the CI gate: ``python -m repro.obs.schema
metrics.jsonl trace.chrome.json`` exits non-zero listing every malformed
event, and ``repro-dvfs trace`` runs the same validation on the files it
just wrote.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Sequence

_NUMBER = (int, float)

#: kind -> {field: allowed type(s)} required beyond the common envelope.
EVENT_SCHEMAS: Dict[str, Dict] = {
    "sample": {
        "domain": str,
        "occupancy": int,
        "freq_ghz": _NUMBER,
        "voltage": _NUMBER,
        "energy": _NUMBER,
    },
    "fsm_transition": {
        "domain": str,
        "signal": str,
        "from_state": str,
        "to_state": str,
        "dwell_samples": int,
        "trigger": int,
    },
    "reconcile": {
        "domain": str,
        "level_trigger": int,
        "slope_trigger": int,
        "outcome": str,
        "steps": int,
    },
    "freq_step": {
        "domain": str,
        "steps": int,
        "target_ghz": _NUMBER,
        "freq_ghz": _NUMBER,
        "applied": bool,
    },
    "interval_decision": {
        "domain": str,
        "controller": str,
    },
    "profile": {
        "phase": str,
        "wall_s": _NUMBER,
        "calls": int,
    },
}

_FSM_STATES = ("wait", "count_up", "count_down")
_RECONCILE_OUTCOMES = ("single", "combine", "cancel")
_TRIGGERS = (-1, 0, 1)

#: Chrome trace phase types we emit (metadata, counter, instant, complete).
_CHROME_PHASES = ("M", "C", "i", "X")


def validate_event(event: Dict) -> List[str]:
    """Return a list of schema violations for one event (empty = valid)."""
    errors: List[str] = []
    if not isinstance(event, dict):
        return [f"event is not an object: {event!r}"]
    kind = event.get("kind")
    if kind not in EVENT_SCHEMAS:
        return [f"unknown event kind {kind!r}"]
    t_ns = event.get("t_ns")
    if not isinstance(t_ns, _NUMBER) or isinstance(t_ns, bool) or t_ns < 0:
        errors.append(f"{kind}: t_ns must be a non-negative number, got {t_ns!r}")
    for name, types in EVENT_SCHEMAS[kind].items():
        if name not in event:
            errors.append(f"{kind}: missing required field {name!r}")
            continue
        value = event[name]
        # bool is an int subclass; only accept it where bool is the spec
        if types is not bool and isinstance(value, bool):
            errors.append(f"{kind}: field {name!r} must be {types}, got bool")
        elif not isinstance(value, types):
            errors.append(
                f"{kind}: field {name!r} must be {types}, got {type(value).__name__}"
            )
    if errors:
        return errors

    # value constraints
    if kind == "sample" and event["occupancy"] < 0:
        errors.append("sample: occupancy must be non-negative")
    if kind == "fsm_transition":
        for field in ("from_state", "to_state"):
            if event[field] not in _FSM_STATES:
                errors.append(
                    f"fsm_transition: {field} must be one of {_FSM_STATES}, "
                    f"got {event[field]!r}"
                )
        if event["trigger"] not in _TRIGGERS:
            errors.append("fsm_transition: trigger must be -1, 0 or +1")
        if event["dwell_samples"] < 0:
            errors.append("fsm_transition: dwell_samples must be non-negative")
    if kind == "reconcile":
        if event["outcome"] not in _RECONCILE_OUTCOMES:
            errors.append(
                f"reconcile: outcome must be one of {_RECONCILE_OUTCOMES}, "
                f"got {event['outcome']!r}"
            )
        for field in ("level_trigger", "slope_trigger"):
            if event[field] not in _TRIGGERS:
                errors.append(f"reconcile: {field} must be -1, 0 or +1")
    return errors


def validate_jsonl_file(path: str) -> List[str]:
    """Validate a JSONL metric stream; returns all violations found."""
    errors: List[str] = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError as exc:
                errors.append(f"{path}:{lineno}: invalid JSON: {exc}")
                continue
            for problem in validate_event(event):
                errors.append(f"{path}:{lineno}: {problem}")
    return errors


def validate_chrome_event(event: Dict) -> List[str]:
    """Validate one Chrome-trace event dict."""
    errors: List[str] = []
    if not isinstance(event, dict):
        return [f"trace event is not an object: {event!r}"]
    ph = event.get("ph")
    if ph not in _CHROME_PHASES:
        errors.append(f"unsupported ph {ph!r} (expected one of {_CHROME_PHASES})")
    if not isinstance(event.get("name"), str) or not event.get("name"):
        errors.append("missing or empty name")
    ts = event.get("ts")
    if not isinstance(ts, _NUMBER) or isinstance(ts, bool) or ts < 0:
        errors.append(f"ts must be a non-negative number, got {ts!r}")
    for field in ("pid", "tid"):
        if not isinstance(event.get(field), int) or isinstance(event.get(field), bool):
            errors.append(f"{field} must be an integer, got {event.get(field)!r}")
    if ph == "X":
        dur = event.get("dur")
        if not isinstance(dur, _NUMBER) or isinstance(dur, bool) or dur < 0:
            errors.append(f"X event dur must be a non-negative number, got {dur!r}")
    if ph == "C" and not isinstance(event.get("args"), dict):
        errors.append("counter event must carry an args object")
    return errors


def validate_chrome_file(path: str) -> List[str]:
    """Validate a Chrome-trace JSON file (the ``traceEvents`` object form)."""
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except ValueError as exc:
        return [f"{path}: invalid JSON: {exc}"]
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        return [f"{path}: expected an object with a traceEvents array"]
    events = payload["traceEvents"]
    if not isinstance(events, list):
        return [f"{path}: traceEvents must be an array"]
    errors: List[str] = []
    for index, event in enumerate(events):
        for problem in validate_chrome_event(event):
            errors.append(f"{path}: traceEvents[{index}]: {problem}")
    return errors


def validate_trace_files(*paths: str) -> List[str]:
    """Dispatch each path to the right validator by suffix."""
    errors: List[str] = []
    for path in paths:
        if path.endswith(".jsonl"):
            errors.extend(validate_jsonl_file(path))
        else:
            errors.extend(validate_chrome_file(path))
    return errors


def main(argv: Sequence[str]) -> int:
    """CLI entry point: ``python -m repro.obs.schema FILE [FILE ...]``."""
    if not argv:
        print("usage: python -m repro.obs.schema FILE.jsonl FILE.json ...",
              file=sys.stderr)
        return 2
    errors = validate_trace_files(*argv)
    for problem in errors:
        print(problem, file=sys.stderr)
    if not errors:
        print(f"ok: {len(argv)} file(s) valid")
    return 1 if errors else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI smoke
    sys.exit(main(sys.argv[1:]))

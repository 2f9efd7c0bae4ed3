"""Output checks: every timed operation's output is verified.

A :class:`Tally` counts attempted operations and the three ways one can
go wrong -- it failed, the server refused it, or it returned a wrong
output.  Any of them makes the run incorrect: ``error_rate`` rises
above zero and the command exits non-zero.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List

from pb.common import metric


@dataclass
class Tally:
    """Operations attempted, and those that went wrong, by cause."""

    attempted: int = 0
    failed: int = 0
    refused: int = 0
    wrong: int = 0
    notes: List[str] = field(default_factory=list)
    #: validity guards that failed: the run did not measure what it claims
    invalid: List[str] = field(default_factory=list)

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, why: str) -> None:
        self.attempted += 1
        self.failed += 1
        self._note(why)

    def refuse(self, why: str) -> None:
        self.attempted += 1
        self.refused += 1
        self._note(why)

    def mark_wrong(self, why: str) -> None:
        """An operation already counted as attempted returned a wrong output."""
        self.wrong += 1
        self._note(why)

    def guard(self, holds: bool, why: str) -> None:
        """Record a validity guard; a failed one makes the run invalid."""
        if not holds:
            self.invalid.append(why)

    def _note(self, why: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(why)

    @property
    def bad(self) -> int:
        return self.failed + self.refused + self.wrong

    @property
    def error_rate(self) -> float:
        return self.bad / self.attempted if self.attempted else 1.0

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.bad == 0 and not self.invalid

    def exit_code(self) -> int:
        return 0 if self.correct else 1


def canonical(payload: Any) -> str:
    """Canonical JSON text of plain data (sorted keys, repr floats)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def result_payload(result: Any) -> Dict[str, Any]:
    """A result as plain data: every simulated statistic, no history."""
    from repro.harness.persistence import result_to_dict

    return json.loads(canonical(result_to_dict(result, include_history=False)))


def digest(payloads: Iterable[Any]) -> str:
    """SHA-256 over the canonical JSON of ``payloads``, in order."""
    h = hashlib.sha256()
    for payload in payloads:
        h.update(canonical(payload).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def compare(tally: Tally, what: str, got: Any, expected: Any) -> bool:
    """Count a wrong output when ``got`` differs from ``expected``."""
    if canonical(got) == canonical(expected):
        return True
    tally.mark_wrong(f"{what}: output differs from the reference")
    return False


def served_result_matches(tally: Tally, what: str, served: Dict[str, Any],
                          announced_sha: str, library: Dict[str, Any]) -> bool:
    """A fetched result carries the announced hash and equals the library's."""
    body = dict(served)
    sha = body.pop("sha", None)
    if sha != announced_sha:
        tally.mark_wrong(f"{what}: sha {sha!r} != announced {announced_sha!r}")
        return False
    return compare(tally, what, body, library)


def exact_counts(reference: List[Dict[str, Any]]) -> Dict[str, Dict[str, object]]:
    """Simulated statistics of one grid pass, as exact counts."""
    return {
        "simcore.instructions": metric(sum(p["instructions"] for p in reference), "count"),
        "simcore.sim_ns": metric(sum(p["time_ns"] for p in reference), "ns"),
        "dvfs.step_events": metric(sum(len(p["step_events"]) for p in reference), "count"),
        "dvfs.transitions": metric(
            sum(sum(p["transitions"].values()) for p in reference), "count"
        ),
    }

"""The probe/metrics bus: counters, gauges, histograms, structured events.

One :class:`ProbeBus` instance serves one simulation (or one sweep job):
the processor, the per-domain DVFS controllers, the regulators, and the
power accounting all publish into it.  Three metric families are kept
in-process, cheap enough to update every 4 ns sampling period:

* **counters** -- monotonically accumulating values (samples seen,
  frequency steps applied, FSM transitions);
* **gauges** -- last-value-wins observations (current occupancy,
  frequency, cumulative per-domain energy);
* **histograms** -- count/sum/min/max summaries of a value stream
  (occupancy distribution, FSM dwell times).

Structured **events** (:meth:`ProbeBus.event`) additionally fan out to any
number of sinks -- typically a :class:`~repro.obs.trace.TraceRecorder`
ring buffer -- and are the raw material of the JSONL and Chrome-trace
artifacts.

When observability is disabled the publishers hold :data:`NULL_PROBE`
instead, whose methods are no-ops; hot paths gate their probe work on
``probe.enabled`` so the disabled configuration does no metric work at
all (the overhead guard in ``tests/obs/test_overhead.py`` proves it).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional


class Histogram:
    """Streaming count/sum/min/max summary of one value series."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def record(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> Dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }


class NullProbe:
    """The disabled probe: every method is a no-op.

    Publishers hold this by default, so instrumented code needs no
    ``if probe is not None`` dance -- but hot loops should still branch on
    :attr:`enabled` to skip even the argument construction.
    """

    enabled = False

    def count(self, name: str, value: float = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def histogram(self, name: str, value: float) -> None:
        pass

    def event(self, kind: str, t_ns: float, **fields) -> None:
        pass

    def summary(self) -> Dict:
        return {}


#: Shared disabled-probe singleton; identity-comparable (`is NULL_PROBE`).
NULL_PROBE = NullProbe()


class ProbeBus:
    """The enabled probe: in-process metric store + event fan-out."""

    enabled = True

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}
        self._sinks: List[Callable[[Dict], None]] = []

    # -- metric families ----------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        # each ProbeBus instance is single-owner: a run's bus lives on
        # the thread executing that run; cross-context delivery goes
        # through the EventBridge hop.
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def histogram(self, name: str, value: float) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.record(value)

    # -- structured events --------------------------------------------

    def add_sink(self, sink: Callable[[Dict], None]) -> None:
        """Register a callable receiving every event dict as emitted."""
        self._sinks.append(sink)

    def event(self, kind: str, t_ns: float, **fields) -> Dict:
        """Publish one structured event; returns the event dict."""
        event = {"kind": kind, "t_ns": t_ns}
        event.update(fields)
        self.count(f"events.{kind}")
        for sink in self._sinks:
            sink(event)
        return event

    # -- reporting ----------------------------------------------------

    def summary(self) -> Dict:
        """Plain JSON-compatible snapshot of every metric."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: hist.summary()
                for name, hist in sorted(self.histograms.items())
            },
        }

"""Aggregated service metrics: counters, gauges, latency histograms.

Where :class:`~repro.obs.probe.ProbeBus` is *per-run* (one bus per
simulation, summarized onto the result), :class:`MetricsRegistry` is
*per-process*: one registry outlives every request/sweep/engine that
reports into it, which is exactly what an operator scraping ``GET
/metrics`` wants to see.  Three instrument kinds are supported:

* :class:`Counter` -- monotone accumulators (requests served, jobs
  finished by outcome, SSE frames dropped);
* :class:`Gauge` -- last-value-wins observations (queue depth, cache
  hit ratio, instructions/second of the latest run);
* :class:`LatencyHistogram` -- fixed-bucket cumulative histograms with
  a total sum and count, rendering the Prometheus ``_bucket``/``_sum``/
  ``_count`` triple.

Instruments come in *families* keyed by a fixed tuple of label names
(``repro_http_requests_total{method,route,status}``); bare instruments
are single-child families with no labels.  The registry's one output is
the Prometheus text exposition format
(:meth:`MetricsRegistry.render_prometheus`); rates and quantiles are the
scraper's business (``repro-dvfs top`` derives both from successive
scrapes).

Disabled metrics are ``None``: instrumented code takes
``metrics: Optional[MetricsRegistry] = None`` and resolves its
instruments once, at construction, so the disabled path makes **zero**
calls into this module -- the ``sys.setprofile`` guards in
``tests/obs/test_overhead.py`` enforce it.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union, cast

#: default latency buckets, in seconds (Prometheus client conventions).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


# -- instruments -------------------------------------------------------


class Counter:
    """A monotone accumulator.

    Instruments are shared across the serve loop, executor threads and
    the engine (one registry, handed through ``ServeApp`` to
    ``SweepEngine``), so every mutation holds the instrument lock --
    ``+=`` on a float is read-modify-write and drops increments under
    contention.
    """

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self.value += amount


class Gauge:
    """A last-value-wins observation (also supports deltas)."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount


class LatencyHistogram:
    """Fixed-bucket histogram with Prometheus cumulative semantics.

    ``bounds`` are inclusive upper bounds (``le``); an observation lands
    in the first bucket whose bound is >= the value, or the implicit
    ``+Inf`` overflow bucket past the last bound.
    """

    __slots__ = ("bounds", "bucket_counts", "count", "total", "_lock")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must increase strictly: {bounds}")
        if any(math.isinf(b) for b in bounds):
            raise ValueError("+Inf bucket is implicit; do not pass it")
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.bucket_counts[bisect_left(self.bounds, value)] += 1
            self.count += 1
            self.total += value

    def cumulative(self) -> List[int]:
        """Per-bound cumulative counts; the last entry is the +Inf bucket
        and always equals :attr:`count`."""
        out: List[int] = []
        running = 0
        for n in self.bucket_counts:
            running += n
            out.append(running)
        return out


Instrument = Union[Counter, Gauge, LatencyHistogram]


# -- families ----------------------------------------------------------


class MetricFamily:
    """One named metric and its per-label-value children."""

    kind = ""  # overridden

    def __init__(
        self,
        name: str,
        help_text: str,
        label_names: Tuple[str, ...],
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> None:
        if not _METRIC_NAME.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in label_names:
            if not _LABEL_NAME.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.help = help_text
        self.label_names = label_names
        self.buckets = buckets
        self.children: Dict[Tuple[str, ...], Instrument] = {}
        self._lock = threading.Lock()

    def _new_child(self) -> Instrument:
        raise NotImplementedError

    def _child(self, labelvalues: Dict[str, Any]) -> Instrument:
        if set(labelvalues) != set(self.label_names):
            raise ValueError(
                f"{self.name}: expected labels {self.label_names}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        key = tuple(str(labelvalues[name]) for name in self.label_names)
        child = self.children.get(key)
        if child is None:
            with self._lock:
                child = self.children.get(key)
                if child is None:
                    child = self.children[key] = self._new_child()
        return child


class CounterFamily(MetricFamily):
    kind = "counter"

    def _new_child(self) -> Counter:
        return Counter()

    def labels(self, **labelvalues: Any) -> Counter:
        return cast(Counter, self._child(labelvalues))


class GaugeFamily(MetricFamily):
    kind = "gauge"

    def _new_child(self) -> Gauge:
        return Gauge()

    def labels(self, **labelvalues: Any) -> Gauge:
        return cast(Gauge, self._child(labelvalues))


class HistogramFamily(MetricFamily):
    kind = "histogram"

    def _new_child(self) -> LatencyHistogram:
        return LatencyHistogram(self.buckets or DEFAULT_BUCKETS)

    def labels(self, **labelvalues: Any) -> LatencyHistogram:
        return cast(LatencyHistogram, self._child(labelvalues))


# -- registry ----------------------------------------------------------


class MetricsRegistry:
    """Process-wide metric store with Prometheus text rendering."""

    def __init__(self) -> None:
        self._families: "Dict[str, MetricFamily]" = {}
        self._lock = threading.Lock()

    # -- registration --------------------------------------------------

    def _register(
        self,
        cls: type,
        name: str,
        help_text: str,
        label_names: Tuple[str, ...],
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> MetricFamily:
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if (
                    type(family) is not cls
                    or family.label_names != label_names
                    or family.buckets != buckets
                ):
                    raise ValueError(
                        f"metric {name!r} re-registered with a different "
                        f"kind/labels/buckets"
                    )
                return family
            family = cls(name, help_text, label_names, buckets)
            self._families[name] = family
            return family

    def counter_family(
        self, name: str, help_text: str, labels: Sequence[str]
    ) -> CounterFamily:
        return cast(
            CounterFamily,
            self._register(CounterFamily, name, help_text, tuple(labels)),
        )

    def gauge_family(
        self, name: str, help_text: str, labels: Sequence[str]
    ) -> GaugeFamily:
        return cast(
            GaugeFamily,
            self._register(GaugeFamily, name, help_text, tuple(labels)),
        )

    def histogram_family(
        self,
        name: str,
        help_text: str,
        labels: Sequence[str],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> HistogramFamily:
        return cast(
            HistogramFamily,
            self._register(
                HistogramFamily, name, help_text, tuple(labels),
                tuple(float(b) for b in buckets),
            ),
        )

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self.counter_family(name, help_text, ()).labels()

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self.gauge_family(name, help_text, ()).labels()

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> LatencyHistogram:
        return self.histogram_family(name, help_text, (), buckets).labels()

    # -- rendering -----------------------------------------------------

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        with self._lock:
            families = list(self._families.values())
        for family in families:
            if family.help:
                lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for key in sorted(family.children):
                child = family.children[key]
                if isinstance(child, LatencyHistogram):
                    cumulative = child.cumulative()
                    for bound, cum in zip(child.bounds, cumulative):
                        labels = _format_labels(
                            family.label_names + ("le",),
                            key + (_format_bound(bound),),
                        )
                        lines.append(f"{family.name}_bucket{labels} {cum}")
                    inf_labels = _format_labels(
                        family.label_names + ("le",), key + ("+Inf",)
                    )
                    lines.append(f"{family.name}_bucket{inf_labels} {child.count}")
                    plain = _format_labels(family.label_names, key)
                    lines.append(
                        f"{family.name}_sum{plain} {_format_value(child.total)}"
                    )
                    lines.append(f"{family.name}_count{plain} {child.count}")
                else:
                    labels = _format_labels(family.label_names, key)
                    lines.append(
                        f"{family.name}{labels} {_format_value(child.value)}"
                    )
        return "\n".join(lines) + "\n" if lines else ""


# -- formatting helpers ------------------------------------------------


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_labels(names: Tuple[str, ...], values: Tuple[str, ...]) -> str:
    if not names:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(names, values)
    )
    return "{" + pairs + "}"


def _format_bound(bound: float) -> str:
    if bound == int(bound):
        return str(float(bound))
    return repr(bound)


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)

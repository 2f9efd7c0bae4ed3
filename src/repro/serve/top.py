"""``repro-dvfs top``: a terminal dashboard over ``GET /metrics``.

The dashboard is three small, separately-testable pieces:

* :func:`parse_prometheus` -- a lenient parser of the Prometheus text
  exposition format (the inverse of
  :meth:`repro.obs.metrics.MetricsRegistry.render_prometheus`), returning
  flat :class:`Sample` tuples;
* :func:`build_snapshot` / :func:`render` -- pure functions from samples
  to the screen string, so tests can assert on output without a server
  or a terminal;
* :func:`run_top` -- the polling loop that ties them to a live service
  through :class:`repro.serve.client.ServeClient`.

Rates are computed client-side from successive scrapes (count delta over
the poll interval); latency quantiles come from the cumulative histogram
buckets the server exposes.
"""

from __future__ import annotations

import sys
import time
from typing import (
    Any,
    Dict,
    IO,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

LabelSet = Tuple[Tuple[str, str], ...]


class Sample(NamedTuple):
    """One exposition sample: ``name{labels} value``."""

    name: str
    labels: LabelSet
    value: float


def _unescape(value: str) -> str:
    out: List[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            if nxt == "n":
                out.append("\n")
            elif nxt in ("\\", '"'):
                out.append(nxt)
            else:
                out.append(ch)
                out.append(nxt)
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _parse_labels(text: str) -> LabelSet:
    """Parse ``a="x",b="y"`` (quoted values may contain escapes)."""
    labels: List[Tuple[str, str]] = []
    i = 0
    while i < len(text):
        eq = text.index("=", i)
        name = text[i:eq].strip().strip(",")
        if text[eq + 1] != '"':
            raise ValueError(f"unquoted label value in {text!r}")
        j = eq + 2
        raw: List[str] = []
        while j < len(text):
            ch = text[j]
            if ch == "\\" and j + 1 < len(text):
                raw.append(text[j:j + 2])
                j += 2
                continue
            if ch == '"':
                break
            raw.append(ch)
            j += 1
        else:
            raise ValueError(f"unterminated label value in {text!r}")
        labels.append((name, _unescape("".join(raw))))
        i = j + 1
    return tuple(labels)


def parse_prometheus(text: str) -> List[Sample]:
    """Parse exposition text into samples; comment/blank lines skipped.

    Lenient by design (a dashboard should degrade, not crash): lines it
    cannot parse are ignored.
    """
    samples: List[Sample] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if "{" in line:
                brace = line.index("{")
                name = line[:brace]
                close = line.rindex("}")
                labels = _parse_labels(line[brace + 1:close])
                value = float(line[close + 1:].strip())
            else:
                name, value_text = line.split(None, 1)
                labels = ()
                value = float(value_text)
        except (ValueError, IndexError):
            continue
        samples.append(Sample(name, labels, value))
    return samples


def build_snapshot(samples: Sequence[Sample]) -> Dict[str, Dict[LabelSet, float]]:
    """Index samples as ``{name: {labelset: value}}``."""
    snapshot: Dict[str, Dict[LabelSet, float]] = {}
    for sample in samples:
        snapshot.setdefault(sample.name, {})[sample.labels] = sample.value
    return snapshot


def _value(
    snapshot: Dict[str, Dict[LabelSet, float]],
    name: str,
    labels: LabelSet = (),
    default: float = 0.0,
) -> float:
    return snapshot.get(name, {}).get(labels, default)


def _total(
    snapshot: Dict[str, Dict[LabelSet, float]], name: str
) -> float:
    return sum(snapshot.get(name, {}).values())


def histogram_quantile(
    q: float, buckets: Sequence[Tuple[float, float]]
) -> Optional[float]:
    """Upper-bound estimate of quantile ``q`` from cumulative buckets.

    ``buckets`` is ``[(le, cumulative_count), ...]``; the +Inf bucket is
    ``float("inf")``.  Returns the bound of the first bucket covering
    the target rank (the classic Prometheus estimate, minus the
    intra-bucket interpolation), or ``None`` with no observations.
    """
    ordered = sorted(buckets)
    if not ordered or ordered[-1][1] <= 0:
        return None
    target = q * ordered[-1][1]
    previous_bound = 0.0
    for bound, cumulative in ordered:
        if cumulative >= target:
            if bound == float("inf"):
                return previous_bound
            return bound
        previous_bound = bound
    return previous_bound


def _route_rows(
    snapshot: Dict[str, Dict[LabelSet, float]],
    prev: Optional[Dict[str, Dict[LabelSet, float]]],
    interval_s: float,
) -> List[Dict[str, Any]]:
    """Per-(method, route) request counts, rates, and latency quantiles."""
    requests = snapshot.get("repro_http_requests_total", {})
    counts: Dict[Tuple[str, str], float] = {}
    for labels, value in requests.items():
        key = (dict(labels).get("method", "?"), dict(labels).get("route", "?"))
        counts[key] = counts.get(key, 0.0) + value
    prev_counts: Dict[Tuple[str, str], float] = {}
    if prev is not None:
        for labels, value in prev.get("repro_http_requests_total", {}).items():
            key = (dict(labels).get("method", "?"),
                   dict(labels).get("route", "?"))
            prev_counts[key] = prev_counts.get(key, 0.0) + value
    buckets_by_key: Dict[Tuple[str, str], List[Tuple[float, float]]] = {}
    for labels, value in snapshot.get(
        "repro_http_request_seconds_bucket", {}
    ).items():
        as_dict = dict(labels)
        key = (as_dict.get("method", "?"), as_dict.get("route", "?"))
        le = as_dict.get("le", "")
        bound = float("inf") if le == "+Inf" else float(le or "inf")
        buckets_by_key.setdefault(key, []).append((bound, value))
    rows = []
    for (method, route), count in sorted(counts.items()):
        buckets = buckets_by_key.get((method, route), [])
        rate = 0.0
        if interval_s > 0:
            rate = max(0.0, count - prev_counts.get((method, route), 0.0))
            rate /= interval_s
        rows.append({
            "method": method,
            "route": route,
            "count": int(count),
            "rate": rate,
            "p50": histogram_quantile(0.50, buckets),
            "p95": histogram_quantile(0.95, buckets),
        })
    return rows


def _fmt_latency(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    if seconds < 1.0:
        return f"{seconds * 1e3:.4g}ms"
    return f"{seconds:.3g}s"


def render(
    snapshot: Dict[str, Dict[LabelSet, float]],
    prev: Optional[Dict[str, Dict[LabelSet, float]]] = None,
    interval_s: float = 0.0,
) -> str:
    """The dashboard screen for one scrape (pure; no I/O)."""
    lines: List[str] = []
    uptime = _value(snapshot, "repro_serve_uptime_seconds")
    lines.append(
        f"repro-dvfs top -- uptime {uptime:8.1f}s   "
        f"results in memory: {_value(snapshot, 'repro_serve_results_in_memory'):.0f}"
    )
    jobs = snapshot.get("repro_serve_jobs", {})
    if jobs:
        states = "  ".join(
            f"{dict(labels).get('state', '?')}: {value:.0f}"
            for labels, value in sorted(jobs.items())
        )
        lines.append(f"jobs     {states}")
    lines.append("")
    rows = _route_rows(snapshot, prev, interval_s)
    if rows:
        lines.append(
            f"{'METHOD':<7} {'ROUTE':<28} {'COUNT':>7} {'REQ/S':>7} "
            f"{'P50':>9} {'P95':>9}"
        )
        for row in rows:
            lines.append(
                f"{row['method']:<7} {row['route']:<28} {row['count']:>7} "
                f"{row['rate']:>7.1f} {_fmt_latency(row['p50']):>9} "
                f"{_fmt_latency(row['p95']):>9}"
            )
    else:
        lines.append("(no requests recorded yet)")
    lines.append("")
    engine_jobs = snapshot.get("repro_engine_jobs_total", {})
    if engine_jobs:
        outcomes = "  ".join(
            f"{dict(labels).get('outcome', '?')}: {value:.0f}"
            for labels, value in sorted(engine_jobs.items())
        )
        lines.append(f"engine   {outcomes}")
    lines.append(
        "engine   pending: "
        f"{_value(snapshot, 'repro_engine_pending_jobs'):.0f}  "
        f"in-flight: {_value(snapshot, 'repro_engine_inflight_jobs'):.0f}  "
        f"cache hit ratio: "
        f"{_value(snapshot, 'repro_engine_cache_hit_ratio'):.2f}  "
        f"instr/s: {_value(snapshot, 'repro_run_instr_per_s'):,.0f}"
    )
    lines.append(
        "coalesce flushes: "
        f"{_total(snapshot, 'repro_serve_coalescer_flushes_total'):.0f}  "
        "batched runs: "
        f"{_total(snapshot, 'repro_serve_coalescer_batched_runs_total'):.0f}  "
        "pending: "
        f"{_value(snapshot, 'repro_serve_coalescer_pending'):.0f}"
    )
    lines.append(
        "sse      dropped events: "
        f"{_total(snapshot, 'repro_serve_sse_dropped_total'):.0f}"
    )
    return "\n".join(lines) + "\n"


#: ANSI: clear screen, cursor home.
_CLEAR = "\x1b[2J\x1b[H"


def run_top(
    host: str = "127.0.0.1",
    port: int = 8035,
    interval_s: float = 2.0,
    iterations: Optional[int] = None,
    out: Optional[IO[str]] = None,
    clear: bool = True,
) -> int:
    """Poll ``/metrics`` and redraw until interrupted (or ``iterations``).

    Returns a process exit code (1 when the service is unreachable on
    the first poll).
    """
    from repro.serve.client import ServeClient

    stream = out if out is not None else sys.stdout
    prev: Optional[Dict[str, Dict[LabelSet, float]]] = None
    drawn = 0
    with ServeClient(host, port) as client:
        while iterations is None or drawn < iterations:
            try:
                text = client.metrics_text()
            except OSError as exc:
                print(
                    f"repro-dvfs top: cannot scrape "
                    f"http://{host}:{port}/metrics: {exc}",
                    file=sys.stderr,
                )
                return 1 if drawn == 0 else 0
            snapshot = build_snapshot(parse_prometheus(text))
            screen = render(
                snapshot, prev, interval_s if prev is not None else 0.0
            )
            if clear:
                stream.write(_CLEAR)
            stream.write(screen)
            stream.flush()
            prev = snapshot
            drawn += 1
            if iterations is not None and drawn >= iterations:
                break
            try:
                time.sleep(interval_s)
            except KeyboardInterrupt:
                break
    return 0


__all__ = [
    "Sample",
    "parse_prometheus",
    "build_snapshot",
    "histogram_quantile",
    "render",
    "run_top",
]

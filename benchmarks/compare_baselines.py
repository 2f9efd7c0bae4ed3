"""Compare fresh benchmark JSON against committed baselines (stdlib only).

CI's perf-regression job stashes the committed ``benchmarks/results/BENCH_*``
baselines, re-runs the perf benches, and calls this script to gate the
delta.  The gate is deliberately narrow:

* only *ratio-style* metrics are gated (throughputs, speedups, overhead
  ratios) -- they track machine-relative performance, so a 25% swing on the
  same runner class means a real change, not runner lottery;
* the tolerance is direction-aware: a metric may always *improve* without
  bound, and only a degradation beyond ``--tolerance`` (default 25%) fails;
* absolute wall-clock values are reported but never gated -- they say more
  about the runner than the code.

``--warn-only`` (used for fork PRs, whose runners we know nothing about)
prints the same report but always exits 0.

Usage::

    python benchmarks/compare_baselines.py \
        --baseline-dir /tmp/bench-baselines --current-dir benchmarks/results
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, List, Tuple

#: gated metrics per baseline file: (dotted path, good direction)
TRACKED = {
    "BENCH_simcore.json": [
        ("cores.ref.instr_per_s", "higher"),
        ("cores.fast.instr_per_s", "higher"),
        ("speedup", "higher"),
    ],
    "BENCH_obs.json": [
        ("samples_per_s.disabled", "higher"),
        ("samples_per_s.full_trace", "higher"),
        ("overhead_ratio.full_trace", "lower"),
        ("engine_runs_per_s.disabled", "higher"),
        ("engine_runs_per_s.metrics", "higher"),
        ("overhead_ratio.engine_metrics", "lower"),
    ],
    "BENCH_serve.json": [
        ("controller_step.req_per_s", "higher"),
    ],
}


def _lookup(payload: Any, dotted: str) -> float:
    value = payload
    for part in dotted.split("."):
        value = value[part]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError(f"{dotted} is not numeric: {value!r}")
    return float(value)


def compare_file(
    name: str, baseline_path: str, current_path: str, tolerance: float
) -> Tuple[List[str], List[str]]:
    """Returns (report lines, regression lines) for one baseline file."""
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    with open(current_path) as handle:
        current = json.load(handle)

    report: List[str] = [f"{name}:"]
    regressions: List[str] = []
    for dotted, direction in TRACKED[name]:
        try:
            base = _lookup(baseline, dotted)
            cur = _lookup(current, dotted)
        except (KeyError, TypeError) as exc:
            # a missing tracked metric is a gate failure, not a skip --
            # otherwise renaming a key silently disables its gate
            regressions.append(f"{name}: {dotted}: unreadable ({exc!r})")
            continue
        if base == 0:
            regressions.append(f"{name}: {dotted}: baseline is zero")
            continue
        # normalize so "worse" is always a drop below 1.0
        ratio = cur / base if direction == "higher" else base / cur
        marker = "ok"
        if ratio < 1.0 - tolerance:
            marker = "REGRESSION"
            regressions.append(
                f"{name}: {dotted} degraded {100 * (1 - ratio):.1f}% "
                f"(baseline {base:.4g}, current {cur:.4g}, "
                f"tolerance {100 * tolerance:.0f}%)"
            )
        report.append(
            f"  {dotted:32s} {base:>12.4g} -> {cur:>12.4g}  "
            f"[{marker}, {'+' if ratio >= 1 else '-'}"
            f"{100 * abs(ratio - 1):.1f}% vs baseline]"
        )
    return report, regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline-dir", required=True,
                        help="directory holding the committed BENCH_*.json")
    parser.add_argument("--current-dir", required=True,
                        help="directory holding the freshly generated JSON")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional degradation (default 0.25)")
    parser.add_argument("--warn-only", action="store_true",
                        help="report regressions but exit 0 (fork PRs)")
    parser.add_argument("--only", action="append", default=None,
                        metavar="BENCH_FILE", choices=sorted(TRACKED),
                        help="gate only this baseline file (repeatable); "
                             "default: every tracked file")
    args = parser.parse_args(argv)

    selected = sorted(args.only) if args.only else sorted(TRACKED)
    all_regressions: List[str] = []
    compared = 0
    for name in selected:
        baseline_path = os.path.join(args.baseline_dir, name)
        current_path = os.path.join(args.current_dir, name)
        if not os.path.exists(baseline_path):
            print(f"{name}: no committed baseline; skipping (first run?)")
            continue
        if not os.path.exists(current_path):
            all_regressions.append(
                f"{name}: baseline exists but the bench produced no JSON"
            )
            continue
        report, regressions = compare_file(
            name, baseline_path, current_path, args.tolerance
        )
        print("\n".join(report))
        all_regressions.extend(regressions)
        compared += 1

    if not compared and not all_regressions:
        print("no baselines to compare")
        return 0
    if all_regressions:
        print("\nperformance regressions detected:", file=sys.stderr)
        for line in all_regressions:
            print(f"  {line}", file=sys.stderr)
        if args.warn_only:
            print("warn-only mode: not failing the build", file=sys.stderr)
            return 0
        return 1
    print(f"\nall tracked metrics within {100 * args.tolerance:.0f}% of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())

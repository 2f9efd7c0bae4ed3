"""The repository's benchmark: one command, two workloads.

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 40 --trace 0

``--trace 0`` is the measured run: it prints one row of end-to-end
metrics (with units and, for percentiles, sample counts) and, as the
last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 1`` is the separate traced run: it prints
the per-layer metrics instead and writes a Chrome trace and a layer
table under ``perfbench/out/``.  Either way ``metrics`` holds every
metric ``BENCHMARK.json`` lists for that mode, in its unit; a per-layer
metric of a layer the workload never calls reads 0.  Any wrong output,
failed or refused operation, or failed validity guard makes the exit
code non-zero.  METRICS.md lists every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, NamedTuple

from pb import common

WORKLOAD_NAMES = ("sweep_cold", "serve_mixed")
#: ``setup_s`` is the median over fresh processes that only set up: at
#: least this many, and more while they have taken under SETUP_PROBE_S
#: in all (a cheap set-up is dominated by process-start noise)
SETUP_PROBES = 5
SETUP_PROBE_S = 3.0
MAX_SETUP_PROBES = 15
PROBE_TIMEOUT_S = 170.0


class Workload(NamedTuple):
    setup: Callable[[int], Any]
    measure: Callable[[Any, float], Dict[str, Any]]
    traced: Callable[[Any, float, Any], Dict[str, Any]]
    teardown: Callable[[Any], None]


def workload(name: str) -> Workload:
    from pb import serve, sweeps

    if name == "serve_mixed":
        return Workload(serve.setup, serve.measure, serve.traced, serve.teardown)
    return Workload(sweeps.setup, sweeps.measure, sweeps.traced, sweeps.teardown)


def setup_probe(name: str, seed: int) -> float:
    """Spawn a fresh benchmark process that only sets up; returns the
    seconds from spawning it to its being ready for a first timed op."""
    started = time.monotonic()
    child = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        stdout=subprocess.PIPE, timeout=PROBE_TIMEOUT_S, check=True, cwd=common.ROOT,
    )
    ready = json.loads(child.stdout.decode().strip().splitlines()[-1])["ready"]
    return ready - started


def manifest_units(trace: int) -> Dict[str, str]:
    """Name -> unit of every metric ``BENCHMARK.json`` lists for this mode."""
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    return {entry["name"]: entry["unit"]
            for entry in manifest["per_layer" if trace else "end_to_end"]}


def complete(metrics: Dict[str, Dict[str, Any]], trace: int) -> List[str]:
    """Check ``metrics`` against the manifest; returns the metrics it
    lists that the run did not produce.  Missing per-layer metrics are
    those of layers the workload never calls: they are set to 0.

    A metric the manifest lacks or a unit that differs is a fault of the
    benchmark and raises.
    """
    units = manifest_units(trace)
    unknown = sorted(set(metrics) - set(units))
    wrong = sorted(k for k in metrics if k in units and metrics[k]["unit"] != units[k])
    if unknown or wrong:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: unknown {unknown}, "
                           f"wrong unit {wrong}")
    missing = [k for k in units if k not in metrics]
    if trace:
        for key in missing:
            metrics[key] = common.metric(0, units[key])
    return missing


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_row(name: str, metrics: Dict[str, Dict[str, Any]], notes: Dict[str, Any],
              tally: Any) -> None:
    counts = notes.get("samples", {})
    shown = dict(metrics, **notes.get("shown", {}))
    cells = [f"{key}={_fmt(entry['value'])} {entry['unit']}"
             + (f" (n={counts[key]})" if key in counts else "")
             for key, entry in sorted(shown.items())]
    cells.append(f"error_rate={_fmt(tally.error_rate)} ratio")
    print(f"{name}: " + "  ".join(cells))
    for key, value in notes.items():
        if key not in ("samples", "shown"):
            print(f"  {key}: {value}")
    for why in tally.notes + tally.invalid:
        print(f"  ERROR: {why}")


def write_trace(name: str, seed: int, recorder: Any, metrics: Dict[str, Any], note: str) -> str:
    from pb import tracing

    out = os.path.join(common.OUT, f"{name}-seed{seed}")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "trace.json"), "w") as handle:
        json.dump({"traceEvents": recorder.chrome_events()}, handle)
    with open(os.path.join(out, "layers.txt"), "w") as handle:
        handle.write(f"{name} seed {seed}: per-layer table ({note})\n")
        handle.write(f"{'span':36} {'calls':>8} {'total_s':>12} {'self_s':>12}\n")
        for span, row in sorted(tracing.layer_table(recorder).items()):
            handle.write(f"{span:36} {row['calls']:8d} {row['total_s']:12.6f} "
                         f"{row['self_s']:12.6f}\n")
        handle.write("\nmetrics\n")
        for key, entry in sorted(metrics.items()):
            handle.write(f"{key:44} {_fmt(entry['value']):>14} {entry['unit']}\n")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    common.use_source_tree()
    chosen = workload(args.workload)

    if args.setup_probe:
        state = chosen.setup(args.seed)
        print(json.dumps({"ready": time.monotonic()}), flush=True)
        chosen.teardown(state)
        return 0

    from pb.tracing import new_recorder

    recorder = new_recorder() if args.trace else None
    state = chosen.setup(args.seed)
    try:
        if recorder is not None:
            result = chosen.traced(state, args.seconds, recorder)
        else:
            result = chosen.measure(state, args.seconds)
            if "peak_rss_mb" not in result["metrics"]:
                result["metrics"]["peak_rss_mb"] = common.metric(
                    common.self_and_children_peak_rss_mb(), "MB")
    finally:
        chosen.teardown(state)
    tally = state.tally
    metrics = result["metrics"]
    if recorder is None:
        setups: list = []
        while len(setups) < SETUP_PROBES or (
                sum(setups) < SETUP_PROBE_S and len(setups) < MAX_SETUP_PROBES):
            setups.append(setup_probe(args.workload, args.seed))
        metrics["setup_s"] = common.metric(statistics.median(setups), "s")
        result["notes"]["setup_s_probes"] = [round(s, 4) for s in setups]
    else:
        result["notes"]["trace_dir"] = write_trace(
            args.workload, args.seed, recorder, metrics,
            str(result["notes"].get("split_inside_job", "client and server spans")))
    missing = complete(metrics, args.trace)
    if args.trace and missing:
        result["notes"]["zero_off_path"] = " ".join(missing)
    print_row(args.workload, metrics, result["notes"], tally)
    if missing and not args.trace:
        # only an invalid run lacks an end-to-end metric: no result line
        print(f"  ERROR: no value for {', '.join(missing)}")
        return 1
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.bad,
        "metrics": {key: metrics[key] for key in sorted(metrics)},
    }))
    return tally.exit_code()


if __name__ == "__main__":
    sys.exit(main())

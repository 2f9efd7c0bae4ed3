"""Simulator-core throughput: reference loop vs fast path.

Times ``processor.run()`` for both scalar cores on the same pre-generated
trace (gzip, 60k instructions, adaptive control) and records
instructions/sec, samples/sec, and the fast core's per-phase wall-time
split.  Trace generation and controller/processor construction happen
outside the timed regions -- identical work for every core and not part
of simulator throughput.

Writes ``benchmarks/results/BENCH_simcore.json`` so successive PRs can
diff the perf trajectory mechanically; the CI perf-regression job compares
a fresh run of this bench against the committed baseline (the
``instr_per_s`` and ``speedup`` keys are the tracked series).  The bench
re-checks bit-identity on the measured runs, so a speedup bought by
divergence fails here before it ever reaches the golden suite.
"""

from __future__ import annotations

import json
import os
import time

from conftest import RESULTS_DIR, emit, run_once

from repro.harness.experiment import build_controllers, run_experiment
from repro.harness.reporting import format_table
from repro.obs import ObsConfig
from repro.simcore import create_processor, results_identical
from repro.workloads.generator import generate_trace
from repro.workloads.suite import get_benchmark

BENCHMARK = "gzip"
INSTRUCTIONS = 60_000
SCHEME = "adaptive"
SEED = 1
#: timing repetitions per core; best-of is reported (shared CI boxes)
ROUNDS = 3


def _timed_run(trace, core):
    """One simulation on ``core``; returns (result, wall seconds)."""
    controllers = build_controllers(SCHEME)
    processor = create_processor(
        trace=trace,
        controllers=controllers,
        seed=SEED,
        benchmark=BENCHMARK,
        scheme=SCHEME,
        simcore=core,
    )
    started = time.perf_counter()
    result = processor.run()
    return result, time.perf_counter() - started


def _measure():
    spec = get_benchmark(BENCHMARK)
    trace = generate_trace(spec, max_instructions=INSTRUCTIONS, seed=SEED)

    results = {}
    walls = {}
    for core in ("ref", "fast"):
        best = None
        for _ in range(ROUNDS):
            result, wall_s = _timed_run(trace, core)
            best = wall_s if best is None or wall_s < best else best
        results[core] = result
        walls[core] = best

    # per-phase wall split of the fast core's sample path (PhaseProfiler)
    profiled = run_experiment(
        BENCHMARK,
        scheme=SCHEME,
        max_instructions=INSTRUCTIONS,
        seed=SEED,
        record_history=False,
        obs=ObsConfig(trace=False, profile=True),
        simcore="fast",
    )
    return results, walls, profiled.probe_summary["profile"]


def test_simcore_throughput(benchmark):
    results, walls, profile = run_once(benchmark, _measure)

    identical = results_identical(results["ref"], results["fast"])
    instructions = results["fast"].instructions
    samples = profile["samples"]
    speedup = walls["ref"] / walls["fast"]

    payload = {
        "benchmark": BENCHMARK,
        "instructions": instructions,
        "scheme": SCHEME,
        "seed": SEED,
        "samples": samples,
        "cores": {
            core: {
                "wall_s": walls[core],
                "instr_per_s": instructions / walls[core],
                "samples_per_s": samples / walls[core],
            }
            for core in ("ref", "fast")
        },
        "speedup": speedup,
        "identical": identical,
        "phases": profile["phases"],
    }

    os.makedirs(RESULTS_DIR, exist_ok=True)
    json_path = os.path.join(RESULTS_DIR, "BENCH_simcore.json")
    with open(json_path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)

    rows = [
        [
            core,
            f"{walls[core]:.3f} s",
            f"{instructions / walls[core]:,.0f}",
            f"{samples / walls[core]:,.0f}",
        ]
        for core in ("ref", "fast")
    ]
    rows.append(["speedup", f"{speedup:.2f}x", "", ""])
    for phase, stats in sorted(profile["phases"].items()):
        rows.append(
            [
                f"  fast phase {phase}",
                f"{stats['wall_s'] * 1e3:.1f} ms",
                "",
                f"{stats['share']:.0%} of run",
            ]
        )
    table = format_table(
        ["core", "wall", "instructions/s", "samples/s"],
        rows,
        title=(
            f"Simulator core throughput ({BENCHMARK}, {INSTRUCTIONS:,} "
            f"instructions, {SCHEME})"
        ),
    )
    emit("simcore_throughput", table + f"\n[json written to {json_path}]")

    assert identical, "fast core diverged from the reference on the bench run"
    assert instructions == INSTRUCTIONS
    # the committed baseline records the real speedup (>=2x on an idle box);
    # this floor only exists to fail loud on a catastrophic regression while
    # staying robust to noisy shared CI runners -- the +-25% gate against
    # the baseline is the actual tracking mechanism
    assert speedup >= 1.5, f"fast core speedup collapsed: {speedup:.2f}x"

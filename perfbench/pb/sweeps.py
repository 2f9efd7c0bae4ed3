"""``sweep_cold``: the paper's benchmark x scheme x seed grid through
:class:`repro.engine.SweepEngine`, as a user runs it.

The grid runs again and again, each pass against an empty cache
directory, so every job generates its trace and simulates on the
process pool.  It uses what a user gets by default: ``workers = nproc``,
the default core.
"""

from __future__ import annotations

import dataclasses
import random
import time
from typing import Any, Dict, List, Optional, Tuple

from pb import checks, tracing
from pb.common import cache_entry_bytes, metric, nproc, remove, scratch_dir
from pb.tracing import install, unpatch

#: benchmarks chosen for the inputs that set host cost: many-phase
#: fast-varying codecs, the two-phase FP exemplar, compute-bound,
#: FP, and memory-bound (~10x the simulated ns per instruction)
BENCHMARKS = ("gsm-decode", "adpcm-encode", "epic-decode", "gzip", "swim", "mcf")
#: the paper's four schemes
SCHEMES = ("full-speed", "adaptive", "pid", "attack-decay")
SEEDS_PER_GRID = 2
INSTRUCTIONS = 1000


def grid_seeds(seed: int) -> List[int]:
    return sorted(random.Random(f"sweep:{seed}").sample(range(1, 1 << 30), SEEDS_PER_GRID))


def make_grid(seed: int) -> List[Any]:
    from repro.engine import SweepJob

    return [
        SweepJob.make(bench, scheme, max_instructions=INSTRUCTIONS, seed=grid_seed)
        for bench in BENCHMARKS
        for scheme in SCHEMES
        for grid_seed in grid_seeds(seed)
    ]


@dataclasses.dataclass
class SweepState:
    seed: int
    jobs: List[Any]
    workers: int
    #: per-job result payloads of the first pass
    reference: Optional[List[Dict[str, Any]]] = None
    #: mean size of a cache entry after the latest pass
    entry_bytes: float = 0.0
    tally: checks.Tally = dataclasses.field(default_factory=checks.Tally)
    #: job attempts beyond the first, over every pass
    retried: int = 0


def setup(seed: int) -> SweepState:
    return SweepState(seed=seed, jobs=make_grid(seed), workers=nproc())


def teardown(state: SweepState) -> None:
    """Nothing outlives a pass: each removes its own cache directory."""


def _engine(state: SweepState, cache_dir: str, workers: Optional[int] = None,
            tracer: Any = None) -> Any:
    from repro.engine import EngineConfig, SweepEngine

    config = EngineConfig(workers=workers or state.workers, cache_dir=cache_dir)
    if tracer is None:
        return SweepEngine(config)
    return SweepEngine(config, tracer=tracer)


def _check_pass(state: SweepState, outcomes: List[Any]) -> None:
    """Count one pass's jobs and verify each one's output."""
    tally = state.tally
    payloads = []
    for outcome in outcomes:
        if not outcome.ok:
            tally.fail(f"{outcome.job.job_id}: {outcome.error}")
            payloads.append(None)
            continue
        tally.ok()
        state.retried += max(0, outcome.attempts - 1)
        if outcome.from_cache:
            tally.mark_wrong(f"{outcome.job.job_id}: a cache hit on an empty cache")
        payloads.append(checks.result_payload(outcome.result))
    if len(outcomes) != len(state.jobs):
        tally.mark_wrong(f"{len(outcomes)} outcomes for {len(state.jobs)} jobs")
    if state.reference is None:
        state.reference = payloads
    else:
        for job, got, expected in zip(state.jobs, payloads, state.reference):
            if got is not None:
                checks.compare(tally, job.job_id, got, expected)


def one_pass(state: SweepState, tracer: Any = None) -> Tuple[float, List[Any]]:
    """Run the grid once; returns (timed wall seconds, outcomes)."""
    cache_dir = scratch_dir("cold-")
    engine = _engine(state, cache_dir, tracer=tracer)
    try:
        started = time.perf_counter()
        outcomes = engine.run(state.jobs)
        wall = time.perf_counter() - started
        state.entry_bytes = cache_entry_bytes(cache_dir)
    finally:
        remove(cache_dir)
    return wall, outcomes


def library_spot_check(state: SweepState) -> None:
    """Re-run one job per benchmark in-process and compare byte for byte."""
    from repro.engine import run_job

    per_bench = len(state.jobs) // len(BENCHMARKS)
    for bench in range(len(BENCHMARKS)):
        index = bench * per_bench + bench % per_bench
        job = state.jobs[index]
        checks.compare(state.tally, f"library {job.job_id} seed {job.seed}",
                       state.reference[index], checks.result_payload(run_job(job)))


def pass_latency_ms(walls: List[float]) -> float:
    """The headline of a sweep: the wall time of a grid pass, the wait of
    a user who runs the sweep, as timed wall / passes.

    It is a mean, as completed jobs / timed wall is: on a shared host the
    processor's speed switches every few seconds between regimes up to
    2x apart, and the mean moves only by the share of time each held.
    """
    return sum(walls) / len(walls) * 1e3


def measure(state: SweepState, seconds: float) -> Dict[str, Any]:
    """The measured run: grid passes for ``seconds``."""
    walls = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not walls:
        wall, outcomes = one_pass(state)
        walls.append(wall)
        _check_pass(state, outcomes)
    library_spot_check(state)
    return {
        "metrics": {"latency_ms": metric(pass_latency_ms(walls), "ms")},
        "notes": {
            "passes": len(walls),
            "shown": {"jobs_per_s": metric(len(state.jobs) * len(walls) / sum(walls),
                                           "jobs/s")},
            "jobs_per_pass": len(state.jobs),
            "digest": checks.digest(state.reference),
            "exact_counts": {name: entry["value"] for name, entry
                             in checks.exact_counts(state.reference).items()},
            "grid_seeds": grid_seeds(state.seed),
        },
    }


# -- traced run ----------------------------------------------------------


def _traced_pass(state: SweepState, recorder: Any) -> Tuple[float, List[Any]]:
    """One pooled pass with the parent-side layer functions wrapped.

    Pool jobs come home as the engine's own spans (its public
    ``tracer=`` parameter) and are recorded under ``engine.run``.
    """
    engine_spans = tracing.new_recorder()
    undo = install(recorder, in_process=False)
    try:
        with tracing.span(recorder, "bench.pass", leg="pool") as root:
            wall, outcomes = one_pass(state, tracer=engine_spans)
    finally:
        unpatch(undo)
    engine_run = tracing.named(recorder.spans(root.trace_id), "engine.run")[-1]
    for job in engine_spans.spans():
        if job["name"].startswith("job:"):
            tracing.record(recorder, "engine.pool.job", job["start_ns"], job["end_ns"],
                           parent=engine_run, pid=job["attrs"].get("pid", 0),
                           job=job["name"][4:], seed=job["attrs"].get("seed"))
    return wall, outcomes


def _in_process_leg(state: SweepState, recorder: Any) -> Tuple[str, List[Any]]:
    """One serial pass (workers=1) with every layer function wrapped, for
    the split inside a job that pool workers cannot report; returns the
    pass's trace id and its outcomes."""
    cache_dir = scratch_dir("inproc-")
    undo = install(recorder, in_process=True)
    try:
        with tracing.span(recorder, "bench.pass", leg="in-process") as root:
            outcomes = _engine(state, cache_dir, workers=1).run(state.jobs)
    finally:
        unpatch(undo)
        remove(cache_dir)
    return root.trace_id, outcomes


def _profiled_pass(state: SweepState) -> Dict[str, float]:
    """Phase shares of ``run()`` from the public ``ObsConfig(profile=True)``,
    over the grid's first seed."""
    from repro.engine import run_job
    from repro.obs import ObsConfig

    first = grid_seeds(state.seed)[0]
    phase_s: Dict[str, float] = {}
    wall = 0.0
    for job in state.jobs:
        if job.seed != first:
            continue
        profiled = run_job(dataclasses.replace(job, obs=ObsConfig(trace=False, profile=True)))
        profile = profiled.probe_summary["profile"]
        wall += profile["wall_s"]
        for phase, stats in profile["phases"].items():
            phase_s[phase] = phase_s.get(phase, 0.0) + stats["wall_s"]
    shares = {phase: seconds / wall for phase, seconds in phase_s.items()}
    shares["unattributed"] = 1.0 - sum(shares.values())
    return shares


def traced(state: SweepState, seconds: float, recorder: Any) -> Dict[str, Any]:
    """Per-layer metrics: traced and untraced passes alternate for
    ``seconds``, then an in-process and a profiled pass."""
    plain_walls: List[float] = []
    traced_walls: List[float] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not traced_walls:
        wall, outcomes = one_pass(state)
        plain_walls.append(wall)
        _check_pass(state, outcomes)
        wall, outcomes = _traced_pass(state, recorder)
        traced_walls.append(wall)
        _check_pass(state, outcomes)
    pool_passes = len(traced_walls)

    table = tracing.layer_table(recorder)
    spans = recorder.spans()
    out: Dict[str, Dict[str, object]] = {}

    def per_pass(name: str, field: str, unit: str, key: str) -> None:
        row = table.get(name, {"calls": 0, "self_s": 0.0})
        out[key] = metric(row[field] / pool_passes, unit)

    for name in ("engine.job_cache_key", "engine.cache.get", "harness.load_result_objects",
                 "engine.cache.put", "harness.save_results"):
        per_pass(name, "calls", "count", f"{name}.calls")
        per_pass(name, "self_s", "s", f"{name}.self_s")
    per_pass("engine.run", "self_s", "s", "engine.run.self_s")
    gets = tracing.named(spans, "engine.cache.get")
    out["engine.cache.hit_ratio"] = metric(
        sum(s["attrs"]["hit"] for s in gets) / len(gets) if gets else 0.0, "ratio")
    out["engine.jobs.failed"] = metric(state.tally.failed, "count")
    out["engine.jobs.retried"] = metric(state.retried, "count")
    out.update(checks.exact_counts(state.reference))
    out["engine.cache.entry_bytes"] = metric(state.entry_bytes, "B")
    busy = sum(s["dur_ns"] for s in tracing.named(spans, "engine.pool.job")) / 1e9
    run_wall = table["engine.run"]["total_s"]
    out["engine.pool.busy_ratio"] = metric(busy / (state.workers * run_wall), "ratio")
    out.update(_in_job_layers(state, recorder))
    out["bench.tracing_overhead"] = metric(
        pass_latency_ms(traced_walls) / pass_latency_ms(plain_walls), "ratio")
    return {
        "metrics": out,
        "notes": {
            "pool_passes_traced": pool_passes,
            "split_inside_job": "in-process leg (workers=1) of the same grid",
            "digest": checks.digest(state.reference),
        },
    }


def _in_job_layers(state: SweepState, recorder: Any) -> Dict[str, Dict[str, object]]:
    """Inside-job layers, from the in-process leg and the profiled pass."""
    trace_id, outcomes = _in_process_leg(state, recorder)
    _check_pass(state, outcomes)
    table = tracing.layer_table(recorder, {trace_id})
    spans = recorder.spans(trace_id)

    def total(name: str, attr: str) -> float:
        return sum(s["attrs"][attr] for s in tracing.named(spans, name))

    gen = table["workloads.generate_trace"]
    run = table["simcore.run"]
    out = {
        "workloads.generate_trace.calls": metric(gen["calls"], "count"),
        "workloads.generate_trace.self_s": metric(gen["self_s"], "s"),
        "workloads.generate_trace.instr_per_s": metric(
            total("workloads.generate_trace", "instructions") / gen["self_s"], "instr/s"),
        "simcore.create_processor.self_s": metric(table["simcore.create_processor"]["self_s"], "s"),
        "simcore.run.calls": metric(run["calls"], "count"),
        "simcore.run.self_s": metric(run["self_s"], "s"),
        "simcore.run.instr_per_s": metric(
            total("simcore.run", "instructions") / run["self_s"], "instr/s"),
        "simcore.run.sim_ns_per_s": metric(total("simcore.run", "sim_ns") / run["self_s"], "ns/s"),
    }
    for phase, share in _profiled_pass(state).items():
        out[f"simcore.phase.{phase}.share"] = metric(share, "ratio")
    return out

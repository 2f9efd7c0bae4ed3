"""Baseline-relative comparisons across schemes and benchmarks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.mcd.domains import MachineConfig
from repro.mcd.processor import SimulationResult
from repro.power.metrics import (
    RunMetrics,
    edp_improvement_percent,
    energy_savings_percent,
    performance_degradation_percent,
)
from repro.workloads.phases import BenchmarkSpec
from repro.workloads.suite import get_benchmark


@dataclass(frozen=True)
class SchemeResult:
    """One scheme's outcome on one benchmark, relative to full speed."""

    scheme: str
    metrics: RunMetrics
    energy_savings_pct: float
    perf_degradation_pct: float
    edp_improvement_pct: float
    transitions: int


@dataclass(frozen=True)
class BenchmarkComparison:
    """All schemes' outcomes on one benchmark."""

    benchmark: str
    suite: str
    fast_varying: bool
    baseline: RunMetrics
    schemes: Tuple[SchemeResult, ...]

    def result_for(self, scheme: str) -> SchemeResult:
        for result in self.schemes:
            if result.scheme == scheme:
                return result
        raise KeyError(f"no result for scheme {scheme!r} on {self.benchmark}")


def comparison_from_runs(
    spec: BenchmarkSpec,
    baseline_run: SimulationResult,
    scheme_runs: Sequence[SimulationResult],
) -> BenchmarkComparison:
    """Assemble a :class:`BenchmarkComparison` from already-executed runs.

    This is the back half of :func:`sweep`: it does not care whether the
    runs came from a worker pool, the result cache, or in-process
    execution.
    """
    baseline = baseline_run.metrics
    results: List[SchemeResult] = []
    for run in scheme_runs:
        metrics = run.metrics
        results.append(
            SchemeResult(
                scheme=run.scheme,
                metrics=metrics,
                energy_savings_pct=energy_savings_percent(baseline, metrics),
                perf_degradation_pct=performance_degradation_percent(baseline, metrics),
                edp_improvement_pct=edp_improvement_percent(baseline, metrics),
                transitions=sum(run.transitions.values()),
            )
        )
    return BenchmarkComparison(
        benchmark=spec.name,
        suite=spec.suite,
        fast_varying=spec.fast_varying,
        baseline=baseline,
        schemes=tuple(results),
    )


def compare_schemes(
    benchmark: Union[str, BenchmarkSpec],
    schemes: Sequence[str] = ("adaptive", "attack-decay", "pid"),
    machine: Optional[MachineConfig] = None,
    max_instructions: Optional[int] = None,
    pid_interval_ns: Optional[float] = None,
    seed: Optional[int] = None,
    obs=None,
    simcore: Optional[str] = None,
) -> BenchmarkComparison:
    """Run the baseline plus each scheme on one benchmark and compare.

    This is ``sweep([benchmark], ...)[0]``: the runs go through a serial,
    uncached engine, so a run that still fails after the engine's retry
    raises ``RuntimeError`` naming it, and ``obs`` takes the picklable
    forms (``True`` / ``ObsConfig``).  ``simcore`` pins the simulation
    core for every run (``None`` defers to ``REPRO_SIMCORE``).
    """
    return sweep(
        [benchmark],
        schemes=schemes,
        machine=machine,
        max_instructions=max_instructions,
        pid_interval_ns=pid_interval_ns,
        seed=seed,
        obs=obs,
        simcore=simcore,
    )[0]


def sweep(
    benchmarks: Iterable[Union[str, BenchmarkSpec]],
    schemes: Sequence[str] = ("adaptive", "attack-decay", "pid"),
    machine: Optional[MachineConfig] = None,
    max_instructions: Optional[int] = None,
    pid_interval_ns: Optional[float] = None,
    engine=None,
    window=None,
    seed: Optional[int] = None,
    on_failure: str = "raise",
    obs=None,
    simcore: Optional[str] = None,
) -> List[BenchmarkComparison]:
    """Compare schemes across a benchmark list (the per-figure sweeps).

    The whole ``(benchmark x scheme)`` grid -- baseline included -- is
    fanned out as one batch of jobs through ``engine`` (a
    :class:`repro.engine.SweepEngine`, gaining its worker pool, result
    cache, retry policy, and telemetry), or through a serial, uncached
    ``SweepEngine()`` when none is given.

    ``window``, when given, is a callable mapping a spec to its
    per-benchmark instruction window and overrides ``max_instructions``
    (the full-evaluation sweep truncates every benchmark except
    ``epic-decode``).  ``on_failure`` controls what happens when a job
    exhausts its retries: ``"raise"`` aborts with details, ``"skip"``
    drops that benchmark's comparison and keeps the rest (failures stay
    visible in the engine's telemetry).

    ``obs`` enables per-run observability.  It must be picklable
    (``True`` or an :class:`repro.obs.ObsConfig`); each job's result then
    carries its ``probe_summary``, which the engine's telemetry
    aggregates into the sweep summary.
    """
    specs = [
        get_benchmark(b) if isinstance(b, str) else b for b in benchmarks
    ]

    def instructions_for(spec: BenchmarkSpec) -> Optional[int]:
        return window(spec) if window is not None else max_instructions

    if on_failure not in ("raise", "skip"):
        raise ValueError(f"on_failure must be 'raise' or 'skip', got {on_failure!r}")

    from repro.engine.jobs import SweepJob
    from repro.engine.scheduler import SweepEngine
    from repro.obs.facade import ObsConfig, Observability

    if obs is True:
        obs = ObsConfig()
    elif isinstance(obs, Observability):
        raise ValueError(
            "the engine path needs a picklable obs form: pass True or an "
            "ObsConfig, not a live Observability"
        )
    elif obs is not None and not isinstance(obs, ObsConfig):
        raise TypeError(f"obs must be None, True, or an ObsConfig, got {type(obs)!r}")

    all_schemes = ("full-speed",) + tuple(schemes)
    jobs = [
        SweepJob(
            benchmark=spec,
            scheme=scheme,
            machine=machine,
            max_instructions=instructions_for(spec),
            seed=seed,
            # only PID consumes the interval override; keeping it off the
            # other schemes' jobs lets their cache entries be shared across
            # interval-sweep invocations (the Table-3 workload)
            pid_interval_ns=pid_interval_ns if scheme == "pid" else None,
            obs=obs,
            simcore=simcore,
        )
        for spec in specs
        for scheme in all_schemes
    ]
    if engine is None:
        engine = SweepEngine()
    outcomes = engine.run(jobs)

    comparisons: List[BenchmarkComparison] = []
    per_spec = len(all_schemes)
    for spec_index, spec in enumerate(specs):
        group = outcomes[spec_index * per_spec:(spec_index + 1) * per_spec]
        failed = [o for o in group if not o.ok]
        if failed:
            if on_failure == "raise":
                details = "; ".join(
                    f"{o.job.job_id}: {o.error}" for o in failed
                )
                raise RuntimeError(
                    f"sweep failed on {spec.name}: {details}"
                )
            continue
        comparisons.append(
            comparison_from_runs(
                spec, group[0].result, [o.result for o in group[1:]]
            )
        )
    return comparisons


def aggregate(
    comparisons: Sequence[BenchmarkComparison], scheme: str
) -> Dict[str, float]:
    """Arithmetic-mean savings/degradation/EDP for one scheme over a sweep."""
    if not comparisons:
        raise ValueError("nothing to aggregate")
    picks = [c.result_for(scheme) for c in comparisons]
    n = len(picks)
    return {
        "energy_savings_pct": sum(p.energy_savings_pct for p in picks) / n,
        "perf_degradation_pct": sum(p.perf_degradation_pct for p in picks) / n,
        "edp_improvement_pct": sum(p.edp_improvement_pct for p in picks) / n,
        "transitions": sum(p.transitions for p in picks) / n,
    }

"""Batched multi-seed simulation runs.

``run_batch`` expands one ``(benchmark, scheme)`` point into one
:class:`repro.engine.jobs.SweepJob` per seed and routes them through the
sweep engine, so replicas get the engine's caching/retry/telemetry for free
and -- when the fast core is selected -- share one interned
:class:`repro.simcore.tables.SimTables` instance per worker process
(:func:`repro.simcore.tables.tables_for` memoizes on the machine config and
power parameters, so table construction is paid once per process, not once
per replica).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Union

if TYPE_CHECKING:
    from repro.engine.scheduler import SweepEngine
    from repro.mcd.domains import MachineConfig
    from repro.mcd.processor import SimulationResult
    from repro.obs.facade import ObsConfig
    from repro.obs.spans import SpanContext
    from repro.workloads.phases import BenchmarkSpec


def run_batch(
    benchmark: "Union[str, BenchmarkSpec]",
    scheme: str = "adaptive",
    seeds: Iterable[int] = (1, 2, 3),
    *,
    machine: "Optional[MachineConfig]" = None,
    max_instructions: Optional[int] = None,
    record_history: bool = False,
    history_stride: int = 4,
    pid_interval_ns: Optional[float] = None,
    adaptive_overrides: Optional[Dict[str, object]] = None,
    obs: "Optional[ObsConfig]" = None,
    simcore: Optional[str] = None,
    engine: "Optional[SweepEngine]" = None,
    spans: "Optional[Sequence[Optional[SpanContext]]]" = None,
) -> "List[SimulationResult]":
    """Run one benchmark/scheme point across many seeds; results in seed order.

    ``simcore`` selects the core explicitly (``"ref"``/``"fast"``); ``None``
    defers to ``REPRO_SIMCORE`` and the default.  ``engine`` is an optional
    :class:`repro.engine.SweepEngine` for parallel/cached execution; without
    one the batch runs serially in-process (still retried and observable).
    ``spans`` optionally carries one parent
    :class:`~repro.obs.spans.SpanContext` per seed (the serve coalescer's
    per-request trace contexts), attached to the constructed jobs so
    worker spans stitch back to their submitting requests.
    """
    # Imported lazily: repro.engine.jobs imports this package for the
    # cache-key core selection, so a module-level import would be circular.
    from repro.engine.jobs import SweepJob
    from repro.harness.experiment import run_experiment_batch

    seed_list = list(seeds)
    if not seed_list:
        raise ValueError("run_batch needs at least one seed")
    span_list = list(spans) if spans is not None else [None] * len(seed_list)
    if len(span_list) != len(seed_list):
        raise ValueError(
            f"spans ({len(span_list)}) must parallel seeds ({len(seed_list)})"
        )
    jobs = [
        SweepJob.make(
            benchmark,
            scheme=scheme,
            seed=seed,
            machine=machine,
            max_instructions=max_instructions,
            record_history=record_history,
            history_stride=history_stride,
            pid_interval_ns=pid_interval_ns,
            adaptive_overrides=adaptive_overrides,
            obs=obs,
            simcore=simcore,
            span=span,
        )
        for seed, span in zip(seed_list, span_list)
    ]
    results: "List[SimulationResult]" = run_experiment_batch(jobs, engine=engine)
    return results


__all__ = ["run_batch"]

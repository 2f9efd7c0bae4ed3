"""Experiment orchestration: build controllers, run simulations, compare.

This package turns (benchmark, scheme) pairs into
:class:`~repro.mcd.processor.SimulationResult` objects and computes the
baseline-relative quantities the paper's evaluation section reports.
"""

from repro.harness.experiment import (
    SCHEMES,
    build_controllers,
    run_experiment,
)
from repro.harness.comparison import (
    SchemeResult,
    BenchmarkComparison,
    compare_schemes,
    sweep,
    aggregate,
)
from repro.harness.reporting import format_table, write_csv
from repro.harness.persistence import (
    result_to_dict,
    result_from_dict,
    save_results,
    load_results,
    load_result_objects,
)

__all__ = [
    "result_to_dict",
    "result_from_dict",
    "save_results",
    "load_results",
    "load_result_objects",
    "SCHEMES",
    "build_controllers",
    "run_experiment",
    "SchemeResult",
    "BenchmarkComparison",
    "compare_schemes",
    "sweep",
    "aggregate",
    "format_table",
    "write_csv",
]

"""The fast core keeps spinning clocks off its event heap.

The golden suite proves the fast core exact, but it cannot see *how* the
fast core gets there: a change that stops parking stalled clocks (DESIGN
§6d) stays bit-identical and only gets slower.  These tests pin the
mechanism by counting heap pushes, which the processor keeps in ``_seq``.
"""

from __future__ import annotations

import repro.harness.experiment as experiment_module
from repro.harness.experiment import run_experiment
from repro.simcore import create_processor


def _mcf_pushes(monkeypatch, core):
    """Heap pushes of a 1,000-instruction mcf run on ``core``."""
    built = {}

    def spy_create(*args, simcore=None, **kwargs):
        built[simcore] = create_processor(*args, simcore=simcore, **kwargs)
        return built[simcore]

    monkeypatch.setattr(experiment_module, "create_processor", spy_create)
    run_experiment(
        "mcf", scheme="adaptive", max_instructions=1000, seed=1, simcore=core
    )
    return built[core]._seq


def test_fast_core_pushes_at_most_half_the_reference_events(monkeypatch):
    ref_pushes = _mcf_pushes(monkeypatch, "ref")
    fast_pushes = _mcf_pushes(monkeypatch, "fast")
    # a 1,000-instruction mcf run is mostly clocks spinning behind misses
    assert ref_pushes > 10_000
    assert fast_pushes <= ref_pushes // 2, (fast_pushes, ref_pushes)


def test_front_end_parks_once_the_trace_is_dispatched(monkeypatch):
    # without the trace-done park the fast core pushes 9,987 events here,
    # 952 of them for front-end edges after the last dispatch that retire
    # nothing; with it, 9,054
    assert _mcf_pushes(monkeypatch, "fast") < 9_500

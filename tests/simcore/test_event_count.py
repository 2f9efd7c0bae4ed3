"""The fast core keeps spinning clocks off its event heap.

The golden suite proves the fast core exact, but it cannot see *how* the
fast core gets there: a change that stops parking stalled clocks (DESIGN
§6d) stays bit-identical and only gets slower.  This test pins the
mechanism by counting heap pushes, which the processor keeps in ``_seq``.
"""

from __future__ import annotations

import repro.harness.experiment as experiment_module
from repro.harness.experiment import run_experiment


def test_fast_core_pushes_at_most_half_the_reference_events(monkeypatch):
    built = {}
    real_create = experiment_module.create_processor

    def spy_create(*args, simcore=None, **kwargs):
        built[simcore] = real_create(*args, simcore=simcore, **kwargs)
        return built[simcore]

    monkeypatch.setattr(experiment_module, "create_processor", spy_create)
    for core in ("ref", "fast"):
        run_experiment(
            "mcf", scheme="adaptive", max_instructions=1000, seed=1, simcore=core
        )
    ref_pushes = built["ref"]._seq
    fast_pushes = built["fast"]._seq
    # a 1,000-instruction mcf run is mostly clocks spinning behind misses
    assert ref_pushes > 10_000
    assert fast_pushes <= ref_pushes // 2, (fast_pushes, ref_pushes)

"""The fast core keeps spinning clocks off its event heap, the adaptive
controller out of its sample tick during an Act, and computes a seed's
clock jitter once per process.

The golden suite proves the fast core exact, but it cannot see *how* the
fast core gets there: a change that stops parking stalled clocks (DESIGN
§6d) stays bit-identical and only gets slower.  These tests pin the
mechanisms by counting heap pushes, which the processor keeps in ``_seq``,
``AdaptiveDvfsController.observe`` calls and computed jitter values.
"""

from __future__ import annotations

import repro.harness.experiment as experiment_module
import repro.simcore.fast as fast_module
import repro.simcore.tapes as tapes_module
from repro.core.controller import AdaptiveDvfsController
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


def _mcf_observe_calls(monkeypatch, core):
    """Adaptive ``observe`` calls of a 1,000-instruction mcf run on ``core``."""
    calls = []
    real_observe = AdaptiveDvfsController.observe

    def spy_observe(self, now_ns, occupancy, freq_ghz):
        calls.append(now_ns)
        return real_observe(self, now_ns, occupancy, freq_ghz)

    monkeypatch.setattr(AdaptiveDvfsController, "observe", spy_observe)
    run_experiment(
        "mcf", scheme="adaptive", max_instructions=1000, seed=1, simcore=core
    )
    return len(calls)


def test_reference_observes_every_sample(monkeypatch):
    # three controlled domains, one call each per 4 ns sample
    assert _mcf_observe_calls(monkeypatch, "ref") == 15_993


def test_fast_core_skips_observe_during_an_act(monkeypatch):
    # inside an Act observe only stores the occupancy, so the fast core
    # stores it itself: 5,239 calls here, 15,993 without the skip
    assert _mcf_observe_calls(monkeypatch, "fast") < 6_000


def test_runs_on_one_seed_compute_each_clock_jitter_once(monkeypatch):
    # every run on a seed starts its four clocks from the same generator
    # states, so the later schemes read the first one's tapes: at most the
    # longest run's draws plus one chunk per clock are computed, where
    # drawing per run computes every run's draws
    monkeypatch.setattr(tapes_module, "_TAPES", {})
    computed = []
    real_at = tapes_module.JitterTape.at

    def spy_at(self, index):
        before = len(self.values)
        value = real_at(self, index)
        computed.append(len(self.values) - before)
        return value

    draws = {}
    real_advance = fast_module.advance

    def spy_advance(rng, start, count):
        draws.setdefault(start, []).append(count)
        real_advance(rng, start, count)

    monkeypatch.setattr(tapes_module.JitterTape, "at", spy_at)
    monkeypatch.setattr(fast_module, "advance", spy_advance)
    schemes = ("full-speed", "adaptive", "pid", "attack-decay")
    for scheme in schemes:
        run_experiment(
            "mcf", scheme=scheme, max_instructions=1000, seed=1, simcore="fast"
        )
    assert len(draws) == 4, "each clock starts every run from one state"
    assert all(len(counts) == len(schemes) for counts in draws.values())
    longest = sum(max(counts) for counts in draws.values())
    drawn = sum(sum(counts) for counts in draws.values())
    assert drawn > 3 * longest
    assert sum(computed) <= longest + len(draws) * tapes_module.CHUNK_VALUES

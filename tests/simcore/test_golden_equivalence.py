"""Golden equivalence: derived cores are bit-identical to the reference.

This suite is the enforcement arm of the simcore contract: for every
controller style the repo supports, a derived-core run must produce the
*same* ``SimulationResult`` -- every float equal, every
``FrequencyStepEvent`` in the same order, the same probe-event stream --
as the reference core.  Any divergence here means the derived core
changed simulation semantics and must be fixed in ``repro.simcore``,
never papered over in the comparison.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.harness.experiment import run_experiment
from repro.mcd.domains import MachineConfig, transmeta_machine_config
from repro.simcore import assert_results_identical

#: Enough instructions to exercise sleep/wake, store-buffer pressure,
#: mispredict redirects, and many DVFS steps, while keeping the full
#: (scheme x seed) grid fast enough for tier-1.
_INSTRUCTIONS = 2500

#: mcf and swim simulate ~10x longer per instruction than adpcm-encode
_ZERO_JITTER_INSTRUCTIONS = 1500

_SCHEMES = ("full-speed", "adaptive", "attack-decay", "pid", "centralized")
_SEEDS = (1, 2, 3)

#: the non-reference core this suite holds to bit-identity
_OTHER_CORE = "fast"

#: adaptive-controller ablations (``adaptive_overrides``): the features
#: ``bench_ablation_features`` switches off, and a level delay 50x the
#: slope delay, past the ratios ``bench_ablation_delay_ratio`` sweeps
_ABLATIONS = {
    "no-combine": dict(combine_actions=False),
    "no-slope": dict(use_slope_signal=False),
    "fixed-delay": dict(signal_scaled_delay=False, freq_scaled_down_delay=False),
    "delay-ratio": dict(t_m0=400, t_l0=8),
}


def _pair(benchmark, **kwargs):
    """One (ref, other-core) result pair for identical inputs."""
    ref = run_experiment(benchmark, simcore="ref", **kwargs)
    other = run_experiment(benchmark, simcore=_OTHER_CORE, **kwargs)
    return ref, other


class TestGoldenEquivalence:
    @pytest.mark.parametrize("scheme", _SCHEMES)
    @pytest.mark.parametrize("seed", _SEEDS)
    def test_scheme_seed_grid(self, scheme, seed):
        ref, fast = _pair(
            "adpcm-encode",
            scheme=scheme,
            max_instructions=_INSTRUCTIONS,
            seed=seed,
        )
        assert_results_identical(
            ref, fast, context=f"adpcm-encode/{scheme} seed={seed}"
        )

    def test_with_history_recording(self):
        ref, fast = _pair(
            "gzip",
            scheme="adaptive",
            max_instructions=_INSTRUCTIONS,
            seed=7,
            record_history=True,
            history_stride=2,
        )
        assert_results_identical(ref, fast, context="gzip/adaptive history")

    def test_transmeta_machine(self):
        # Transmeta-style DVFS exercises the relock-pause path (domains
        # freeze during transitions), which the fast core inlines.
        ref, fast = _pair(
            "gzip",
            scheme="adaptive",
            machine=transmeta_machine_config(),
            max_instructions=_INSTRUCTIONS,
            seed=3,
        )
        assert_results_identical(ref, fast, context="gzip/adaptive transmeta")

    @pytest.mark.parametrize("scheme", _SCHEMES)
    @pytest.mark.parametrize("bench", ("mcf", "swim"))
    def test_zero_jitter(self, bench, scheme):
        # Without jitter the inlined gauss path is skipped, front-end edges
        # (1 ns apart from t=0) land exactly on 4 ns sample ticks, and
        # parked clocks replay long runs of unperturbed edges.
        ref, fast = _pair(
            bench,
            scheme=scheme,
            machine=MachineConfig(jitter_sigma_ns=0.0),
            max_instructions=_ZERO_JITTER_INSTRUCTIONS,
            seed=2,
        )
        assert_results_identical(
            ref, fast, context=f"{bench}/{scheme} zero jitter"
        )

    def test_zero_jitter_transmeta_machine(self):
        ref, fast = _pair(
            "gzip",
            scheme="adaptive",
            machine=transmeta_machine_config(jitter_sigma_ns=0.0),
            max_instructions=_INSTRUCTIONS,
            seed=3,
        )
        assert_results_identical(ref, fast, context="gzip/adaptive transmeta zero jitter")

    @pytest.mark.parametrize("ablation", sorted(_ABLATIONS))
    @pytest.mark.parametrize("bench", ("gsm-decode", "mcf"))
    def test_adaptive_ablation(self, bench, ablation):
        # each ablation changes when an Act starts or how long it lasts,
        # which decides the samples the fast core skips observe on
        ref, fast = _pair(
            bench,
            scheme="adaptive",
            adaptive_overrides=_ABLATIONS[ablation],
            max_instructions=_ZERO_JITTER_INSTRUCTIONS,
            seed=3,
        )
        assert_results_identical(
            ref, fast, context=f"{bench}/adaptive {ablation}"
        )

    @pytest.mark.parametrize("bench", ("gsm-decode", "mcf"))
    def test_act_ends_on_a_sample_tick(self, bench):
        # At 128 ns/MHz one step switches in exactly 300 ns (75 samples),
        # so an Act ends on a sample tick, where observe runs again: the
        # boundary of the fast core's Act skip.  The default switching
        # time never ends an Act on a tick.
        machine = MachineConfig(slew_ns_per_mhz=128.0)
        assert machine.step_switching_time_ns % machine.sample_period_ns == 0
        ref, fast = _pair(
            bench,
            scheme="adaptive",
            machine=machine,
            max_instructions=_ZERO_JITTER_INSTRUCTIONS,
            seed=3,
        )
        assert_results_identical(
            ref, fast, context=f"{bench}/adaptive Act ending on a tick"
        )

    def test_observed_run(self):
        ref, fast = _pair(
            "gzip",
            scheme="adaptive",
            max_instructions=_INSTRUCTIONS,
            seed=5,
            obs=True,
        )
        # probe_summary is compared too (minus wall-clock profile timings,
        # which differ between any two runs of either core)
        assert_results_identical(ref, fast, context="gzip/adaptive obs")


class TestProbeEventStream:
    def test_probe_jsonl_byte_identical(self, tmp_path):
        """The full probe-event JSONL must match byte-for-byte.

        Profile events carry wall-clock measurements (``wall_s``) and are
        excluded; every simulation-derived event line -- samples, gauges,
        histograms, freq_step events -- must be byte-identical.
        """
        from repro.obs import ObsConfig, Observability

        streams = {}
        for core in ("ref", _OTHER_CORE):
            obs = Observability(ObsConfig())
            run_experiment(
                "gzip",
                scheme="adaptive",
                max_instructions=_INSTRUCTIONS,
                seed=5,
                obs=obs,
                simcore=core,
            )
            jsonl = tmp_path / f"metrics-{core}.jsonl"
            chrome = tmp_path / f"trace-{core}.json"
            obs.write_trace_files(str(jsonl), str(chrome))
            streams[core] = [
                line
                for line in jsonl.read_bytes().splitlines()
                if b'"kind": "profile"' not in line
            ]
        assert streams["ref"], "expected a non-empty probe-event stream"
        assert streams["ref"] == streams[_OTHER_CORE]


class TestClockRngState:
    """A run ends with the reference's scheduling state.

    The fast core inlines ``Random.gauss`` and keeps each clock's cached
    second variate, edge times and frequency, and the per-domain wake
    state in locals until the loop ends.  No result field shows whether
    they were handed back, so compare the processors themselves: each
    clock's generator (``getstate()`` includes ``gauss_next``), next edge
    and frequency, the sleep/timer/generation maps, the front end's
    backpressure flag, the last event time, and the events left on the
    heap.  Heap entries are compared without their sequence numbers: the
    fast core pushes fewer events, so its ``seq`` ends lower (DESIGN §6d
    item 6).
    """

    @staticmethod
    def _scheduling_state(proc):
        return {
            "clocks": {
                d: (clock._rng.getstate(), clock.next_edge_ns, clock.freq_ghz)
                for d, clock in proc.clocks.items()
            },
            "sleeping": dict(proc._sleeping),
            "timer_target": dict(proc._timer_target),
            "wake_gen": dict(proc._wake_gen),
            "fe_sleeping": proc._fe_sleeping,
            "now": proc._now,
            "heap": sorted((t, tag, payload) for t, tag, _, payload in proc._heap),
        }

    @pytest.mark.parametrize(
        "machine",
        [None, transmeta_machine_config(), MachineConfig(jitter_sigma_ns=0.0)],
        ids=["table1", "transmeta", "zero-jitter"],
    )
    def test_clock_rng_state_matches_reference(self, monkeypatch, machine):
        import repro.harness.experiment as experiment_module

        built = {}
        real_create = experiment_module.create_processor

        def spy_create(*args, simcore=None, **kwargs):
            built[simcore] = real_create(*args, simcore=simcore, **kwargs)
            return built[simcore]

        monkeypatch.setattr(experiment_module, "create_processor", spy_create)
        _pair(
            "gzip",
            scheme="adaptive",
            machine=machine,
            max_instructions=_INSTRUCTIONS,
            seed=3,
        )
        ref = self._scheduling_state(built["ref"])
        other = self._scheduling_state(built[_OTHER_CORE])
        assert ref["heap"], "expected events left on the heap"
        for field in ref:
            assert ref[field] == other[field], field


class TestFastCoreDeterminism:
    def test_same_seed_runs_hash_identically(self):
        """Two fast-core runs with the same seed are bit-identical."""
        import hashlib

        from repro.harness.persistence import result_to_dict

        digests = []
        for _ in range(2):
            result = run_experiment(
                "gzip",
                scheme="adaptive",
                max_instructions=_INSTRUCTIONS,
                seed=11,
                record_history=True,
                simcore="fast",
            )
            payload = json.dumps(
                result_to_dict(result, include_history=True), sort_keys=True
            )
            digests.append(hashlib.sha256(payload.encode("utf-8")).hexdigest())
        assert digests[0] == digests[1]


class TestEscapeHatch:
    def test_env_var_selects_core_end_to_end(self, monkeypatch):
        """REPRO_SIMCORE routes run_experiment to the chosen class."""
        import repro.harness.experiment as experiment_module
        from repro.mcd.processor import MCDProcessor
        from repro.simcore.fast import FastMCDProcessor

        seen = []
        real_create = experiment_module.create_processor

        def spy_create(*args, **kwargs):
            processor = real_create(*args, **kwargs)
            seen.append(type(processor))
            return processor

        monkeypatch.setattr(experiment_module, "create_processor", spy_create)

        monkeypatch.setenv("REPRO_SIMCORE", "ref")
        run_experiment("adpcm-encode", max_instructions=500, seed=1)
        assert seen[-1] is MCDProcessor

        monkeypatch.setenv("REPRO_SIMCORE", "fast")
        run_experiment("adpcm-encode", max_instructions=500, seed=1)
        assert seen[-1] is FastMCDProcessor

        # explicit argument beats the environment
        monkeypatch.setenv("REPRO_SIMCORE", "fast")
        run_experiment(
            "adpcm-encode", max_instructions=500, seed=1, simcore="ref"
        )
        assert seen[-1] is MCDProcessor

    def test_unset_env_defaults_to_fast(self, monkeypatch):
        from repro.simcore import DEFAULT_CORE, resolve_core

        monkeypatch.delenv("REPRO_SIMCORE", raising=False)
        assert resolve_core() == DEFAULT_CORE == "fast"
        assert "REPRO_SIMCORE" not in os.environ

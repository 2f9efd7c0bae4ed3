"""Tests for the experiment harness (controllers + single runs)."""

import pytest

from repro.core.controller import AdaptiveDvfsController
from repro.dvfs.attack_decay import AttackDecayController
from repro.dvfs.pid import PidController
from repro.harness.experiment import SCHEMES, build_controllers, run_experiment
from repro.mcd.domains import CONTROLLED_DOMAINS, DomainId


class TestBuildControllers:
    def test_full_speed_is_empty(self):
        assert build_controllers("full-speed") == {}

    def test_adaptive_builds_one_per_domain(self):
        controllers = build_controllers("adaptive")
        assert set(controllers) == set(CONTROLLED_DOMAINS)
        for domain, ctrl in controllers.items():
            assert isinstance(ctrl, AdaptiveDvfsController)
            assert ctrl.domain is domain

    def test_adaptive_per_domain_qref(self):
        controllers = build_controllers("adaptive")
        assert controllers[DomainId.INT].config.q_ref == 6
        assert controllers[DomainId.FP].config.q_ref == 4

    def test_attack_decay_uses_domain_capacity(self):
        controllers = build_controllers("attack-decay")
        assert isinstance(controllers[DomainId.INT], AttackDecayController)
        assert controllers[DomainId.INT].config.capacity == 20
        assert controllers[DomainId.FP].config.capacity == 16

    def test_pid_interval_override(self):
        controllers = build_controllers("pid", pid_interval_ns=2500.0)
        for ctrl in controllers.values():
            assert isinstance(ctrl, PidController)
            assert ctrl.config.interval_ns == 2500.0

    def test_adaptive_overrides_forwarded(self):
        controllers = build_controllers(
            "adaptive", adaptive_overrides={"use_slope_signal": False}
        )
        for ctrl in controllers.values():
            assert not ctrl.config.use_slope_signal

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            build_controllers("turbo")

    def test_schemes_constant_lists_all(self):
        assert set(SCHEMES) == {
            "full-speed", "adaptive", "attack-decay", "pid", "centralized",
        }

    def test_centralized_builds_coordinated_controllers(self):
        from repro.dvfs.centralized import CoordinatedAdaptiveController

        controllers = build_controllers("centralized")
        assert set(controllers) == set(CONTROLLED_DOMAINS)
        coordinators = {
            id(ctrl.coordinator) for ctrl in controllers.values()
        }
        assert len(coordinators) == 1  # one shared coordinator
        for ctrl in controllers.values():
            assert isinstance(ctrl, CoordinatedAdaptiveController)


class TestRunExperiment:
    def test_run_by_name(self):
        result = run_experiment(
            "adpcm-encode", scheme="full-speed", max_instructions=3000
        )
        assert result.benchmark == "adpcm-encode"
        assert result.scheme == "full-speed"
        assert result.instructions > 2500

    def test_run_by_spec(self, tiny_benchmark):
        result = run_experiment(tiny_benchmark, scheme="adaptive")
        assert result.benchmark == "tiny-test"
        assert result.time_ns > 0

    def test_deterministic(self, tiny_benchmark):
        a = run_experiment(tiny_benchmark, scheme="adaptive")
        b = run_experiment(tiny_benchmark, scheme="adaptive")
        assert a.time_ns == b.time_ns
        assert a.energy.total == b.energy.total

    def test_adaptive_issues_transitions(self, tiny_benchmark):
        result = run_experiment(tiny_benchmark, scheme="adaptive")
        assert sum(result.transitions.values()) > 0

    def test_full_speed_never_transitions(self, tiny_benchmark):
        result = run_experiment(tiny_benchmark, scheme="full-speed")
        assert sum(result.transitions.values()) == 0


class TestProcessorRelease:
    """A finished run's processor is freed by refcount, not left as
    cyclic garbage for the collector (serve's peak RSS depended on it)."""

    @pytest.mark.parametrize("obs", [None, True], ids=["plain", "obs"])
    @pytest.mark.parametrize("core", ["ref", "fast"])
    def test_processor_is_freed_when_the_run_returns(
        self, monkeypatch, core, obs
    ):
        import gc
        import weakref

        import repro.harness.experiment as experiment_module

        refs = []
        real_create = experiment_module.create_processor

        def spy_create(*args, **kwargs):
            processor = real_create(*args, **kwargs)
            refs.append(weakref.ref(processor))
            return processor

        monkeypatch.setattr(experiment_module, "create_processor", spy_create)
        gc.collect()
        gc.disable()
        try:
            result = run_experiment(
                "gzip", scheme="adaptive", max_instructions=300, seed=1,
                simcore=core, obs=obs,
            )
            assert refs[0]() is None
        finally:
            gc.enable()
        assert result.instructions > 0


class TestSeedForwarding:
    """Regression: an explicit seed must reach *both* the trace generator
    and the processor's jitter RNG (it used to stop at the generator)."""

    def test_seed_override_reaches_processor(self, monkeypatch):
        import repro.harness.experiment as experiment_module

        captured = {}
        real_create = experiment_module.create_processor

        def spy_create(*args, **kwargs):
            captured.update(kwargs)
            return real_create(*args, **kwargs)

        monkeypatch.setattr(experiment_module, "create_processor", spy_create)
        run_experiment("adpcm-encode", max_instructions=1500, seed=777)
        assert captured["seed"] == 777

    def test_default_seed_still_comes_from_spec(self, monkeypatch):
        import repro.harness.experiment as experiment_module

        from repro.workloads.suite import get_benchmark

        captured = {}
        real_create = experiment_module.create_processor

        def spy_create(*args, **kwargs):
            captured.update(kwargs)
            return real_create(*args, **kwargs)

        monkeypatch.setattr(experiment_module, "create_processor", spy_create)
        run_experiment("adpcm-encode", max_instructions=1500)
        assert captured["seed"] == get_benchmark("adpcm-encode").seed

    def test_same_seed_reproduces_different_seed_diverges(self, tiny_benchmark):
        a = run_experiment(tiny_benchmark, scheme="adaptive", seed=11)
        b = run_experiment(tiny_benchmark, scheme="adaptive", seed=11)
        c = run_experiment(tiny_benchmark, scheme="adaptive", seed=12)
        assert a.time_ns == b.time_ns
        assert a.energy.total == b.energy.total
        assert (a.time_ns, a.energy.total) != (c.time_ns, c.energy.total)


@pytest.fixture
def generations(monkeypatch):
    """Count real trace generations, starting from an empty trace memo."""
    import repro.harness.experiment as experiment_module

    calls = []
    real_generate = experiment_module.generate_trace

    def spy_generate(spec, max_instructions=None, seed=None):
        calls.append((spec.name, max_instructions, seed))
        return real_generate(spec, max_instructions=max_instructions, seed=seed)

    monkeypatch.setattr(experiment_module, "_last_trace", None)
    monkeypatch.setattr(experiment_module, "generate_trace", spy_generate)
    return calls


class TestTraceReuse:
    """A trace depends on (spec, max_instructions, seed), never on the
    scheme, so consecutive runs that share those generate it once."""

    def test_second_scheme_reuses_the_trace(self, generations):
        run_experiment("adpcm-encode", scheme="adaptive", max_instructions=400, seed=5)
        run_experiment("adpcm-encode", scheme="pid", max_instructions=400, seed=5)
        assert generations == [("adpcm-encode", 400, 5)]

    def test_equal_spec_from_a_pickle_round_trip_reuses(self, generations):
        import pickle

        from repro.workloads.suite import get_benchmark

        spec = get_benchmark("gzip")
        copy = pickle.loads(pickle.dumps(spec))
        assert copy is not spec
        run_experiment(spec, scheme="adaptive", max_instructions=400)
        run_experiment(copy, scheme="pid", max_instructions=400)
        assert len(generations) == 1

    def test_other_seed_or_window_regenerates(self, generations):
        run_experiment("adpcm-encode", max_instructions=400, seed=5)
        run_experiment("adpcm-encode", max_instructions=400, seed=6)
        run_experiment("adpcm-encode", max_instructions=500, seed=6)
        assert generations == [
            ("adpcm-encode", 400, 5),
            ("adpcm-encode", 400, 6),
            ("adpcm-encode", 500, 6),
        ]

    def test_same_name_with_other_phase_field_regenerates(
        self, generations, tiny_benchmark
    ):
        import dataclasses

        changed = dataclasses.replace(
            tiny_benchmark,
            phases=(
                dataclasses.replace(tiny_benchmark.phases[0], dep_density=0.3),
            )
            + tiny_benchmark.phases[1:],
        )
        assert changed.name == tiny_benchmark.name
        first = run_experiment(tiny_benchmark, max_instructions=400, seed=5)
        second = run_experiment(changed, max_instructions=400, seed=5)
        assert len(generations) == 2
        assert first.time_ns != second.time_ns

    def test_reordered_mix_regenerates(self, generations, tiny_benchmark):
        import dataclasses

        from repro.workloads.generator import generate_trace

        phase = tiny_benchmark.phases[0]
        reordered = dataclasses.replace(
            phase, mix=dict(reversed(list(phase.mix.items())))
        )
        spec = dataclasses.replace(
            tiny_benchmark, phases=(reordered,) + tiny_benchmark.phases[1:]
        )
        # equal as dataclasses, yet the generator draws kinds in mix order
        assert spec == tiny_benchmark
        assert generate_trace(spec, 400, 5) != generate_trace(tiny_benchmark, 400, 5)
        run_experiment(tiny_benchmark, max_instructions=400, seed=5)
        run_experiment(spec, max_instructions=400, seed=5)
        assert len(generations) == 2

    def test_racing_threads_each_get_their_own_trace(self, monkeypatch):
        """Serve's executor threads share the memo without a lock: a race
        may regenerate a trace, but never hands out another key's."""
        import sys
        import threading

        import repro.harness.experiment as experiment_module
        from repro.workloads.generator import generate_trace
        from repro.workloads.suite import get_benchmark

        monkeypatch.setattr(experiment_module, "_last_trace", None)
        spec = get_benchmark("adpcm-encode")
        expected = {seed: tuple(generate_trace(spec, 60, seed)) for seed in (1, 2, 3)}
        wrong = []

        def hammer(offset):
            for i in range(40):
                seed = 1 + (i + offset) % 3
                if experiment_module._trace_for(spec, 60, seed) != expected[seed]:
                    wrong.append(seed)

        threads = [threading.Thread(target=hammer, args=(k,)) for k in range(8)]
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    @pytest.mark.parametrize("core", ["ref", "fast"])
    def test_memo_trace_gives_the_fresh_trace_result(
        self, generations, monkeypatch, core
    ):
        import json

        import repro.harness.experiment as experiment_module
        from repro.harness.persistence import result_to_dict

        def pid_run():
            result = run_experiment(
                "gzip", scheme="pid", max_instructions=600, seed=9,
                record_history=True, simcore=core,
            )
            return json.dumps(
                result_to_dict(result, include_history=True), sort_keys=True
            )

        fresh = pid_run()
        monkeypatch.setattr(experiment_module, "_last_trace", None)
        run_experiment(
            "gzip", scheme="adaptive", max_instructions=600, seed=9, simcore=core
        )
        from_memo = pid_run()
        assert len(generations) == 2  # the second pid run generated nothing
        assert from_memo == fresh

"""Tests for the experiment harness (controllers + single runs)."""

import pytest

from repro.core.controller import AdaptiveDvfsController
from repro.dvfs.attack_decay import AttackDecayController
from repro.dvfs.pid import PidController
from repro.harness.experiment import SCHEMES, build_controllers, run_experiment
from repro.mcd.domains import CONTROLLED_DOMAINS, DomainId, MachineConfig


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

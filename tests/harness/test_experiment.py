"""Tests for the experiment harness (controllers + single runs)."""

import pytest

from repro.core.controller import AdaptiveDvfsController
from repro.dvfs.attack_decay import AttackDecayController
from repro.dvfs.pid import PidController
from repro.harness.experiment import SCHEMES, build_controllers, run_experiment
from repro.mcd.domains import (
    CONTROLLED_DOMAINS,
    DomainId,
    MachineConfig,
    transmeta_machine_config,
)


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


@pytest.fixture
def built(monkeypatch):
    """The scheme of every processor ``run_experiment`` builds, starting
    from empty trace and silent-run memos."""
    import repro.harness.experiment as experiment_module

    schemes = []
    real_create = experiment_module.create_processor

    def spy_create(*args, **kwargs):
        schemes.append(kwargs["scheme"])
        return real_create(*args, **kwargs)

    monkeypatch.setattr(experiment_module, "_last_trace", None)
    monkeypatch.setattr(experiment_module, "_last_silent", None)
    monkeypatch.setattr(experiment_module, "create_processor", spy_create)
    return schemes


def _as_dict(result):
    from repro.harness.persistence import result_to_dict

    return result_to_dict(result, include_history=True)


def _direct(monkeypatch, *args, **kwargs):
    """A run made with both memos cleared: it generates and simulates."""
    import repro.harness.experiment as experiment_module

    monkeypatch.setattr(experiment_module, "_last_trace", None)
    monkeypatch.setattr(experiment_module, "_last_silent", None)
    return run_experiment(*args, **kwargs)


_MACHINES = {
    "default": MachineConfig(),
    "transmeta": transmeta_machine_config(),
    "zero-jitter": MachineConfig(jitter_sigma_ns=0.0),
}

_SILENT_SCHEMES = ("adaptive", "pid", "attack-decay", "centralized")


class TestSilentRuns:
    """A run whose controllers never return a command follows the
    full-speed trajectory, so right after its trace's full-speed run it is
    answered from that run's result (DESIGN §6d item 9)."""

    def _check_group(self, monkeypatch, built, bench, machine_name, n, **settings):
        """Each scheme after the full-speed run equals a direct run, and
        exactly the schemes whose direct run commands simulate."""
        kwargs = dict(
            machine=_MACHINES[machine_name], max_instructions=n, seed=7, **settings
        )
        direct = {
            scheme: _direct(monkeypatch, bench, scheme=scheme, **kwargs)
            for scheme in _SILENT_SCHEMES
        }
        del built[:]
        run_experiment(bench, scheme="full-speed", **kwargs)
        after = {
            scheme: run_experiment(bench, scheme=scheme, **kwargs)
            for scheme in _SILENT_SCHEMES
        }
        for scheme in _SILENT_SCHEMES:
            assert after[scheme].scheme == scheme
            assert _as_dict(after[scheme]) == _as_dict(direct[scheme]), scheme
        commanding = [s for s in _SILENT_SCHEMES if direct[s].step_events]
        assert built == ["full-speed"] + commanding
        return len(_SILENT_SCHEMES) - len(commanding)

    @pytest.mark.parametrize("n", [1000, 2500])
    @pytest.mark.parametrize("machine_name", sorted(_MACHINES))
    @pytest.mark.parametrize("bench", ["gsm-decode", "swim", "mcf"])
    def test_scheme_after_full_speed_equals_a_direct_run(
        self, monkeypatch, built, bench, machine_name, n
    ):
        self._check_group(
            monkeypatch, built, bench, machine_name, n, record_history=False
        )

    @pytest.mark.parametrize("bench, silent", [("gsm-decode", 2), ("mcf", 0)])
    def test_history_stride_and_initial_frequencies(
        self, monkeypatch, built, bench, silent
    ):
        assert self._check_group(
            monkeypatch, built, bench, "default", 1000,
            record_history=True, history_stride=3,
            initial_frequencies={DomainId.INT: 0.8, DomainId.LS: 0.6},
        ) == silent

    def test_replay_makes_the_processors_observe_calls(self, built):
        """The replay calls ``observe`` with the arguments and in the
        order the processor does, on both cores."""
        import repro.harness.experiment as experiment_module
        from repro.dvfs.base import DvfsController
        from repro.simcore import create_processor
        from repro.workloads.suite import get_benchmark

        class Recorder(DvfsController):
            def __init__(self, domain, calls):
                super().__init__(domain)
                self.calls = calls

            def observe(self, now_ns, occupancy, freq_ghz):
                self.calls.append((self.domain, now_ns, occupancy, freq_ghz))
                return None

        initial = {DomainId.FP: 0.7}
        run_experiment(
            "gzip", scheme="full-speed", max_instructions=1000, seed=4,
            record_history=False, initial_frequencies=initial,
        )
        key, freqs, log, _ = experiment_module._last_silent
        replayed = []
        assert experiment_module._stays_silent(
            {d: Recorder(d, replayed) for d in CONTROLLED_DOMAINS},
            freqs, log, MachineConfig().sample_period_ns,
        )
        trace = experiment_module._trace_for(get_benchmark("gzip"), 1000, 4)
        for core in ("ref", "fast"):
            simulated = []
            processor = create_processor(
                trace=trace,
                controllers={d: Recorder(d, simulated) for d in CONTROLLED_DOMAINS},
                seed=4, record_history=False, initial_frequencies=initial,
                simcore=core,
            )
            processor.run()
            processor.release()
            assert len(simulated) > 3 * 1000
            assert replayed == simulated, core

    def test_silent_schemes_construct_one_processor(self, built):
        results = [
            run_experiment("gsm-decode", scheme=scheme, max_instructions=1000)
            for scheme in ("full-speed", "pid", "attack-decay")
        ]
        assert built == ["full-speed"]
        assert [r.scheme for r in results] == ["full-speed", "pid", "attack-decay"]
        assert all(not r.step_events for r in results)

    def test_a_late_first_command_simulates(self, monkeypatch, built):
        # pid on gzip at 1,000 instructions commands once, at 10,004 ns,
        # shortly before the run ends
        run_experiment("gzip", scheme="full-speed", max_instructions=1000)
        pid = run_experiment("gzip", scheme="pid", max_instructions=1000)
        assert built == ["full-speed", "pid"]
        assert pid.step_events[0].time_ns == 10_004.0
        direct = _direct(monkeypatch, "gzip", scheme="pid", max_instructions=1000)
        assert _as_dict(pid) == _as_dict(direct)

    @pytest.mark.parametrize(
        "field",
        [
            "none", "machine", "seed", "max_instructions", "record_history",
            "history_stride", "initial_frequencies", "core", "spec",
        ],
    )
    def test_a_changed_key_field_simulates(
        self, monkeypatch, built, tiny_benchmark, field
    ):
        import dataclasses

        base = dict(
            machine=MachineConfig(), max_instructions=600, seed=5,
            record_history=False, history_stride=4, initial_frequencies=None,
            simcore="fast",
        )
        changed = dict(base)
        spec = tiny_benchmark
        if field == "machine":
            changed["machine"] = MachineConfig(sync_window_ns=0.25)
        elif field == "seed":
            changed["seed"] = 6
        elif field == "max_instructions":
            changed["max_instructions"] = 601
        elif field == "record_history":
            changed["record_history"] = True
        elif field == "history_stride":
            changed["history_stride"] = 5
        elif field == "initial_frequencies":
            changed["initial_frequencies"] = {DomainId.INT: 0.9}
        elif field == "core":
            changed["simcore"] = "ref"
        elif field == "spec":
            spec = dataclasses.replace(
                tiny_benchmark,
                phases=(
                    dataclasses.replace(tiny_benchmark.phases[0], dep_density=0.3),
                )
                + tiny_benchmark.phases[1:],
            )
            assert spec.name == tiny_benchmark.name
        run_experiment(tiny_benchmark, scheme="full-speed", **base)
        result = run_experiment(spec, scheme="pid", **changed)
        assert not result.step_events
        assert built == (
            ["full-speed"] if field == "none" else ["full-speed", "pid"]
        )
        assert _as_dict(result) == _as_dict(
            _direct(monkeypatch, spec, scheme="pid", **changed)
        )

    def test_reference_core_from_the_environment_simulates(
        self, monkeypatch, built
    ):
        from repro.simcore import SIMCORE_ENV

        monkeypatch.setenv(SIMCORE_ENV, "ref")
        run_experiment("swim", scheme="full-speed", max_instructions=1000)
        ref = run_experiment("swim", scheme="pid", max_instructions=1000)
        assert built == ["full-speed", "pid"]
        monkeypatch.delenv(SIMCORE_ENV)
        run_experiment("swim", scheme="full-speed", max_instructions=1000)
        fast = run_experiment("swim", scheme="pid", max_instructions=1000)
        assert built == ["full-speed", "pid", "full-speed"]
        assert _as_dict(fast) == _as_dict(ref)

    def test_a_traced_run_neither_reads_nor_fills_the_memo(
        self, monkeypatch, built
    ):
        import repro.harness.experiment as experiment_module

        run_experiment("swim", scheme="full-speed", max_instructions=1000)
        traced = run_experiment(
            "swim", scheme="pid", max_instructions=1000, obs=True
        )
        assert built == ["full-speed", "pid"]
        assert traced.probe_summary is not None
        assert not traced.step_events
        monkeypatch.setattr(experiment_module, "_last_silent", None)
        run_experiment("swim", scheme="full-speed", max_instructions=1000, obs=True)
        assert experiment_module._last_silent is None
        plain = run_experiment("swim", scheme="attack-decay", max_instructions=1000)
        assert built == ["full-speed", "pid", "full-speed", "attack-decay"]
        assert plain.probe_summary is None

    def test_a_returned_result_shares_nothing_with_the_memo(self, built):
        first = run_experiment("swim", scheme="full-speed", max_instructions=1000)
        expected = _as_dict(first)
        first.energy.by_domain[DomainId.INT] += 1.0
        pid = run_experiment("swim", scheme="pid", max_instructions=1000)
        assert first.scheme == "full-speed"
        pid.energy.by_domain[DomainId.INT] += 1.0
        pid.history.time_ns.append(-1.0)
        pid.mean_frequency_ghz[DomainId.FP] = 0.0
        pid.step_events.append(None)
        decay = run_experiment(
            "swim", scheme="attack-decay", max_instructions=1000
        )
        assert built == ["full-speed"]
        assert decay is not pid
        assert dict(_as_dict(decay), scheme="full-speed") == expected

    def test_an_occupancy_past_a_byte_keeps_an_exact_log(
        self, monkeypatch, built
    ):
        import repro.harness.experiment as experiment_module

        # swim fills 512-entry issue queues past 255 entries
        kwargs = dict(
            machine=MachineConfig(
                rob_size=1024, int_queue_size=512, fp_queue_size=512,
                ls_queue_size=512,
            ),
            max_instructions=2000, seed=1, record_history=False,
        )
        run_experiment("swim", scheme="full-speed", **kwargs)
        assert max(experiment_module._last_silent[2]) > 255
        pid = run_experiment("swim", scheme="pid", **kwargs)
        assert built == ["full-speed"]
        assert _as_dict(pid) == _as_dict(
            _direct(monkeypatch, "swim", scheme="pid", **kwargs)
        )

    def test_a_run_past_the_logged_ticks_leaves_no_memo(
        self, monkeypatch, built
    ):
        import repro.simcore.fast as fast_module

        # swim at 1,000 instructions makes ~1,000 sample ticks
        monkeypatch.setattr(fast_module, "MAX_LOGGED_TICKS", 64)
        run_experiment("swim", scheme="full-speed", max_instructions=1000)
        pid = run_experiment("swim", scheme="pid", max_instructions=1000)
        assert built == ["full-speed", "pid"]
        assert not pid.step_events

    def test_racing_threads_each_get_the_simulated_answer(self, monkeypatch):
        """Serve's executor threads share the memo without a lock: a race
        may simulate again, but never hands out another key's result."""
        import sys
        import threading

        cases = [
            (bench, seed) for bench in ("swim", "gsm-decode") for seed in (1, 2)
        ]
        expected = {}
        for bench, seed in cases:
            for scheme in ("full-speed", "pid"):
                result = _direct(
                    monkeypatch, bench, scheme=scheme, max_instructions=300,
                    seed=seed, record_history=False,
                )
                expected[bench, seed, scheme] = _as_dict(result)
        wrong = []

        def hammer(offset):
            for i in range(6):
                bench, seed = cases[(i + offset) % len(cases)]
                for scheme in ("full-speed", "pid"):
                    got = run_experiment(
                        bench, scheme=scheme, max_instructions=300, seed=seed,
                        record_history=False,
                    )
                    if _as_dict(got) != expected[bench, seed, scheme]:
                        wrong.append((bench, seed, scheme))

        threads = [threading.Thread(target=hammer, args=(k,)) for k in range(8)]
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

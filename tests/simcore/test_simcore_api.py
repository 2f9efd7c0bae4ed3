"""Unit tests for the simcore package API: selection, tables and tapes."""

from __future__ import annotations

import pytest

from repro.mcd.domains import MachineConfig
from repro.simcore import (
    CORES,
    DEFAULT_CORE,
    SIMCORE_ENV,
    create_processor,
    processor_class,
    resolve_core,
    tables_for,
)


class TestResolveCore:
    def test_explicit_choice_wins(self, monkeypatch):
        monkeypatch.setenv(SIMCORE_ENV, "fast")
        assert resolve_core("ref") == "ref"

    def test_env_var_used_when_no_choice(self, monkeypatch):
        monkeypatch.setenv(SIMCORE_ENV, "ref")
        assert resolve_core() == "ref"

    def test_empty_env_var_means_default(self, monkeypatch):
        monkeypatch.setenv(SIMCORE_ENV, "")
        assert resolve_core() == DEFAULT_CORE

    def test_unknown_choice_raises(self):
        # "batch" names a retired core: it must fail, not fall back
        for name in ("turbo", "batch"):
            with pytest.raises(
                ValueError, match=f"unknown simcore '{name}'.*ref, fast"
            ):
                resolve_core(name)

    def test_unknown_env_var_raises_and_names_the_env_var(self, monkeypatch):
        for name in ("typo", "batch"):
            monkeypatch.setenv(SIMCORE_ENV, name)
            with pytest.raises(ValueError, match=f"{SIMCORE_ENV}.*ref, fast"):
                resolve_core()

    def test_cores_registry(self):
        assert CORES == ("ref", "fast")
        assert DEFAULT_CORE in CORES


class TestProcessorClass:
    def test_ref_maps_to_reference_class(self):
        from repro.mcd.processor import MCDProcessor

        assert processor_class("ref") is MCDProcessor

    def test_fast_maps_to_fast_class(self):
        from repro.mcd.processor import MCDProcessor
        from repro.simcore.fast import FastMCDProcessor

        cls = processor_class("fast")
        assert cls is FastMCDProcessor
        assert issubclass(cls, MCDProcessor)

    def test_create_processor_forwards_kwargs(self, tiny_benchmark):
        from repro.workloads.generator import generate_trace

        trace = generate_trace(tiny_benchmark, seed=1)
        processor = create_processor(
            trace=trace, controllers={}, seed=1, simcore="fast"
        )
        result = processor.run()
        assert result.instructions == len(trace)


class TestSimTables:
    def test_interned_per_config(self):
        from repro.power.model import PowerModel

        machine = MachineConfig()
        a = tables_for(machine, PowerModel())
        b = tables_for(machine, PowerModel())
        assert a is b, "equal configs must share one interned table set"

    def test_interning_is_capped_and_exact(self, monkeypatch):
        """Serve builds a machine config per request's overrides: past the
        cap the interned sets are dropped, and rebuilt ones are exact."""
        import repro.simcore.tables as tables_module
        from repro.harness.experiment import run_experiment
        from repro.simcore import assert_results_identical

        run = dict(scheme="adaptive", max_instructions=600, seed=3, simcore="fast")
        machines = [MachineConfig(rob_size=size) for size in (64, 65, 66)]
        monkeypatch.setattr(tables_module, "_TABLES", {})
        uncapped = [run_experiment("gzip", machine=m, **run) for m in machines]
        assert len(tables_module._TABLES) == 3

        monkeypatch.setattr(tables_module, "_TABLES", {})
        monkeypatch.setattr(tables_module, "MAX_TABLE_SETS", 2)
        for machine, expected in zip(machines, uncapped):
            capped = run_experiment("gzip", machine=machine, **run)
            assert len(tables_module._TABLES) <= 2
            assert_results_identical(
                expected, capped, context=f"rob_size={machine.rob_size} capped"
            )
        assert machines[-1] in {config for config, _ in tables_module._TABLES}

    # a 3 ns sample period is not a power of two, so its products round
    # and an operation order that differs from the reference's shows
    @pytest.mark.parametrize("dt", [4.0, 3.0], ids=["dt4", "dt3"])
    @pytest.mark.parametrize("where", ["f_min", "f_max", "mid_slew"])
    def test_row_is_the_reference_floats(
        self, tiny_benchmark, mid_slew_frequency, where, dt
    ):
        """Every field of a row equals the reference expression, bit for bit."""
        from repro.mcd.domains import CONTROLLED_DOMAINS
        from repro.mcd.processor import _EDGE_TAG, MCDProcessor
        from repro.power.model import PowerModel
        from repro.simcore.tables import SimTables
        from repro.workloads.generator import generate_trace

        machine = MachineConfig(sample_period_ns=dt)
        power = PowerModel()
        if where == "mid_slew":
            freq = mid_slew_frequency
        else:
            freq = getattr(machine, f"{where}_ghz")
        # the reference's own state at ``freq``: regulators pinned there,
        # coefficients from _refresh_energy_coefficients at construction
        ref = MCDProcessor(
            trace=generate_trace(tiny_benchmark, seed=1),
            config=machine,
            power=power,
            initial_frequencies={d: freq for d in CONTROLLED_DOMAINS},
        )
        tables = SimTables(machine, power)
        for domain in CONTROLLED_DOMAINS:
            tag = _EDGE_TAG[domain]
            assert ref.regulators[domain].current_freq_ghz == freq
            v = ref.regulators[domain].voltage
            expected = (
                machine.voltage_for(freq),
                power.background(domain, v, freq, dt, sleeping=False),
                power.background(domain, v, freq, dt, sleeping=True),
                ref._active_base_e[tag],
                ref._active_slope_e[tag],
                ref._gated_e[tag],
            )
            row = tables.row(tag, freq)
            assert [x.hex() for x in row] == [x.hex() for x in expected], domain
            assert tables.rows[tag][freq] is row

    def test_capped_rows_stay_bounded_and_exact(self, monkeypatch):
        """A tiny cap clears rows mid-run without changing a result."""
        import repro.simcore.tables as tables_module
        from repro.harness.experiment import run_experiment
        from repro.power.model import PowerModel
        from repro.simcore import assert_results_identical

        run = dict(scheme="adaptive", max_instructions=1500, seed=3, simcore="fast")
        uncapped = run_experiment("gzip", **run)

        cap = 8
        tables = tables_for(MachineConfig(), PowerModel())
        for rows in tables.rows:
            rows.clear()
        built = []
        real_row = tables_module.SimTables.row

        def spy_row(self, tag, freq_ghz):
            built.append((tag, freq_ghz))
            return real_row(self, tag, freq_ghz)

        monkeypatch.setattr(tables_module, "MAX_ROWS_PER_TAG", cap)
        monkeypatch.setattr(tables_module.SimTables, "row", spy_row)
        capped = run_experiment("gzip", **run)

        assert all(len(rows) <= cap for rows in tables.rows)
        # more distinct rows than the cap were needed, so some tag cleared
        distinct = max(len({f for t, f in built if t == tag}) for tag in (1, 2, 3))
        assert distinct > cap
        assert_results_identical(uncapped, capped, context="gzip/adaptive capped rows")

    def test_racing_threads_get_their_own_rows(self, monkeypatch):
        """Serve's executor threads share one table: clears racing with
        gets and sets may cost a rebuild, never another frequency's row."""
        import sys
        import threading

        import repro.simcore.tables as tables_module
        from repro.power.model import PowerModel
        from repro.simcore.tables import SimTables

        machine = MachineConfig()
        span = machine.f_max_ghz - machine.f_min_ghz
        freqs = [machine.f_min_ghz + span * i / 97 for i in range(98)]
        expected = SimTables(machine, PowerModel())
        want = {(tag, f): expected.row(tag, f) for tag in (1, 2, 3) for f in freqs}

        cap = 4
        monkeypatch.setattr(tables_module, "MAX_ROWS_PER_TAG", cap)
        shared = SimTables(machine, PowerModel())
        wrong = []

        def worker(offset):
            for i in range(600):
                tag = 1 + (i + offset) % 3
                f = freqs[(i * 7 + offset) % len(freqs)]
                if shared.row(tag, f) != want[(tag, f)]:
                    wrong.append((tag, f))

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        # a miss checks the size and then inserts, so racing threads may
        # each add one row past the cap before the next clear
        assert all(len(rows) <= cap + len(threads) for rows in shared.rows)


@pytest.fixture(scope="module")
def mid_slew_frequency():
    """A frequency an adaptive run passed through between two grid steps."""
    from repro.harness.experiment import run_experiment

    machine = MachineConfig()
    result = run_experiment(
        "gzip",
        scheme="adaptive",
        max_instructions=1500,
        seed=3,
        history_stride=1,
        simcore="ref",
    )
    for series in result.history.frequency_ghz.values():
        for freq in series:
            steps = (machine.f_max_ghz - freq) / machine.step_ghz
            if abs(steps - round(steps)) > 1e-3:
                return freq
    raise AssertionError("the run never slewed")


def _gauss_states():
    """A fresh generator state and one that caches a second variate."""
    import random

    fresh = random.Random(7)
    cached = random.Random(7)
    cached.gauss()
    assert fresh.getstate()[2] is None and cached.getstate()[2] is not None
    return {"fresh": fresh.getstate(), "cached": cached.getstate()}


class TestJitterTapes:
    SIGMA = 0.01

    @pytest.mark.parametrize("which", ["fresh", "cached"])
    def test_values_are_the_gauss_calls(self, which):
        """A tape holds what successive gauss(0.0, sigma) calls return from
        its start state, across chunk boundaries, bit for bit."""
        import random

        from repro.simcore.tapes import CHUNK_VALUES, JitterTape

        start = _gauss_states()[which]
        count = 3 * CHUNK_VALUES + 5
        reference = random.Random()
        reference.setstate(start)
        expected = [reference.gauss(0.0, self.SIGMA) for _ in range(count)]
        tape = JitterTape(start, self.SIGMA)
        assert tape.at(count - 1) == expected[-1]
        assert [x.hex() for x in tape.values[:count]] == [x.hex() for x in expected]

    # a small skip makes advance split its getrandbits calls
    @pytest.mark.parametrize("skip", [None, 7], ids=["default-skip", "skip7"])
    @pytest.mark.parametrize("which", ["fresh", "cached"])
    def test_advance_leaves_the_state_of_as_many_gauss_calls(
        self, monkeypatch, which, skip
    ):
        import random

        import repro.simcore.tapes as tapes_module
        from repro.simcore.tapes import CHUNK_VALUES, advance

        if skip is not None:
            monkeypatch.setattr(tapes_module, "_SKIP_PAIRS", skip)
        start = _gauss_states()[which]
        reference = random.Random()
        reference.setstate(start)
        moved = random.Random()
        for count in range(3 * CHUNK_VALUES + 2):
            advance(moved, start, count)
            assert moved.getstate() == reference.getstate(), count
            reference.gauss(0.0, self.SIGMA)

    def test_racing_threads_get_the_reference_sequence(self, monkeypatch):
        """Serve's executor threads may share a tape: racing extensions and
        trims may cost a recomputation, never a wrong value."""
        import random
        import sys
        import threading

        import repro.simcore.tapes as tapes_module
        from repro.simcore.tapes import CHUNK_VALUES, JitterTape

        start = _gauss_states()["cached"]
        count = 4 * CHUNK_VALUES
        reference = random.Random()
        reference.setstate(start)
        expected = [reference.gauss(0.0, self.SIGMA) for _ in range(count)]
        # a finished run trims its tapes while others still read past the cap
        monkeypatch.setattr(tapes_module, "MAX_VALUES_PER_TAPE", CHUNK_VALUES // 2)
        shared = JitterTape(start, self.SIGMA)
        got = {}

        def reader(name):
            values = shared.values
            seen = []
            for k in range(count):
                # the run loop's read: index, and compute on a miss
                try:
                    seen.append(values[k])
                except IndexError:
                    seen.append(shared.at(k))
                if k % 97 == 0:
                    shared.trim()
            got[name] = seen

        threads = [threading.Thread(target=reader, args=(k,)) for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(got) == list(range(8))
        for name, seen in got.items():
            assert seen == expected, name

    def test_kept_tapes_are_capped_and_exact(self, monkeypatch):
        """Runs on distinct seeds leave at most MAX_TAPES tapes, none past
        the per-tape cap, and a cap that trims mid-sweep changes no result."""
        import repro.simcore.tapes as tapes_module
        from repro.harness.experiment import run_experiment
        from repro.simcore import assert_results_identical

        run = dict(scheme="pid", max_instructions=60, simcore="fast")
        monkeypatch.setattr(tapes_module, "_TAPES", {})
        uncapped = [run_experiment("gzip", seed=seed, **run) for seed in (1, 2)]

        cap = 100
        monkeypatch.setattr(tapes_module, "_TAPES", {})
        monkeypatch.setattr(tapes_module, "MAX_VALUES_PER_TAPE", cap)
        for seed in range(1, 51):
            result = run_experiment("gzip", seed=seed, **run)
            if seed <= 2:
                assert_results_identical(
                    uncapped[seed - 1], result, context=f"seed {seed} capped"
                )
            assert len(tapes_module._TAPES) <= tapes_module.MAX_TAPES
            assert all(len(t.values) <= cap for t in tapes_module._TAPES.values())
        # a rerun reads the trimmed tapes and computes the rest again
        for seed in (49, 50):
            again = run_experiment("gzip", seed=seed, **run)
            assert_results_identical(
                run_experiment("gzip", seed=seed, **dict(run, simcore="ref")),
                again,
                context=f"seed {seed} from a trimmed tape",
            )

    def test_a_run_past_its_cutoff_trims_its_tapes(self, monkeypatch, tiny_benchmark):
        import repro.simcore.tapes as tapes_module
        from repro.workloads.generator import generate_trace

        monkeypatch.setattr(tapes_module, "_TAPES", {})
        monkeypatch.setattr(tapes_module, "MAX_VALUES_PER_TAPE", 10)
        processor = create_processor(
            trace=generate_trace(tiny_benchmark, seed=1), seed=1, simcore="fast"
        )
        with pytest.raises(RuntimeError, match="exceeded"):
            processor.run(max_time_ns=100.0)
        assert len(tapes_module._TAPES) == 4
        assert all(len(t.values) <= 10 for t in tapes_module._TAPES.values())


class TestCacheKeying:
    def test_canonical_dict_carries_resolved_core(self, tiny_benchmark):
        from repro.engine.jobs import SweepJob

        ref_job = SweepJob.make(tiny_benchmark, seed=1, simcore="ref")
        fast_job = SweepJob.make(tiny_benchmark, seed=1, simcore="fast")
        assert ref_job.canonical_dict()["simcore"] == "ref"
        assert fast_job.canonical_dict()["simcore"] == "fast"
        assert ref_job.canonical_json() != fast_job.canonical_json(), (
            "cores must never alias in the cache key"
        )

    def test_env_var_reaches_cache_key(self, tiny_benchmark, monkeypatch):
        from repro.engine.cache import job_cache_key
        from repro.engine.jobs import SweepJob

        job = SweepJob.make(tiny_benchmark, seed=1)
        monkeypatch.setenv(SIMCORE_ENV, "ref")
        ref_key = job_cache_key(job)
        monkeypatch.setenv(SIMCORE_ENV, "fast")
        fast_key = job_cache_key(job)
        assert ref_key != fast_key

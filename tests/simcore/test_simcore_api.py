"""Unit tests for the simcore package API: selection and tables."""

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

    def test_period_table_matches_reciprocal(self):
        from repro.power.model import PowerModel

        machine = MachineConfig()
        tables = tables_for(machine, PowerModel())
        for freq in (machine.f_min_ghz, 0.75, machine.f_max_ghz):
            assert tables.period_ns(freq) == 1.0 / freq

    def test_voltage_table_matches_config(self):
        from repro.power.model import PowerModel

        machine = MachineConfig()
        tables = tables_for(machine, PowerModel())
        for freq in (machine.f_min_ghz, 0.8, machine.f_max_ghz):
            assert tables.voltage_for(freq) == machine.voltage_for(freq)


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

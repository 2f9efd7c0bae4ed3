"""Tests for scheme comparison and aggregation."""

import pytest

from repro.harness.comparison import aggregate, compare_schemes, sweep
from repro.harness.experiment import run_experiment


@pytest.fixture(scope="module")
def spec():
    from repro.workloads.phases import BenchmarkSpec, PhaseSpec
    from repro.workloads.instructions import InstructionKind as K

    return BenchmarkSpec(
        name="cmp-test",
        suite="mediabench",
        phases=(
            PhaseSpec(
                name="int",
                length=8000,
                mix={K.INT_ALU: 0.6, K.LOAD: 0.2, K.STORE: 0.05, K.BRANCH: 0.15},
            ),
        ),
    )


@pytest.fixture(scope="module")
def comparison(spec):
    return compare_schemes(spec, schemes=("adaptive", "pid"))


class TestCompareSchemes:
    def test_contains_requested_schemes(self, comparison):
        assert [s.scheme for s in comparison.schemes] == ["adaptive", "pid"]

    def test_result_for_lookup(self, comparison):
        assert comparison.result_for("pid").scheme == "pid"
        with pytest.raises(KeyError):
            comparison.result_for("turbo")

    def test_baseline_metrics_sane(self, comparison):
        assert comparison.baseline.time_ns > 0
        assert comparison.baseline.energy > 0

    def test_relative_metrics_consistent(self, comparison):
        for s in comparison.schemes:
            expected_sav = 100 * (comparison.baseline.energy - s.metrics.energy) / comparison.baseline.energy
            assert s.energy_savings_pct == pytest.approx(expected_sav)
            expected_deg = 100 * (s.metrics.time_ns - comparison.baseline.time_ns) / comparison.baseline.time_ns
            assert s.perf_degradation_pct == pytest.approx(expected_deg)

    def test_adaptive_saves_energy_on_int_workload(self, comparison):
        """FP domain idle throughout: DVFS must save energy."""
        adaptive = comparison.result_for("adaptive")
        assert adaptive.energy_savings_pct > 0.0

    def test_perf_degradation_bounded(self, comparison):
        adaptive = comparison.result_for("adaptive")
        assert adaptive.perf_degradation_pct < 25.0

    def test_metrics_equal_direct_runs_exactly(self, spec, comparison):
        runs = [("full-speed", comparison.baseline)] + [
            (s.scheme, s.metrics) for s in comparison.schemes
        ]
        for scheme, metrics in runs:
            direct = run_experiment(spec, scheme=scheme, record_history=False)
            assert metrics == direct.metrics, scheme


class TestAggregate:
    def test_aggregate_means(self, comparison):
        agg = aggregate([comparison, comparison], "adaptive")
        single = comparison.result_for("adaptive")
        assert agg["energy_savings_pct"] == pytest.approx(single.energy_savings_pct)
        assert agg["perf_degradation_pct"] == pytest.approx(single.perf_degradation_pct)

    def test_aggregate_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([], "adaptive")


class TestSweep:
    def test_sweep_runs_multiple_benchmarks(self):
        from repro.harness.comparison import sweep
        from repro.workloads.instructions import InstructionKind as K
        from repro.workloads.phases import BenchmarkSpec, PhaseSpec

        specs = [
            BenchmarkSpec(
                name=f"sweep-{i}",
                suite="mediabench",
                phases=(
                    PhaseSpec(
                        name="p",
                        length=2500,
                        mix={K.INT_ALU: 0.6, K.LOAD: 0.25, K.BRANCH: 0.15},
                    ),
                ),
            )
            for i in range(2)
        ]
        comparisons = sweep(specs, schemes=("adaptive",))
        assert [c.benchmark for c in comparisons] == ["sweep-0", "sweep-1"]
        for comp in comparisons:
            assert comp.result_for("adaptive").metrics.time_ns > 0

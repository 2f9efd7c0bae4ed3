"""Unit tests for fast-workload-variation classification."""

import numpy as np
import pytest

from repro.spectral.classify import (
    FAST_WAVELENGTH_SAMPLES,
    band_variance,
    classify_fast_varying,
    classify_fast_varying_trace,
    demand_shares,
    fast_variation_metric,
    workload_fast_variation_metric,
)
from repro.spectral.multitaper import multitaper_spectrum
from repro.workloads.generator import generate_trace
from repro.workloads.instructions import InstructionKind as K
from repro.workloads.phases import BenchmarkSpec, PhaseSpec


def _signal(wavelength, amplitude=4.0, n=16384):
    t = np.arange(n)
    return amplitude * np.sin(2 * np.pi * t / wavelength)


class TestBandVariance:
    def test_band_captures_in_band_tone(self):
        x = _signal(wavelength=300)
        spec = multitaper_spectrum(x)
        v = band_variance(spec, 8, FAST_WAVELENGTH_SAMPLES)
        assert v == pytest.approx(8.0, rel=0.2)  # amp^2/2

    def test_band_excludes_out_of_band_tone(self):
        x = _signal(wavelength=8000)
        spec = multitaper_spectrum(x)
        v = band_variance(spec, 8, 2500)
        assert v < 0.8

    def test_rejects_bad_bounds(self):
        spec = multitaper_spectrum(np.zeros(64) + np.arange(64) % 2)
        with pytest.raises(ValueError):
            band_variance(spec, 100, 10)


class TestClassification:
    def test_fast_swing_classified_fast(self):
        """A +-4-entry swing at 500-sample wavelength (2 us) is fast."""
        x = 4.0 + _signal(wavelength=500)
        assert classify_fast_varying(x)

    def test_slow_swing_classified_steady(self):
        """The same swing at 20000-sample wavelength (80 us) is not."""
        x = 4.0 + _signal(wavelength=20000, n=65536)
        assert not classify_fast_varying(x)

    def test_small_noise_classified_steady(self):
        rng = np.random.default_rng(3)
        x = 4.0 + 0.5 * rng.standard_normal(16384)
        assert not classify_fast_varying(x)

    def test_metric_monotone_in_amplitude(self):
        small = fast_variation_metric(4.0 + 0.5 * _signal(500) / 4.0)
        big = fast_variation_metric(4.0 + _signal(500))
        assert big > small

    def test_interval_parameter_shifts_the_boundary(self):
        """A 5000-sample swing is invisible to a 2500-sample interval metric
        but counts against a 10000-sample interval."""
        x = 4.0 + _signal(wavelength=5000, n=65536)
        short = fast_variation_metric(x, interval_samples=2500)
        long = fast_variation_metric(x, interval_samples=10000)
        assert long > 4 * short


def _alternating_spec(burst, repeats, mix_a, mix_b):
    a = PhaseSpec(name="a", length=burst, mix=mix_a)
    b = PhaseSpec(name="b", length=burst, mix=mix_b)
    return BenchmarkSpec(
        name="clf-test", suite="mediabench", phases=tuple([a, b] * repeats)
    )


def _steady_spec(length, mix):
    return BenchmarkSpec(
        name="clf-steady",
        suite="mediabench",
        phases=(PhaseSpec(name="s", length=length, mix=mix),),
    )


INT_MIX = {K.INT_ALU: 0.6, K.LOAD: 0.2, K.BRANCH: 0.2}
FP_MIX = {K.FP_ADD: 0.5, K.INT_ALU: 0.3, K.LOAD: 0.2}


class TestDemandShares:
    def test_shape_and_normalization(self):
        trace = generate_trace(_steady_spec(5000, INT_MIX))
        shares = demand_shares(trace, window=100)
        assert shares.shape == (5, 50)
        assert np.allclose(shares.sum(axis=0), 1.0)

    def test_rejects_bad_window(self):
        trace = generate_trace(_steady_spec(1000, INT_MIX))
        with pytest.raises(ValueError):
            demand_shares(trace, window=0)

    def test_fp_channel_tracks_fp_phase(self):
        spec = _alternating_spec(2000, 8, INT_MIX, FP_MIX)
        trace = generate_trace(spec)
        shares = demand_shares(trace, window=500)
        fp = shares[0]
        # alternation: FP share swings between ~0 and ~0.5
        assert fp.max() > 0.3
        assert fp.min() < 0.1


class TestWorkloadMetric:
    def test_alternating_workload_scores_high(self):
        spec = _alternating_spec(2000, 20, INT_MIX, FP_MIX)
        metric = workload_fast_variation_metric(generate_trace(spec))
        assert metric > 0.01

    def test_steady_workload_scores_near_zero(self):
        metric = workload_fast_variation_metric(
            generate_trace(_steady_spec(80_000, INT_MIX))
        )
        assert metric < 0.005

    def test_slow_phases_score_low(self):
        """Two long phases (each >> the interval) are not fast variation."""
        spec = BenchmarkSpec(
            name="clf-slow",
            suite="mediabench",
            phases=(
                PhaseSpec(name="a", length=40_000, mix=INT_MIX),
                PhaseSpec(name="b", length=40_000, mix=FP_MIX),
            ),
        )
        metric = workload_fast_variation_metric(generate_trace(spec))
        assert metric < 0.01

    def test_rejects_short_trace(self):
        with pytest.raises(ValueError, match="too short"):
            workload_fast_variation_metric(
                generate_trace(_steady_spec(2000, INT_MIX))
            )

    def test_rejects_degenerate_interval(self):
        trace = generate_trace(_steady_spec(80_000, INT_MIX))
        with pytest.raises(ValueError):
            workload_fast_variation_metric(trace, window=500,
                                           interval_instructions=1000.0)


class TestTraceClassifier:
    def test_suite_ground_truth_sample(self):
        """The classifier agrees with the labels of representative suite
        members (the full-suite check runs in the Table-2 bench)."""
        from repro.workloads.suite import get_benchmark

        for name, expected in (
            ("gsm-decode", True),
            ("mpeg2-decode", True),
            ("gzip", False),
            ("swim", False),
        ):
            trace = generate_trace(get_benchmark(name))
            assert classify_fast_varying_trace(trace) == expected, name

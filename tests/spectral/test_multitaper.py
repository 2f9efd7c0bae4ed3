"""Unit tests for the multi-taper spectrum estimator."""

import numpy as np
import pytest

from repro.spectral.multitaper import VarianceSpectrum, multitaper_spectrum


class TestNormalization:
    def test_parseval_white_noise(self):
        """Total spectral variance must match the series variance."""
        rng = np.random.default_rng(1)
        x = rng.standard_normal(4096)
        spec = multitaper_spectrum(x)
        assert spec.total_variance == pytest.approx(float(x.var()), rel=0.1)

    def test_parseval_sinusoid(self):
        t = np.arange(4096)
        x = 3.0 * np.sin(2 * np.pi * t / 64)
        spec = multitaper_spectrum(x)
        assert spec.total_variance == pytest.approx(4.5, rel=0.1)

    def test_mean_removed(self):
        """A constant offset contributes nothing."""
        x = np.full(1024, 7.0)
        spec = multitaper_spectrum(x + np.sin(np.arange(1024) / 10))
        spec_no_offset = multitaper_spectrum(np.sin(np.arange(1024) / 10))
        assert spec.total_variance == pytest.approx(
            spec_no_offset.total_variance, rel=0.05
        )


class TestPeakLocation:
    def test_peak_at_signal_frequency(self):
        t = np.arange(8192)
        wavelength = 128.0
        x = np.sin(2 * np.pi * t / wavelength)
        spec = multitaper_spectrum(x)
        peak_freq = spec.frequency[int(np.argmax(spec.density))]
        assert peak_freq == pytest.approx(1.0 / wavelength, rel=0.05)

    def test_two_tones_separate(self):
        t = np.arange(8192)
        x = np.sin(2 * np.pi * t / 50) + 2.0 * np.sin(2 * np.pi * t / 1000)
        spec = multitaper_spectrum(x)
        hi = (spec.frequency > 1 / 60) & (spec.frequency < 1 / 40)
        lo = (spec.frequency > 1 / 1200) & (spec.frequency < 1 / 800)
        v_hi = float(np.sum(spec.density[hi]) * spec.df)
        v_lo = float(np.sum(spec.density[lo]) * spec.df)
        assert v_lo == pytest.approx(2.0, rel=0.3)
        assert v_hi == pytest.approx(0.5, rel=0.3)


class TestApi:
    def test_wavelength_axis(self):
        spec = multitaper_spectrum(np.random.default_rng(0).standard_normal(256))
        assert np.isinf(spec.wavelength[0])  # DC
        assert spec.wavelength[-1] == pytest.approx(2.0)  # Nyquist

    def test_rejects_short_series(self):
        with pytest.raises(ValueError):
            multitaper_spectrum([1.0, 2.0, 3.0])

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            multitaper_spectrum(np.zeros((4, 4)))

    def test_rejects_zero_tapers(self):
        with pytest.raises(ValueError):
            multitaper_spectrum(np.zeros(64), n_tapers=0)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            VarianceSpectrum(frequency=np.zeros(4), density=np.zeros(5))

    def test_more_tapers_lower_estimator_variance(self):
        """Averaging more tapers smooths the white-noise spectrum."""
        rng = np.random.default_rng(2)
        x = rng.standard_normal(4096)
        rough = multitaper_spectrum(x, n_tapers=1).density
        smooth = multitaper_spectrum(x, n_tapers=7).density
        assert np.std(smooth[1:]) < np.std(rough[1:])

"""Tests for online/offline mu-f parameter estimation (paper Sec 4.3)."""

import numpy as np
import pytest

from repro.analysis.estimation import (
    MuFEstimate,
    OnlineMuFEstimator,
    estimate_from_history,
    fit_mu_f,
    offline_characterization,
)
from repro.analysis.model import ServiceModel
from repro.harness.experiment import run_experiment
from repro.mcd.domains import DomainId


def _observations(t1, c2, freqs):
    model = ServiceModel(t1=t1, c2=c2)
    return freqs, [model.mu(f) for f in freqs]


class TestFit:
    def test_recovers_exact_parameters(self):
        freqs, mus = _observations(0.3, 1.2, [0.25, 0.4, 0.6, 0.8, 1.0])
        est = fit_mu_f(freqs, mus)
        assert est.t1 == pytest.approx(0.3, abs=1e-9)
        assert est.c2 == pytest.approx(1.2, abs=1e-9)
        assert est.r_squared == pytest.approx(1.0)

    def test_pure_compute_has_zero_t1(self):
        freqs, mus = _observations(0.0, 2.0, [0.3, 0.5, 0.9])
        est = fit_mu_f(freqs, mus)
        assert est.t1 == pytest.approx(0.0, abs=1e-9)
        assert est.memory_boundedness == pytest.approx(0.0, abs=1e-6)

    def test_memory_boundedness(self):
        est = MuFEstimate(t1=1.0, c2=1.0, r_squared=1.0, n_points=10)
        assert est.memory_boundedness == pytest.approx(0.5)

    def test_robust_to_noise(self):
        rng = np.random.default_rng(7)
        freqs = np.linspace(0.25, 1.0, 60)
        model = ServiceModel(t1=0.4, c2=1.0)
        mus = np.array([model.mu(f) for f in freqs]) * (
            1.0 + 0.02 * rng.standard_normal(60)
        )
        est = fit_mu_f(freqs, mus)
        assert est.t1 == pytest.approx(0.4, abs=0.1)
        assert est.c2 == pytest.approx(1.0, abs=0.1)
        assert est.r_squared > 0.9

    def test_rejects_degenerate_frequency(self):
        with pytest.raises(ValueError, match="variation"):
            fit_mu_f([0.5, 0.5, 0.5], [1.0, 1.0, 1.0])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fit_mu_f([0.5, 0.0], [1.0, 1.0])

    def test_rejects_too_few(self):
        with pytest.raises(ValueError):
            fit_mu_f([0.5], [1.0])

    def test_service_model_roundtrip(self):
        freqs, mus = _observations(0.3, 1.2, [0.25, 0.5, 1.0])
        model = fit_mu_f(freqs, mus).service_model()
        assert model.mu(0.7) == pytest.approx(ServiceModel(0.3, 1.2).mu(0.7))


class TestOnline:
    def test_not_ready_without_variation(self):
        est = OnlineMuFEstimator(window=8)
        est.update(0.5, 1.0)
        est.update(0.5, 1.0)
        assert not est.ready()
        with pytest.raises(RuntimeError):
            est.estimate()

    def test_rolling_window_evicts_old(self):
        est = OnlineMuFEstimator(window=4)
        freqs, mus = _observations(0.2, 1.0, [0.3, 0.5, 0.7, 0.9, 1.0, 0.4])
        for f, mu in zip(freqs, mus):
            est.update(f, mu)
        assert est.n_observations == 4

    def test_converges_on_stream(self):
        est = OnlineMuFEstimator(window=32)
        freqs, mus = _observations(0.25, 1.5, list(np.linspace(0.3, 1.0, 32)))
        for f, mu in zip(freqs, mus):
            est.update(f, mu)
        fitted = est.estimate()
        assert fitted.t1 == pytest.approx(0.25, abs=1e-6)
        assert fitted.c2 == pytest.approx(1.5, abs=1e-6)

    def test_rejects_small_window(self):
        with pytest.raises(ValueError):
            OnlineMuFEstimator(window=1)


class TestFromSimulation:
    @pytest.fixture(scope="class")
    def history(self):
        result = run_experiment(
            "gzip", scheme="adaptive", max_instructions=40_000, history_stride=1
        )
        return result.history

    def test_estimates_int_domain(self, history):
        est = estimate_from_history(history, DomainId.INT)
        # sane, positive frequency-dependent cost; decent fit
        assert est.c2 > 0
        assert est.n_points >= 2
        assert 0.0 <= est.memory_boundedness < 0.9

    def test_window_too_large_rejected(self, history):
        with pytest.raises(ValueError):
            estimate_from_history(history, DomainId.INT, window_samples=10**9)


class TestOfflineCharacterization:
    def test_memory_bound_domain_has_high_t1_share(self):
        est = offline_characterization("mcf", DomainId.LS, max_instructions=15_000)
        assert est.r_squared > 0.95
        assert est.memory_boundedness > 0.5

    def test_compute_bound_domain_has_low_t1_share(self):
        est = offline_characterization("swim", DomainId.FP, max_instructions=15_000)
        assert est.r_squared > 0.95
        assert est.memory_boundedness < 0.6

    def test_rejects_single_probe(self):
        with pytest.raises(ValueError):
            offline_characterization("gzip", DomainId.INT, frequencies=(0.5,))

    def test_rejects_inactive_domain(self):
        # gzip has no FP instructions at all
        with pytest.raises(ValueError, match="too little"):
            offline_characterization("gzip", DomainId.FP, max_instructions=5_000)

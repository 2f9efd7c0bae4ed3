"""Tests for the discrete-time sampled-loop model (paper future work)."""

import numpy as np
import pytest

from repro.analysis.discrete import DiscreteClosedLoop, from_continuous, max_stable_km
from repro.analysis.linearize import linearize
from repro.analysis.model import ClosedLoopModel, ControllerModel, ServiceModel


def _loop(k_m=0.01, k_l=0.05, gamma=1.0, dead_time=0):
    return DiscreteClosedLoop(k_m=k_m, k_l=k_l, gamma=gamma, dead_time=dead_time)


class TestStructure:
    def test_matrix_dimensions_grow_with_dead_time(self):
        assert _loop(dead_time=0).system_matrix().shape == (3, 3)
        assert _loop(dead_time=3).system_matrix().shape == (6, 6)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            DiscreteClosedLoop(k_m=0.0, k_l=0.1)
        with pytest.raises(ValueError):
            DiscreteClosedLoop(k_m=0.1, k_l=-0.1)
        with pytest.raises(ValueError):
            DiscreteClosedLoop(k_m=0.1, k_l=0.1, dead_time=-1)

    def test_simulate_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            _loop().simulate_step(steps=0)


class TestSmallGainAgreesWithContinuous:
    def test_small_gains_stable(self):
        """In the continuous regime (gains << 1/period) the discrete loop is
        stable, agreeing with Remark 1."""
        assert _loop(k_m=0.001, k_l=0.01).is_stable

    def test_from_continuous_mapping(self):
        model = ClosedLoopModel(
            controller=ControllerModel(step=0.2, t_m0=50.0, t_l0=8.0),
            service=ServiceModel(t1=0.2, c2=1.0),
            q_ref=4.0,
        )
        system = linearize(model, f_op=0.6)
        discrete = from_continuous(system)
        assert discrete.is_stable
        # decay rate of the dominant discrete mode ~ slowest continuous root
        continuous_decay = abs(max(
            (r.real for r in __import__("repro.analysis.stability",
                                        fromlist=["characteristic_roots"]
                                        ).characteristic_roots(system.k_m, system.k_l)),
        ))
        discrete_decay = -np.log(discrete.spectral_radius)
        assert discrete_decay == pytest.approx(continuous_decay, rel=0.2)

    def test_step_response_converges_when_stable(self):
        errors, _ = _loop(k_m=0.005, k_l=0.05).simulate_step(e0=-4.0, steps=5000)
        assert abs(errors[-1]) < 0.05 * 4.0


class TestDiscreteCorrection:
    """The headline: large gains destabilize the *sampled* loop."""

    def test_large_gain_unstable(self):
        loop = _loop(k_m=3.0, k_l=1.0)
        assert not loop.is_stable
        errors, _ = loop.simulate_step(e0=-1.0, steps=300)
        assert abs(errors[-1]) > abs(errors[0])  # divergence in time domain

    def test_eigen_verdict_matches_simulation(self):
        for k_m in (0.01, 0.2, 1.0, 3.0, 6.0):
            loop = _loop(k_m=k_m, k_l=0.4)
            errors, _ = loop.simulate_step(e0=-1.0, steps=4000)
            diverged = abs(errors[-1]) > 10.0
            if loop.spectral_radius < 0.999:
                assert not diverged, k_m
            elif loop.spectral_radius > 1.001:
                assert diverged, k_m

    def test_dead_time_shrinks_stability_region(self):
        boundary_now = max_stable_km(k_l=0.3, dead_time=0)
        boundary_late = max_stable_km(k_l=0.3, dead_time=8)
        assert boundary_late < boundary_now

    def test_boundary_is_finite_unlike_continuous_model(self):
        boundary = max_stable_km(k_l=0.3, hi=64.0)
        assert 0.0 < boundary < 64.0

    def test_boundary_bisection_consistent(self):
        k_l = 0.3
        boundary = max_stable_km(k_l=k_l)
        assert DiscreteClosedLoop(k_m=boundary * 0.95, k_l=k_l).is_stable
        assert not DiscreteClosedLoop(k_m=boundary * 1.05, k_l=k_l).is_stable

    def test_paper_operating_point(self):
        """At the paper's aggregate gains (tiny step per sample) the sampled
        loop is stable without dead time, but the *pure-delay* model puts
        the tolerance at only a handful of samples -- marginal oscillatory
        growth beyond that.  The real controller stays well-behaved because
        its time delay is a resettable counter (not a transport lag) and its
        actions saturate; the gap between the two is exactly the kind of
        conservatism a linear dead-time model carries, and the reason the
        reproduction keeps both model and simulator."""
        # K ~ k*step/T with step ~ 0.0031 (2.34 MHz / 750 MHz), k ~ 0.3
        k_m = 0.3 * 0.0031 / 50.0
        k_l = 0.3 * 0.0031 / 8.0
        assert DiscreteClosedLoop(k_m=k_m, k_l=k_l, dead_time=0).is_stable
        assert DiscreteClosedLoop(k_m=k_m, k_l=k_l, dead_time=5).is_stable
        marginal = DiscreteClosedLoop(k_m=k_m, k_l=k_l, dead_time=50)
        assert not marginal.is_stable
        # ... but only marginally: the unstable mode grows very slowly
        assert marginal.spectral_radius < 1.001

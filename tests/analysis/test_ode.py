"""Tests for the closed-loop ODE simulations.

These validate the closed-form stability formulas against measured
trajectories -- the check the paper's Figure-6 approximation argument rests
on -- and exercise the nonlinear saturating model.
"""

import numpy as np
import pytest

from repro.analysis.linearize import LinearizedSystem, linearize
from repro.analysis.model import ClosedLoopModel, ControllerModel, ServiceModel
from repro.analysis.ode import simulate_linear_step, simulate_nonlinear
from repro.analysis.stability import analyze


def _loop(t_m0=50.0, t_l0=8.0, step=0.2):
    # step = 0.2 (in normalized frequency per sampling period) gives loop
    # gains large enough that trajectories settle within a few thousand
    # periods; the real hardware step is far smaller and correspondingly
    # slower, which only rescales time.
    return ClosedLoopModel(
        controller=ControllerModel(step=step, t_m0=t_m0, t_l0=t_l0),
        service=ServiceModel(t1=0.2, c2=1.0),
        q_ref=4.0,
    )


class TestLinearStep:
    def test_converges_to_reference(self):
        sys = linearize(_loop(), 0.6)
        resp = simulate_linear_step(sys, duration=3000.0)
        assert abs(resp.final_value) < 0.02

    def test_measured_overshoot_matches_formula(self):
        sys = linearize(_loop(t_m0=16.0, t_l0=8.0), 0.6)  # underdamped
        report = analyze(sys)
        resp = simulate_linear_step(sys, duration=5000.0, dt=0.02)
        assert resp.overshoot_pct == pytest.approx(report.percent_overshoot, abs=2.0)

    def test_measured_settling_close_to_formula(self):
        sys = linearize(_loop(), 0.6)
        report = analyze(sys)
        resp = simulate_linear_step(sys, duration=12000.0, dt=0.1)
        # the 8/K_l rule is a ~2% band estimate; allow 2x slack
        assert resp.settling_time < 2.5 * report.settling_time

    def test_overdamped_never_overshoots(self):
        sys = linearize(_loop(t_m0=2000.0, t_l0=4.0), 0.6)
        assert analyze(sys).damping_ratio > 1.0  # genuinely overdamped
        resp = simulate_linear_step(sys, duration=8000.0)
        assert resp.overshoot_pct < 0.5

    def test_rejects_bad_duration(self):
        sys = linearize(_loop(), 0.6)
        with pytest.raises(ValueError):
            simulate_linear_step(sys, duration=0.0)


class TestNonlinear:
    def test_tracks_load_step(self):
        """After a load step, the queue returns near q_ref and frequency
        settles where mu(f) = load."""
        model = _loop()
        load_value = 0.55

        resp = simulate_nonlinear(
            model,
            load=lambda t: load_value,
            q0=4.0,
            f0=1.0,
            duration=30000.0,
            dt=0.5,
        )
        f_final = float(resp.second[-1])
        assert model.service.mu(f_final) == pytest.approx(load_value, rel=0.05)
        assert float(resp.q[-1]) == pytest.approx(4.0, abs=1.0)

    def test_zero_load_drives_frequency_to_floor(self):
        model = _loop()
        resp = simulate_nonlinear(
            model, load=lambda t: 0.0, q0=0.0, f0=1.0, duration=40000.0, dt=0.5
        )
        assert float(resp.second[-1]) == pytest.approx(model.f_min, abs=0.01)

    def test_overload_saturates_queue_and_frequency(self):
        model = _loop()
        resp = simulate_nonlinear(
            model, load=lambda t: 10.0, q0=4.0, f0=0.5, duration=20000.0, dt=0.5
        )
        assert float(resp.second[-1]) == pytest.approx(model.f_max, abs=0.01)
        assert float(resp.q[-1]) == pytest.approx(model.q_max, abs=0.1)

    def test_state_always_within_saturation_bounds(self):
        model = _loop()
        resp = simulate_nonlinear(
            model,
            load=lambda t: 0.8 if (t // 1000) % 2 == 0 else 0.1,
            duration=10000.0,
            dt=0.5,
        )
        assert np.all(resp.q >= -1e-9)
        assert np.all(resp.q <= model.q_max + 1e-9)
        assert np.all(resp.second >= model.f_min - 1e-9)
        assert np.all(resp.second <= model.f_max + 1e-9)

    def test_nonlinear_agrees_with_linear_near_operating_point(self):
        """Small perturbations: the nonlinear response should resemble the
        linearized one (same sign of motion, comparable magnitude)."""
        model = _loop()
        f_op = 0.6
        load_value = model.service.mu(f_op)
        resp = simulate_nonlinear(
            model,
            load=lambda t: load_value,
            q0=3.0,  # one entry below reference
            f0=f_op,
            duration=20000.0,
            dt=0.5,
        )
        assert float(resp.q[-1]) == pytest.approx(4.0, abs=0.6)

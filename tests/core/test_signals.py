"""Unit tests for queue-signal extraction."""

import pytest

from repro.core.signals import SignalMonitor


class TestLevelSignal:
    def test_level_relative_to_reference(self):
        mon = SignalMonitor(q_ref=4)
        assert mon.sample(7).level == pytest.approx(3.0)
        assert mon.sample(2).level == pytest.approx(-2.0)

    def test_level_zero_at_reference(self):
        assert SignalMonitor(4).sample(4).level == 0.0


class TestSlopeSignal:
    def test_first_sample_has_zero_slope(self):
        assert SignalMonitor(4).sample(9).slope == 0.0

    def test_slope_is_difference_of_consecutive_samples(self):
        mon = SignalMonitor(4)
        mon.sample(3)
        assert mon.sample(8).slope == pytest.approx(5.0)
        assert mon.sample(6).slope == pytest.approx(-2.0)

    def test_steady_occupancy_zero_slope(self):
        mon = SignalMonitor(4)
        mon.sample(5)
        for _ in range(5):
            assert mon.sample(5).slope == 0.0


class TestReset:
    def test_reset_forgets_previous(self):
        mon = SignalMonitor(4)
        mon.sample(10)
        mon.reset()
        assert mon.sample(3).slope == 0.0


class TestValidation:
    def test_rejects_negative_qref(self):
        with pytest.raises(ValueError):
            SignalMonitor(-1)

    def test_rejects_negative_occupancy(self):
        with pytest.raises(ValueError):
            SignalMonitor(4).sample(-1)

    def test_sample_carries_occupancy(self):
        assert SignalMonitor(4).sample(7).occupancy == 7


class TestSignalsPair:
    def test_signals_match_sample_stream(self):
        occupancies = [3, 8, 8, 0, 12, 5]
        by_sample, by_pair = SignalMonitor(4), SignalMonitor(4)
        for occupancy in occupancies:
            sample = by_sample.sample(occupancy)
            assert by_pair.signals(occupancy) == (sample.level, sample.slope)

    def test_signals_and_sample_share_history(self):
        mon = SignalMonitor(4)
        mon.signals(3)
        assert mon.sample(8).slope == pytest.approx(5.0)

    def test_signals_rejects_negative_occupancy(self):
        with pytest.raises(ValueError):
            SignalMonitor(4).signals(-1)

"""Unit tests for StateMonitor."""

import math

import pytest

from repro.sim.monitor import StateMonitor


class TestStateMonitor:
    def test_time_average_of_step_function(self):
        monitor = StateMonitor(initial=0.0, time=0.0)
        monitor.set(10, 2.0)  # 0 for [0,10), 2 for [10,20)
        assert monitor.time_average(until=20) == pytest.approx(1.0)

    def test_time_average_single_sample(self):
        monitor = StateMonitor(initial=5.0, time=3.0)
        assert monitor.time_average(until=3.0) == 5.0

    def test_time_backwards_rejected(self):
        monitor = StateMonitor(initial=0.0, time=10.0)
        with pytest.raises(ValueError):
            monitor.set(5.0, 1.0)

    def test_current(self):
        monitor = StateMonitor(initial=1.0)
        monitor.set(2.0, 7.0)
        assert monitor.current == 7.0

    def test_current_without_samples_raises(self):
        with pytest.raises(ValueError):
            _ = StateMonitor().current

    def test_empty_time_average_is_nan(self):
        assert math.isnan(StateMonitor().time_average(until=10))

    def test_samples_arrays(self):
        monitor = StateMonitor(initial=1.0, time=0.0)
        monitor.set(5.0, 3.0)
        times, states = monitor.samples()
        assert times.tolist() == [0.0, 5.0]
        assert states.tolist() == [1.0, 3.0]

    def test_zero_duration_window_returns_current_state(self):
        monitor = StateMonitor(initial=2.0, time=10.0)
        monitor.set(10.0, 6.0)  # same instant: window width is 0
        assert monitor.time_average(until=10.0) == 6.0

    def test_until_before_first_sample_returns_current_state(self):
        monitor = StateMonitor(initial=4.0, time=10.0)
        assert monitor.time_average(until=5.0) == 4.0

    def test_reset(self):
        monitor = StateMonitor(initial=1.0, time=0.0)
        monitor.set(5.0, 3.0)
        monitor.reset()
        assert math.isnan(monitor.time_average(until=10.0))
        monitor.set(2.0, 9.0)  # times may restart after a reset
        assert monitor.current == 9.0

    def test_reset_with_initial_reseeds(self):
        monitor = StateMonitor(initial=1.0, time=0.0)
        monitor.set(5.0, 3.0)
        monitor.reset(initial=7.0, time=100.0)
        assert monitor.current == 7.0
        assert monitor.time_average(until=200.0) == 7.0

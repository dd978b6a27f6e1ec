"""Unit tests for fault injection primitives."""

import pytest

from repro.errors import NetworkError
from repro.net.faults import CrashSchedule, FaultPlan, TransientLinkFaults
from repro.sim.rng import RandomStreams


@pytest.fixture
def stream():
    return RandomStreams(9).stream("faults")


class TestCrashSchedule:
    def test_up_by_default(self):
        schedule = CrashSchedule()
        assert schedule.is_up("s1", 100.0)

    def test_down_during_window(self):
        schedule = CrashSchedule().add("s1", 10, 20)
        assert schedule.is_up("s1", 9.99)
        assert not schedule.is_up("s1", 10)
        assert not schedule.is_up("s1", 19.99)
        assert schedule.is_up("s1", 20)

    def test_multiple_windows(self):
        schedule = CrashSchedule().add("s1", 10, 20).add("s1", 30, 40)
        assert schedule.is_up("s1", 25)
        assert not schedule.is_up("s1", 35)

    def test_overlapping_windows_rejected(self):
        schedule = CrashSchedule().add("s1", 10, 20)
        with pytest.raises(NetworkError):
            schedule.add("s1", 15, 25)

    def test_invalid_window_rejected(self):
        with pytest.raises(NetworkError):
            CrashSchedule().add("s1", 20, 10)
        with pytest.raises(NetworkError):
            CrashSchedule().add("s1", -5, 10)

    def test_next_recovery(self):
        schedule = CrashSchedule().add("s1", 10, 20)
        assert schedule.next_recovery("s1", 15) == 20
        assert schedule.next_recovery("s1", 25) is None
        assert schedule.next_recovery("other", 15) is None

    def test_windows_accessor(self):
        schedule = CrashSchedule().add("s1", 30, 40).add("s1", 10, 20)
        assert schedule.windows("s1") == [(10, 20), (30, 40)]
        assert schedule.windows("unknown") == []


class TestTransientLinkFaults:
    def test_no_faults_by_default(self, stream):
        faults = TransientLinkFaults()
        assert not faults.transmission_fails("a", "b", 0.0, stream)

    def test_drop_probability_validated(self):
        with pytest.raises(NetworkError):
            TransientLinkFaults(drop_probability=1.0)
        with pytest.raises(NetworkError):
            TransientLinkFaults(drop_probability=-0.1)

    def test_drop_probability_applies(self, stream):
        faults = TransientLinkFaults(drop_probability=0.5)
        outcomes = [
            faults.transmission_fails("a", "b", 0.0, stream)
            for _ in range(500)
        ]
        drop_rate = sum(outcomes) / len(outcomes)
        assert 0.4 < drop_rate < 0.6

    def test_outage_window_bidirectional(self, stream):
        faults = TransientLinkFaults().add_outage("a", "b", 10, 20)
        assert faults.transmission_fails("a", "b", 15, stream)
        assert faults.transmission_fails("b", "a", 15, stream)
        assert not faults.transmission_fails("a", "b", 25, stream)

    def test_invalid_outage(self):
        with pytest.raises(NetworkError):
            TransientLinkFaults().add_outage("a", "b", 20, 10)


class TestFaultPlan:
    def test_none_plan_has_no_faults(self, stream):
        plan = FaultPlan.none()
        assert plan.host_up("x", 1e9)
        assert not plan.transmission_fails("a", "b", 0.0, stream)

    def test_combines_crashes_and_links(self, stream):
        plan = FaultPlan(
            crashes=CrashSchedule().add("s1", 0, 10),
            links=TransientLinkFaults().add_outage("a", "b", 5, 6),
        )
        assert not plan.host_up("s1", 5)
        assert plan.host_up("s1", 11)
        assert plan.transmission_fails("a", "b", 5.5, stream)

    def test_rejoin_times_end_crash_windows_and_outages_once_each(self):
        plan = FaultPlan(
            crashes=CrashSchedule().add("a", 0, 10).add("a", 20, 30),
            links=TransientLinkFaults()
            .add_partition(["a"], ["b", "c"], 5, 30)
            .add_outage("b", "c", 1, 2),
        )
        assert plan.rejoin_times("a") == [10, 30]
        assert plan.rejoin_times("b") == [2, 30]
        assert plan.rejoin_times("d") == []

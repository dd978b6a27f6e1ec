"""Unit tests for the Environment: the clock and its callback heap."""

import pytest

from repro.errors import SimulationError
from repro.obs.hub import ObservabilityHub
from repro.sim.core import Environment


def _noop(_arg):
    pass


class TestClock:
    def test_initial_time_default(self):
        assert Environment().now == 0.0

    def test_initial_time_custom(self):
        assert Environment(initial_time=10.5).now == 10.5

    def test_time_advances_with_timeouts(self, env):
        seen = []

        def second(_arg):
            seen.append(env.now)

        def first(_arg):
            seen.append(env.now)
            env.call_in(4.5, second)

        env.call_in(3, first)
        env.run()
        assert seen == [3.0, 7.5]
        assert env.now == 7.5

    def test_peek_empty_is_inf(self, env):
        assert env.peek() == float("inf")

    def test_peek_returns_next_event_time(self, env):
        env.call_in(5, _noop)
        assert env.peek() == 5.0


class TestScheduling:
    def test_same_time_events_fifo(self, env):
        order = []
        for tag in ("a", "b", "c"):
            env.call_in(1, order.append, tag)
        env.run()
        assert order == ["a", "b", "c"]

    def test_urgent_beats_normal_at_same_time(self, env):
        order = []

        def at_one(_arg):
            env.call_in(0, order.append, "normal")
            env.call_urgent(order.append, "urgent")

        env.call_in(1, at_one)
        env.run()
        assert order == ["urgent", "normal"]

    def test_negative_delay_rejected(self, env):
        with pytest.raises(SimulationError):
            env.call_in(-1, _noop)
        assert env.peek() == float("inf")

    def test_step_on_empty_schedule_raises(self, env):
        with pytest.raises(SimulationError):
            env.step()


class TestCallbackEntries:
    """``call_in`` / ``call_urgent`` share one FIFO per instant, with an
    urgent tier that runs ahead of the normal one."""

    def test_share_one_fifo_per_instant_urgent_tier_first(self, env):
        order = []
        env.call_in(1, order.append, "call-1")
        env.call_in(1, order.append, "call-2")

        def at_one(_arg):
            # Scheduled at t=1 from inside t=1: urgent ones run before
            # every normal entry still due, old or new.
            env.call_in(0, order.append, "call-0")
            env.call_urgent(order.append, "urgent-1")
            env.call_urgent(order.append, "urgent-2")

        env.call_in(0.5, lambda _arg: env.call_in(0.5, at_one))
        env.call_in(1, order.append, "call-3")
        env.run()
        assert order == [
            "call-1", "call-2", "call-3", "urgent-1", "urgent-2", "call-0",
        ]
        assert env.now == 1.0

    def test_negative_delay_rejected(self, env):
        with pytest.raises(SimulationError):
            env.call_in(-1, _noop)

    def test_a_failing_event_still_raises_out_of_run(self, env):
        ran = []

        def boom(_arg):
            raise ValueError("boom")

        env.call_in(1, boom)
        env.call_in(2, ran.append, "later")
        with pytest.raises(ValueError, match="boom"):
            env.run()
        assert env.now == 1.0 and ran == []
        env.run()  # the rest of the heap is intact
        assert ran == ["later"]


class TestRunUntil:
    def test_run_until_time_stops_clock(self, env):
        ticks = []

        def tick(_arg):
            ticks.append(env.now)
            env.call_in(1, tick)

        env.call_in(1, tick)
        env.run(until=5)
        assert env.now == 5.0
        assert ticks == [1.0, 2.0, 3.0, 4.0]

    def test_run_until_leaves_normal_entries_at_that_time(self, env):
        order = []
        env.call_in(5, order.append, "normal-at-5")
        env.run(until=5)
        assert order == [] and env.now == 5.0
        env.run()
        assert order == ["normal-at-5"]

    def test_run_until_past_time_raises(self):
        env = Environment(initial_time=10)
        with pytest.raises(SimulationError):
            env.run(until=5)

    def test_run_drains_queue_and_returns_none(self, env):
        env.call_in(1, _noop)
        assert env.run() is None
        assert env.peek() == float("inf")


class TestObservedDrain:
    def test_observed_drain_counts_every_entry(self, env):
        hub = ObservabilityHub()
        env.attach_observability(hub)

        def chain(left):
            if left:
                env.call_in(1, chain, left - 1)
                env.call_urgent(_noop)

        env.call_in(0, chain, 3)
        env.run(until=2.5)
        # t=0: chain(3) + its urgent; t=1: chain(2) + urgent; t=2: chain(1)
        # + urgent; the stop entry at 2.5 is not a step.
        assert env.events_processed == 6
        env.run()
        assert env.events_processed == 7
        events = hub.registry.get("sim_events_total")
        assert events.total() == env.events_processed

    def test_unobserved_drain_counts_nothing(self, env):
        env.call_in(1, _noop)
        env.run()
        assert env.events_processed == 0

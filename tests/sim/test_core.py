"""Unit tests for the Environment and Process machinery."""

import pytest

from repro.errors import SimulationError
from repro.sim.core import NORMAL, URGENT, Environment, Timeout, Urgent


class TestClock:
    def test_initial_time_default(self):
        assert Environment().now == 0.0

    def test_initial_time_custom(self):
        assert Environment(initial_time=10.5).now == 10.5

    def test_time_advances_with_timeouts(self, env):
        def proc(env):
            yield env.timeout(3)
            assert env.now == 3.0
            yield env.timeout(4.5)
            assert env.now == 7.5

        env.process(proc(env))
        env.run()
        assert env.now == 7.5

    def test_peek_empty_is_inf(self, env):
        assert env.peek() == float("inf")

    def test_peek_returns_next_event_time(self, env):
        env.timeout(5)
        assert env.peek() == 5.0


class TestScheduling:
    def test_same_time_events_fifo(self, env):
        order = []

        def proc(env, tag):
            yield env.timeout(1)
            order.append(tag)

        for tag in ("a", "b", "c"):
            env.process(proc(env, tag))
        env.run()
        assert order == ["a", "b", "c"]

    def test_urgent_beats_normal_at_same_time(self, env):
        order = []
        normal = env.event()
        normal._ok = True
        normal._value = None
        normal.callbacks.append(lambda e: order.append("normal"))
        urgent = env.event()
        urgent._ok = True
        urgent._value = None
        urgent.callbacks.append(lambda e: order.append("urgent"))
        env.schedule(normal, delay=1, priority=NORMAL)
        env.schedule(urgent, delay=1, priority=URGENT)
        env.run()
        assert order == ["urgent", "normal"]

    def test_negative_delay_rejected(self, env):
        event = env.event()
        with pytest.raises(SimulationError):
            env.schedule(event, delay=-1)

    def test_step_on_empty_schedule_raises(self, env):
        with pytest.raises(SimulationError):
            env.step()


class TestCallbackEntries:
    """``call_in`` / ``call_urgent`` take the heap slot a Timeout / Urgent
    with one callback would, with no event object."""

    def test_share_one_fifo_per_instant_urgent_tier_first(self, env):
        order = []
        env.call_in(1, order.append, "call-1")
        env.timeout(1).callbacks.append(lambda _e: order.append("timeout"))
        env.call_in(1, order.append, "call-2")

        def at_one(_arg):
            # Scheduled at t=1 from inside t=1: urgent ones run before
            # every normal entry still due, old or new.
            env.call_in(0, order.append, "call-0")
            env.call_urgent(order.append, "urgent-call")
            Urgent(env).callbacks.append(lambda _e: order.append("urgent"))

        env.call_in(0.5, lambda _arg: env.call_in(0.5, at_one))
        env.run()
        assert order == [
            "call-1", "timeout", "call-2", "urgent-call", "urgent", "call-0",
        ]
        assert env.now == 1.0

    def test_same_sequence_numbers_as_the_events_they_replace(self, env):
        env.call_in(2, print)
        env.call_urgent(print)
        assert env._seq == 2
        Timeout(env, 2)
        Urgent(env)
        assert env._seq == 4

    def test_negative_delay_rejected(self, env):
        with pytest.raises(SimulationError):
            env.call_in(-1, print)

    def test_a_failing_event_still_raises_out_of_run(self, env):
        env.call_in(1, lambda _arg: None)
        env.event().fail(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            env.run()


class TestRunUntil:
    def test_run_until_time_stops_clock(self, env):
        ticks = []

        def clock(env):
            while True:
                yield env.timeout(1)
                ticks.append(env.now)

        env.process(clock(env))
        env.run(until=5)
        assert env.now == 5.0
        assert ticks == [1.0, 2.0, 3.0, 4.0]

    def test_run_until_event_returns_value(self, env):
        def proc(env):
            yield env.timeout(2)
            return "done"

        result = env.run(until=env.process(proc(env)))
        assert result == "done"
        assert env.now == 2.0

    def test_run_until_past_time_raises(self):
        env = Environment(initial_time=10)
        with pytest.raises(SimulationError):
            env.run(until=5)

    def test_run_until_already_processed_event(self, env):
        event = env.event()
        event.succeed("early")
        env.run()
        assert env.run(until=event) == "early"

    def test_run_until_event_that_never_fires_raises(self, env):
        event = env.event()  # never triggered, queue drains
        with pytest.raises(SimulationError):
            env.run(until=event)

    def test_run_drains_queue_and_returns_none(self, env):
        env.timeout(1)
        assert env.run() is None


class TestProcess:
    def test_process_requires_generator(self, env):
        with pytest.raises(SimulationError):
            env.process(lambda: None)  # type: ignore[arg-type]

    def test_process_return_value_propagates(self, env):
        def child(env):
            yield env.timeout(1)
            return 99

        def parent(env):
            value = yield env.process(child(env))
            assert value == 99

        env.process(parent(env))
        env.run()

    def test_process_exception_propagates_to_waiter(self, env):
        def child(env):
            yield env.timeout(1)
            raise ValueError("child died")

        def parent(env):
            with pytest.raises(ValueError, match="child died"):
                yield env.process(child(env))

        env.process(parent(env))
        env.run()

    def test_unwaited_process_exception_raises_from_run(self, env):
        def child(env):
            yield env.timeout(1)
            raise ValueError("nobody caught me")

        env.process(child(env))
        with pytest.raises(ValueError, match="nobody caught me"):
            env.run()

    def test_yielding_non_event_raises(self, env):
        def proc(env):
            yield 42  # type: ignore[misc]

        env.process(proc(env))
        with pytest.raises(SimulationError, match="non-event"):
            env.run()

    def test_yielding_foreign_event_raises(self, env):
        other = Environment()

        def proc(env):
            yield other.timeout(1)

        env.process(proc(env))
        with pytest.raises(SimulationError, match="different environment"):
            env.run()

    def test_is_alive_tracks_lifetime(self, env):
        def proc(env):
            yield env.timeout(1)

        process = env.process(proc(env))
        assert process.is_alive
        env.run()
        assert not process.is_alive

    def test_yield_already_processed_event_resumes_immediately(self, env):
        done = env.event()
        done.succeed("cached")

        def proc(env):
            yield env.timeout(1)  # let `done` be processed first
            value = yield done
            assert value == "cached"
            assert env.now == 1.0

        env.process(proc(env))
        env.run()

    def test_active_process_visible_during_resume(self, env):
        seen = []

        def proc(env):
            seen.append(env.active_process)
            yield env.timeout(1)

        process = env.process(proc(env))
        env.run()
        assert seen == [process]
        assert env.active_process is None

    def test_process_name_from_generator(self, env):
        def my_behavior(env):
            yield env.timeout(1)

        process = env.process(my_behavior(env))
        assert "my_behavior" in repr(process)

    def test_process_custom_name(self, env):
        def gen(env):
            yield env.timeout(1)

        process = env.process(gen(env), name="worker-7")
        assert process.name == "worker-7"

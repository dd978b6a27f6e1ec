"""Unit tests for the event primitive."""

import pytest

from repro.errors import SimulationError
from repro.sim.core import Environment
from repro.sim.events import PENDING, Event


class TestEventLifecycle:
    def test_new_event_is_pending(self, env):
        event = env.event()
        assert not event.triggered
        assert not event.processed
        assert event.callbacks == []

    def test_succeed_sets_value_and_ok(self, env):
        event = env.event()
        event.succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_succeed_default_value_is_none(self, env):
        event = env.event()
        event.succeed()
        assert event.value is None

    def test_fail_sets_exception(self, env):
        event = env.event()
        exc = RuntimeError("boom")
        event.fail(exc)
        event.defused()
        assert event.triggered
        assert not event.ok
        assert event.value is exc

    def test_value_before_trigger_raises(self, env):
        event = env.event()
        with pytest.raises(SimulationError):
            _ = event.value

    def test_ok_before_trigger_raises(self, env):
        event = env.event()
        with pytest.raises(SimulationError):
            _ = event.ok

    def test_double_succeed_raises(self, env):
        event = env.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)

    def test_succeed_after_fail_raises(self, env):
        event = env.event()
        event.fail(ValueError("x"))
        event.defused()
        with pytest.raises(SimulationError):
            event.succeed(1)

    def test_fail_requires_exception_instance(self, env):
        event = env.event()
        with pytest.raises(SimulationError):
            event.fail("not an exception")  # type: ignore[arg-type]

    def test_trigger_copies_state_from_other_event(self, env):
        source = env.event()
        source.succeed("payload")
        target = env.event()
        target.trigger(source)
        assert target.triggered
        assert target.value == "payload"

    def test_repr_states(self, env):
        event = env.event()
        assert "pending" in repr(event)
        event.succeed()
        assert "triggered" in repr(event)
        env.run()
        assert "processed" in repr(event)


class TestEventCallbacks:
    def test_callbacks_run_on_processing(self, env):
        event = env.event()
        seen = []
        event.callbacks.append(lambda e: seen.append(e.value))
        event.succeed("v")
        env.run()
        assert seen == ["v"]
        assert event.processed

    def test_callbacks_cleared_after_processing(self, env):
        event = env.event()
        event.succeed()
        env.run()
        assert event.callbacks is None

    def test_unhandled_failure_raises_from_run(self, env):
        event = env.event()
        event.fail(RuntimeError("unhandled"))
        with pytest.raises(RuntimeError, match="unhandled"):
            env.run()

    def test_defused_failure_does_not_raise(self, env):
        event = env.event()
        event.fail(RuntimeError("handled"))
        event.defused()
        env.run()  # no raise


class TestEventComposition:
    def test_or_creates_anyof(self, env):
        from repro.sim.conditions import AnyOf

        combined = env.event() | env.event()
        assert isinstance(combined, AnyOf)


def test_pending_sentinel_repr():
    assert repr(PENDING) == "<PENDING>"


def test_event_knows_its_environment():
    env = Environment()
    event = Event(env)
    assert event.env is env

"""Unit tests for the AnyOf condition."""

import pytest

from repro.errors import SimulationError
from repro.sim.conditions import AnyOf
from repro.sim.core import Environment


class TestAnyOf:
    def test_fires_at_first_event(self, env):
        def proc(env):
            t1 = env.timeout(1, "fast")
            t2 = env.timeout(5, "slow")
            result = yield AnyOf(env, [t1, t2])
            assert env.now == 1.0
            assert list(result.values()) == ["fast"]

        env.process(proc(env))
        env.run()

    def test_empty_anyof_fires_immediately(self, env):
        def proc(env):
            yield AnyOf(env, [])
            assert env.now == 0.0

        env.process(proc(env))
        env.run()

    def test_pretriggered_timeout_does_not_count_until_processed(self, env):
        # A Timeout is "triggered" from construction; the condition must
        # wait for it to actually occur.
        def proc(env):
            t = env.timeout(3, "x")
            assert t.triggered  # pre-triggered by design
            yield AnyOf(env, [t])
            assert env.now == 3.0

        env.process(proc(env))
        env.run()

    def test_same_instant_events_deliver_one(self, env):
        def proc(env):
            result = yield env.timeout(1, "a") | env.timeout(1, "b")
            assert sorted(result.values()) == ["a"]

        env.process(proc(env))
        env.run()


class TestConditionFailures:
    def test_constituent_failure_fails_condition(self, env):
        def boom(env, event):
            yield env.timeout(1)
            event.fail(RuntimeError("kapow"))

        def proc(env):
            event = env.event()
            env.process(boom(env, event))
            with pytest.raises(RuntimeError, match="kapow"):
                yield event | env.timeout(10)

        env.process(proc(env))
        env.run()

    def test_already_failed_event_fails_condition_at_creation(self, env):
        def proc(env):
            failed = env.event()
            failed.fail(RuntimeError("pre-failed"))
            yield env.timeout(1)  # let it be processed... it raises
            yield failed | env.timeout(5)

        env.process(proc(env))
        with pytest.raises(RuntimeError, match="pre-failed"):
            env.run()

    def test_mixed_environment_rejected(self, env):
        other = Environment()
        with pytest.raises(SimulationError):
            AnyOf(env, [env.timeout(1), other.timeout(1)])


class TestConditionComposition:
    def test_nested_conditions(self, env):
        def proc(env):
            first = env.timeout(2, "a")
            inner = first | env.timeout(3, "b")
            result = yield inner | env.timeout(5, "c")
            assert env.now == 2.0
            assert result == {inner: {first: "a"}}

        env.process(proc(env))
        env.run()

    def test_already_processed_constituent_counts(self, env):
        def proc(env):
            done = env.timeout(1, "early")
            yield env.timeout(2)  # `done` processed at t=1
            result = yield AnyOf(env, [done, env.timeout(1, "late")])
            assert env.now == 2.0  # satisfied at construction
            assert list(result.values()) == ["early"]

        env.process(proc(env))
        env.run()

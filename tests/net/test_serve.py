"""``Endpoint.serve``: the callback single-server queue a stationary
process takes its messages through — heap callbacks only: the service
time. (A coordinator's replies reach it through a serve too, at its
host's claim table: tests/baselines/test_claim_table.py.)"""

import pytest

from repro.errors import NetworkError
from repro.net.faults import CrashSchedule, FaultPlan
from tests.net.test_network import make_network as make_mesh

KINDS = ("WORK", "NOTE")


def make_network(env, faults=None):
    """Hosts ``a`` and ``b``, 2 ms apart."""
    network, endpoints = make_mesh(env, hosts=("a", "b"), faults=faults)
    return network, endpoints["a"], endpoints["b"]


def serve(env, endpoint, service_time=5.0):
    """Serve KINDS at ``endpoint``: WORK takes ``service_time``, NOTE
    none. Returns the ``(now, kind, payload)`` log of handled messages."""
    handled = []
    endpoint.serve(
        KINDS,
        lambda msg: service_time if msg.kind == "WORK" else 0.0,
        lambda msg: handled.append((env.now, msg.kind, msg.payload)),
    )
    return handled


def at(env, when, action):
    env.call_in(when - env.now, lambda _arg: action())


class TestServe:
    def test_kinds_of_one_route_are_served_in_arrival_order(self, env):
        _network, a, b = make_network(env)
        handled = serve(env, b)
        a.send("b", "WORK", 1)               # in service 2.0 -> 7.0
        at(env, 1.0, lambda: a.send("b", "NOTE", 2))   # arrives 3.0
        at(env, 2.0, lambda: a.send("b", "WORK", 3))   # arrives 4.0
        at(env, 3.0, lambda: a.send("b", "NOTE", 4))   # arrives 5.0
        env.run()
        assert [payload for _now, _kind, payload in handled] == [1, 2, 3, 4]

    def test_one_message_is_in_service_at_a_time(self, env):
        _network, a, b = make_network(env)
        handled = serve(env, b)
        a.send("b", "WORK", "first")
        a.send("b", "WORK", "second")        # both arrive at 2.0
        env.run(until=4.0)
        assert b.pending == 1                # the second waits its turn
        env.run()
        # the second starts when the first ends, not when it arrived
        assert handled == [(7.0, "WORK", "first"), (12.0, "WORK", "second")]
        assert b.pending == 0

    def test_zero_service_time_is_handled_in_the_arrival_step(self, env):
        network, a, b = make_network(env)
        handled = serve(env, b)
        a.send("b", "NOTE", "n")
        scheduled = env._seq
        env.run()
        assert handled == [(2.0, "NOTE", "n")]
        assert env._seq == scheduled         # the arrival was the only event
        assert network.stats.total_dropped() == 0

    def test_backlog_behind_a_service_is_drained_in_its_last_step(self, env):
        _network, a, b = make_network(env)
        handled = serve(env, b)
        a.send("b", "WORK", 1)
        a.send("b", "NOTE", 2)
        a.send("b", "NOTE", 3)
        env.run()
        assert handled == [(7.0, "WORK", 1), (7.0, "NOTE", 2), (7.0, "NOTE", 3)]

    def test_messages_before_serve_are_dropped_and_counted(self, env):
        network, a, b = make_network(env)
        a.send("b", "NOTE", "early")
        env.run()
        handled = serve(env, b)
        a.send("b", "NOTE", "served")
        env.run()
        assert handled == [(4.0, "NOTE", "served")] and b.pending == 0
        assert network.stats.expired == 1

    def test_arrival_while_the_host_is_down_is_dropped(self, env):
        faults = FaultPlan(crashes=CrashSchedule().add("b", 1.0, 10.0))
        network, a, b = make_network(env, faults)
        handled = serve(env, b)
        a.send("b", "NOTE", "lost")          # arrives 2.0, b is down
        at(env, 9.0, lambda: a.send("b", "NOTE", "kept"))   # arrives 11.0
        env.run()
        assert handled == [(11.0, "NOTE", "kept")]
        assert network.stats.total_dropped() == 1 and b.pending == 0

    def test_dequeue_while_the_host_is_down_is_consumed_and_dropped(self, env):
        faults = FaultPlan(crashes=CrashSchedule().add("b", 5.0, 10.0))
        _network, a, b = make_network(env, faults)
        handled = serve(env, b)
        a.send("b", "WORK", "in service")    # 2.0 -> 7.0, b goes down at 5.0
        a.send("b", "WORK", "queued")
        a.send("b", "NOTE", "queued too")
        at(env, 9.0, lambda: a.send("b", "WORK", "after"))  # arrives 11.0
        env.run()
        # the message in service when the host went down is still
        # handled (what it sends is lost); the backlog comes off the
        # queue while the host is down and vanishes
        assert handled == [(7.0, "WORK", "in service"), (16.0, "WORK", "after")]
        assert b.pending == 0

    def test_a_backlog_is_served_however_long_it_waits(self, env):
        """A backlog is the server's work to do, not a stale reply:
        nothing ages out of it."""
        network, a, b = make_network(env)
        handled = serve(env, b, service_time=60_000.0)
        a.send("b", "WORK", "slow")          # in service 2 ms -> 60.002 s
        for n in range(40):
            a.send("b", "NOTE", n)           # backlogged from 2 ms
        env.run()
        assert [p for _now, _kind, p in handled] == ["slow", *range(40)]
        assert network.stats.expired == 0 and b.pending == 0

    def test_no_service_time_pushes_every_message_as_it_arrives(self, env):
        _network, a, b = make_network(env)
        pushed = []
        b.serve(("ACK",), None, lambda msg: pushed.append((env.now, msg.payload)))
        a.send("b", "ACK", 1)
        a.send("b", "ACK", 2)
        env.run()
        assert pushed == [(2.0, 1), (2.0, 2)] and b.pending == 0

    def test_a_route_is_served_once(self, env):
        _network, _a, b = make_network(env)
        serve(env, b)
        with pytest.raises(NetworkError):
            b.serve(KINDS, None, lambda msg: None)
        with pytest.raises(NetworkError):
            b.serve(("NOTE", "OTHER"), None, lambda msg: None)

"""Unit tests for the asynchronous network."""

import pytest

from repro.errors import MigrationError, NetworkError
from repro.net.faults import CrashSchedule, FaultPlan, TransientLinkFaults
from repro.net.latency import ConstantLatency
from repro.net.message import HEADER_BYTES, Message, estimate_size
from repro.net.network import Network
from repro.net.topology import Topology
from repro.sim.rng import RandomStreams


def make_network(env, hosts=("a", "b", "c"), latency=None, faults=None,
                 cost=1.0, reliable_kinds=()):
    topo = Topology.full_mesh(list(hosts), cost=cost)
    network = Network(
        env,
        topo,
        latency=latency or ConstantLatency(2.0),
        faults=faults,
        streams=RandomStreams(0),
        reliable_kinds=reliable_kinds,
    )
    endpoints = {h: network.register(h) for h in hosts}
    return network, endpoints


def pushed(env, endpoint, kinds=("PING",)):
    """Serve ``kinds`` at ``endpoint`` in no time; returns the
    ``(now, msg)`` log of the messages as they arrive."""
    log = []
    endpoint.serve(kinds, None, lambda msg: log.append((env.now, msg)))
    return log


class TestRegistration:
    def test_register_unknown_host_rejected(self, env):
        network, _ = make_network(env)
        with pytest.raises(NetworkError):
            network.register("zz")

    def test_double_register_rejected(self, env):
        network, _ = make_network(env)
        with pytest.raises(NetworkError):
            network.register("a")


class TestDelivery:
    def test_unicast_arrives_after_latency(self, env):
        _network, eps = make_network(env)
        log = pushed(env, eps["b"])
        eps["a"].send("b", "PING", "hello")
        env.run()
        assert [(now, msg.payload) for now, msg in log] == [(2.0, "hello")]

    def test_latency_scaled_by_cost(self, env):
        _network, eps = make_network(env, cost=3.0)
        log = pushed(env, eps["b"])
        eps["a"].send("b", "PING")
        env.run()
        assert [now for now, _msg in log] == [6.0]  # 2ms x cost 3

    def test_self_send_is_instant(self, env):
        _network, eps = make_network(env)
        log = pushed(env, eps["a"], ("LOOP",))
        eps["a"].send("a", "LOOP")
        env.run()
        assert [now for now, _msg in log] == [0.0]

    def test_unknown_destination_rejected(self, env):
        network, eps = make_network(env)
        with pytest.raises(NetworkError):
            eps["a"].send("nowhere", "PING")
        # rejected before it was accounted: no total moved
        stats = network.stats
        assert (
            stats.total_messages(), stats.total_bytes(),
            stats.total_dropped(), stats.expired,
        ) == (0, 0, 0, 0)

    def test_receive_filters_by_kind(self, env):
        network, eps = make_network(env)
        log = pushed(env, eps["b"], ("WANTED",))
        eps["a"].send("b", "NOISE")
        eps["a"].send("b", "WANTED")
        env.run()
        assert [msg.kind for _now, msg in log] == ["WANTED"]
        # nobody serves NOISE: dropped at arrival, and counted
        assert eps["b"].pending == 0
        assert network.stats.expired == 1

    def test_routed_kinds_share_one_queue_oldest_first(self, env):
        """The kinds of one serve queue behind its busy server together,
        oldest first; a kind it does not serve never joins them."""
        network, eps = make_network(env)
        got = []
        eps["b"].serve(
            ("UPDATE", "COMMIT", "RELEASE"),
            lambda _msg: 1.0,
            lambda msg: got.append(msg.kind),
        )
        eps["a"].send("b", "COMMIT")
        eps["a"].send("b", "NOISE")
        eps["a"].send("b", "UPDATE")
        eps["a"].send("b", "RELEASE")
        env.run(until=2.5)
        assert eps["b"].pending == 2  # behind COMMIT, in service
        env.run()
        assert got == ["COMMIT", "UPDATE", "RELEASE"]
        assert network.stats.expired == 1  # NOISE

    def test_broadcast_excludes_self_by_default(self, env):
        _network, eps = make_network(env)
        sent = eps["a"].broadcast("HELLO")
        assert sorted(m.dst for m in sent) == ["b", "c"]

    def test_broadcast_include_self(self, env):
        _network, eps = make_network(env)
        sent = eps["a"].broadcast("HELLO", include_self=True)
        assert sorted(m.dst for m in sent) == ["a", "b", "c"]

    def test_multicast_targets(self, env):
        _network, eps = make_network(env)
        sent = eps["a"].multicast(["b", "c"], "X")
        assert sorted(m.dst for m in sent) == ["b", "c"]


class TestOneEventPerMessage:
    """Delivery is one scheduled event whose callback dispatches the
    message."""

    def test_delayed_sends_schedule_one_event_each(self, env):
        _network, eps = make_network(env)
        log = pushed(env, eps["b"], ("SEQ",))
        for index in range(7):
            eps["a"].send("b", "SEQ", index)
        steps = 0
        while env.peek() != float("inf"):
            env.step()
            steps += 1
        assert steps == 7
        assert [msg.payload for _now, msg in log] == list(range(7))

    def test_self_send_lands_after_the_step_before_normal_events(self, env):
        _network, eps = make_network(env)
        log = pushed(env, eps["a"], ("LOOP",))
        seen = []

        def sender(_arg):
            # Scheduled for "now" *before* the send, at NORMAL priority:
            # the self-send must still overtake it.
            env.call_in(0, lambda _arg: seen.append(("normal", len(log))))
            eps["a"].send("a", "LOOP")
            seen.append(("step", len(log)))

        env.call_in(0, sender)
        env.run()
        assert seen == [("step", 0), ("normal", 1)]
        assert log[0][1].sent_at == 0.0

    def test_destination_crashing_in_flight_drops_once(self, env):
        faults = FaultPlan(crashes=CrashSchedule().add("b", 1, 100))
        network, eps = make_network(env, faults=faults)
        eps["a"].send("b", "PING")  # leaves at 0, b is up; lands at 2
        env.run()
        assert eps["b"].pending == 0
        assert network.stats.dropped == {("control", "PING"): 1}
        assert network.stats.messages == {("control", "PING"): 1}

    def test_crashed_source_accounts_and_schedules_nothing(self, env):
        faults = FaultPlan(crashes=CrashSchedule().add("a", 0, 100))
        network, eps = make_network(env, faults=faults)
        msg = eps["a"].send("b", "PING", "xx")
        assert env.peek() == float("inf")
        assert network.stats.messages == {("control", "PING"): 1}
        assert network.stats.bytes == {("control", "PING"): msg.size_bytes}
        assert network.stats.dropped == {("control", "PING"): 1}

    def test_host_up_consults_the_schedule_only_once_it_has_windows(
        self, env, monkeypatch
    ):
        """No window scheduled: ``host_up`` answers without asking the
        fault plan. A window added after the network was built (the
        conformance tests do that) is honoured from then on."""
        faults = FaultPlan()
        network, eps = make_network(env, faults=faults)
        log = pushed(env, eps["b"])
        asked = []
        is_up = faults.crashes.is_up

        def spying(host, time):
            asked.append(host)
            return is_up(host, time)

        monkeypatch.setattr(faults.crashes, "is_up", spying)
        eps["a"].send("b", "PING")
        env.run()
        assert len(log) == 1 and asked == []
        faults.crashes.add("b", 10, 100)
        assert network.host_up("b") and network.host_up("a")
        env.run(until=50)
        assert not network.host_up("b") and network.host_up("a")
        eps["a"].send("b", "PING")
        env.run()
        assert len(log) == 1
        assert network.stats.dropped == {("control", "PING"): 1}
        assert asked

    def test_broadcast_sizes_the_shared_payload_once(self, env, monkeypatch):
        from repro.net import network as network_module

        network, eps = make_network(env, hosts=("a", "b", "c", "d"))
        payload = {"writes": ("k", 3, [1.5, "value"]), "origin": "a"}
        calls = []

        def counting(value):
            calls.append(value)
            return estimate_size(value)

        monkeypatch.setattr(network_module, "estimate_size", counting)
        sent = eps["a"].broadcast("APPLY", payload, include_self=True)
        assert calls == [payload]
        expected = HEADER_BYTES + estimate_size(payload)
        assert [m.size_bytes for m in sent] == [expected] * 4
        # ... which is what sizing every copy on its own accounts
        per_destination = sum(
            Message("a", m.dst, "APPLY", payload).size_bytes for m in sent
        )
        assert network.stats.total_bytes() == per_destination
        assert network.stats.total_messages() == 4


class TestFaultsAndStats:
    def test_message_to_crashed_host_dropped(self, env):
        faults = FaultPlan(crashes=CrashSchedule().add("b", 0, 100))
        network, eps = make_network(env, faults=faults)
        eps["a"].send("b", "PING")
        env.run()
        assert eps["b"].pending == 0
        assert network.stats.total_dropped() == 1

    def test_crashed_sender_cannot_send(self, env):
        faults = FaultPlan(crashes=CrashSchedule().add("a", 0, 100))
        network, eps = make_network(env, faults=faults)
        eps["a"].send("b", "PING")
        env.run()
        assert eps["b"].pending == 0
        assert network.stats.total_dropped() == 1

    def test_link_outage_drops(self, env):
        faults = FaultPlan(
            links=TransientLinkFaults().add_outage("a", "b", 0, 10)
        )
        network, eps = make_network(env, faults=faults)
        eps["a"].send("b", "PING")
        env.run()
        assert eps["b"].pending == 0

    def test_reliable_kind_is_retransmitted_after_a_random_loss(self, env):
        faults = FaultPlan(links=TransientLinkFaults(drop_probability=0.5))
        network, eps = make_network(
            env, faults=faults, reliable_kinds=("COMMIT",)
        )
        commits = pushed(env, eps["b"], ("COMMIT", "PING"))
        for _ in range(20):
            eps["a"].send("b", "COMMIT")
            eps["a"].send("b", "PING")
        env.run()
        kinds = [msg.kind for _t, msg in commits]
        assert kinds.count("COMMIT") == 20
        assert kinds.count("PING") < 20
        dropped = network.stats.dropped
        assert dropped[("control", "COMMIT")] > 0
        # each loss costs a retransmission, and a retransmission is a
        # transmission
        assert network.stats.messages[("control", "COMMIT")] == (
            20 + dropped[("control", "COMMIT")]
        )
        # a retransmission waits a round trip (2 x 2 ms) before its leg
        assert max(t for t, msg in commits if msg.kind == "COMMIT") > 2.0

    def test_a_cut_link_still_loses_a_reliable_kind(self, env):
        faults = FaultPlan(
            links=TransientLinkFaults().add_outage("a", "b", 0, 10)
        )
        network, eps = make_network(
            env, faults=faults, reliable_kinds=("COMMIT",)
        )
        commits = pushed(env, eps["b"], ("COMMIT",))
        eps["a"].send("b", "COMMIT")
        env.run()
        assert commits == []
        assert network.stats.total_dropped() == 1

    def test_stats_count_messages_and_bytes(self, env):
        network, eps = make_network(env)
        msg = eps["a"].send("b", "PING", "xx")
        env.run()
        assert network.stats.total_messages("control") == 1
        assert network.stats.total_bytes("control") == msg.size_bytes

    def test_host_up_queries_fault_plan(self, env):
        faults = FaultPlan(crashes=CrashSchedule().add("b", 5, 10))
        network, _ = make_network(env, faults=faults)
        assert network.host_up("b")
        env.run(until=6)
        assert not network.host_up("b")


class TestFifoLinks:
    """Links keep no send order: the paper's model promises delivery,
    not ordering, and the protocols tolerate reordering."""

    @staticmethod
    def _send_and_collect(env, eps, count):
        log = pushed(env, eps["b"], ("SEQ",))
        for index in range(count):
            eps["a"].send("b", "SEQ", index)
        env.run()
        return [msg.payload for _now, msg in log]

    def test_default_links_can_reorder(self, env):
        from repro.net.latency import UniformLatency

        _network, eps = make_network(
            env, latency=UniformLatency(1.0, 50.0)
        )
        received = self._send_and_collect(env, eps, 30)
        assert sorted(received) == list(range(30))
        assert received != list(range(30))  # jitter reorders some pair


class TestAttemptTransfer:
    @staticmethod
    def _attempt(env, network, size, timeout):
        """Run one attempt; returns ``(now, error)`` of its outcome."""
        outcome = []
        network.attempt_transfer(
            "a", "b", size, timeout,
            lambda error: outcome.append((env.now, error)),
        )
        env.run()
        assert len(outcome) == 1
        return outcome[0]

    def test_successful_transfer_takes_latency(self, env):
        network, _ = make_network(env)
        assert self._attempt(env, network, 1000, 50) == (2.0, None)

    def test_transfer_to_down_host_times_out(self, env):
        faults = FaultPlan(crashes=CrashSchedule().add("b", 0, 1000))
        network, _ = make_network(env, faults=faults)
        now, error = self._attempt(env, network, 100, 50)
        assert now == 50.0  # full detection timeout elapses
        assert isinstance(error, MigrationError)
        assert error.destination == "b"

    def test_transfer_slower_than_timeout_fails(self, env):
        network, _ = make_network(env, latency=ConstantLatency(100.0))
        now, error = self._attempt(env, network, 0, 10)
        assert now == 10.0
        assert isinstance(error, MigrationError)

    def test_transfer_accounted_as_agent_traffic(self, env):
        network, _ = make_network(env)
        self._attempt(env, network, 2048, 50)
        assert network.stats.total_messages("agent") == 1
        assert network.stats.total_bytes("agent") == 2048


class TestNobodysMessages:
    """Dispatch at arrival: a message that finds no serve of its kind is
    dropped and counted as expired (it *arrived*, so it is not a
    drop)."""

    def test_an_unserved_kind_is_dropped_at_arrival_and_counted(self, env):
        network, eps = make_network(env)
        log = pushed(env, eps["b"])
        for index in range(40):
            eps["a"].send("b", "ACK", index)
        eps["a"].send("b", "PING")
        env.run()
        assert [msg.kind for _now, msg in log] == ["PING"]
        assert network.stats.expired == 40
        assert network.stats.total_dropped() == 0
        assert eps["b"].pending == 0

    def test_abandoned_round_replies_are_dropped_at_arrival_and_counted(
        self, env
    ):
        """ACK/NACKs at a host that serves neither — the network knows no
        claim round — are counted as they land and leave nothing behind
        (where a host's interpreter serves them, its claim table drops
        the ones nobody claims)."""
        network, eps = make_network(env)
        for index in range(40):
            eps["a"].send(
                "b", "ACK" if index % 2 else "NACK",
                {"batch_id": index // 2, "epoch": 1},
            )
        env.run()
        assert network.stats.expired == 40
        assert eps["b"].pending == 0

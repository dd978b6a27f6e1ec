"""Unit tests for the asynchronous network."""

from operator import itemgetter

import pytest

from repro.errors import MigrationError, NetworkError
from repro.net.faults import CrashSchedule, FaultPlan, TransientLinkFaults
from repro.net.latency import ConstantLatency
from repro.net.message import HEADER_BYTES, Message, estimate_size
from repro.net.network import Network
from repro.net.topology import Topology
from repro.sim.rng import RandomStreams


def make_network(env, hosts=("a", "b", "c"), latency=None, faults=None,
                 cost=1.0, scale_by_cost=True, fifo_links=False,
                 inbox_ttl=20_000.0):
    topo = Topology.full_mesh(list(hosts), cost=cost)
    network = Network(
        env,
        topo,
        latency=latency or ConstantLatency(2.0),
        faults=faults,
        streams=RandomStreams(0),
        scale_by_cost=scale_by_cost,
        fifo_links=fifo_links,
        inbox_ttl=inbox_ttl,
    )
    endpoints = {h: network.register(h) for h in hosts}
    return network, endpoints


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

        def receiver(env):
            msg = yield eps["b"].receive()
            assert msg.payload == "hello"
            assert env.now == 2.0

        eps["a"].send("b", "PING", "hello")
        env.process(receiver(env))
        env.run()

    def test_latency_scaled_by_cost(self, env):
        _network, eps = make_network(env, cost=3.0)
        arrival = []

        def receiver(env):
            yield eps["b"].receive()
            arrival.append(env.now)

        eps["a"].send("b", "PING")
        env.process(receiver(env))
        env.run()
        assert arrival == [6.0]  # 2ms x cost 3

    def test_no_cost_scaling_when_disabled(self, env):
        _network, eps = make_network(env, cost=3.0, scale_by_cost=False)
        arrival = []

        def receiver(env):
            yield eps["b"].receive()
            arrival.append(env.now)

        eps["a"].send("b", "PING")
        env.process(receiver(env))
        env.run()
        assert arrival == [2.0]

    def test_self_send_is_instant(self, env):
        _network, eps = make_network(env)
        arrival = []

        def receiver(env):
            yield eps["a"].receive()
            arrival.append(env.now)

        eps["a"].send("a", "LOOP")
        env.process(receiver(env))
        env.run()
        assert arrival == [0.0]

    def test_unknown_destination_rejected(self, env):
        _network, eps = make_network(env)
        with pytest.raises(NetworkError):
            eps["a"].send("nowhere", "PING")

    def test_receive_filters_by_kind(self, env):
        _network, eps = make_network(env)
        got = []

        def receiver(env):
            msg = yield eps["b"].receive(kind="WANTED")
            got.append(msg.kind)

        eps["a"].send("b", "NOISE")
        eps["a"].send("b", "WANTED")
        env.process(receiver(env))
        env.run()
        assert got == ["WANTED"]
        assert eps["b"].pending == 1  # NOISE still queued

    def test_receive_filters_by_match(self, env):
        _network, eps = make_network(env)
        got = []

        def receiver(env):
            msg = yield eps["b"].receive(
                kind="ACK", match=lambda m: m.payload == 2
            )
            got.append(msg.payload)

        eps["a"].send("b", "ACK", 1)
        eps["a"].send("b", "ACK", 2)
        env.process(receiver(env))
        env.run()
        assert got == [2]

    def test_routed_kinds_share_one_queue_oldest_first(self, env):
        network, eps = make_network(env)
        network.route(("UPDATE", "COMMIT", "RELEASE"))
        got = []

        def receiver(env):
            yield env.timeout(10)
            for _ in range(3):
                msg = yield eps["b"].receive(("UPDATE", "COMMIT", "RELEASE"))
                got.append(msg.kind)

        eps["a"].send("b", "COMMIT")
        eps["a"].send("b", "NOISE")
        eps["a"].send("b", "UPDATE")
        eps["a"].send("b", "RELEASE")
        env.process(receiver(env))
        env.run()
        assert got == ["COMMIT", "UPDATE", "RELEASE"]
        assert eps["b"].pending == 1  # NOISE, in a queue of its own

    def test_correlated_route_gives_each_conversation_its_queue(self, env):
        network, eps = make_network(env)
        network.route(("ACK", "NACK"), key=itemgetter("batch_id", "epoch"))
        got = []

        def receiver(env):
            yield env.timeout(10)  # every reply is already queued
            for _ in range(2):
                msg = yield eps["b"].receive(("ACK", "NACK"), key=(7, 2))
                got.append((msg.kind, msg.payload["from"]))

        for kind, epoch, sender in [
            ("ACK", 1, "x"), ("NACK", 2, "y"), ("ACK", 2, "z"),
        ]:
            eps["a"].send("b", kind, {"batch_id": 7, "epoch": epoch,
                                      "from": sender})
        env.process(receiver(env))
        env.run()
        assert got == [("NACK", "y"), ("ACK", "z")]
        assert eps["b"].pending == 1  # epoch 1's ACK: nobody asks again

    def test_match_scans_only_the_conversation(self, env):
        network, eps = make_network(env)
        network.route(("GRANT",), key=itemgetter("rid"))
        seen = []

        def receiver(env):
            yield env.timeout(10)
            msg = yield eps["b"].receive(
                "GRANT", key=1,
                match=lambda m: seen.append(m.payload) or
                m.payload["from"] == "c",
            )
            seen.append(("got", msg.payload["from"]))

        for rid in (2, 3, 4):
            eps["a"].send("b", "GRANT", {"rid": rid, "from": "c"})
        eps["a"].send("b", "GRANT", {"rid": 1, "from": "a"})
        eps["a"].send("b", "GRANT", {"rid": 1, "from": "c"})
        env.process(receiver(env))
        env.run()
        assert seen == [
            {"rid": 1, "from": "a"}, {"rid": 1, "from": "c"}, ("got", "c"),
        ]

    def test_route_misuse_is_rejected(self, env):
        network, eps = make_network(env)
        by_rid = itemgetter("rid")
        network.route(("GRANT", "DENY"), key=by_rid)
        network.route(("GRANT", "DENY"), key=by_rid)  # repeating is fine
        with pytest.raises(NetworkError):
            network.route(("GRANT",))  # already routed with DENY
        with pytest.raises(NetworkError):
            eps["b"].receive(("GRANT", "DENY"))  # needs its key
        with pytest.raises(NetworkError):
            eps["b"].receive("GRANT", key=1)  # routed together with DENY
        with pytest.raises(NetworkError):
            eps["b"].receive("PLAIN", key=1)  # undeclared: takes no key
        with pytest.raises(NetworkError):
            eps["b"].receive(key=1)

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
    """Delivery is one scheduled event whose callback files the message."""

    def test_delayed_sends_schedule_one_event_each(self, env):
        _network, eps = make_network(env)
        for index in range(7):
            eps["a"].send("b", "SEQ", index)
        steps = 0
        while env.peek() != float("inf"):
            env.step()
            steps += 1
        assert steps == 7
        assert eps["b"].pending == 7

    def test_self_send_lands_after_the_step_before_normal_events(self, env):
        _network, eps = make_network(env)
        seen = []

        def sender(env):
            # Scheduled for "now" *before* the send, at NORMAL priority:
            # the self-send must still overtake it.
            normal = env.event().succeed()
            normal.callbacks.append(
                lambda _e: seen.append(("normal", eps["a"].pending))
            )
            eps["a"].send("a", "LOOP")
            seen.append(("step", eps["a"].pending))
            yield env.timeout(5)

        env.process(sender(env))
        env.run()
        assert seen == [("step", 0), ("normal", 1)]
        assert eps["a"].inbox.items[0].sent_at == 0.0

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
        asked = []
        is_up = faults.crashes.is_up

        def spying(host, time):
            asked.append(host)
            return is_up(host, time)

        monkeypatch.setattr(faults.crashes, "is_up", spying)
        eps["a"].send("b", "PING")
        env.run()
        assert eps["b"].pending == 1 and asked == []
        faults.crashes.add("b", 10, 100)
        assert network.host_up("b") and network.host_up("a")
        env.run(until=50)
        assert not network.host_up("b") and network.host_up("a")
        eps["a"].send("b", "PING")
        env.run()
        assert eps["b"].pending == 1
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
        env.timeout(6)
        env.run()
        assert not network.host_up("b")


class TestFifoLinks:
    @staticmethod
    def _send_and_collect(env, eps, count):
        received = []

        def receiver(env):
            for _ in range(count):
                msg = yield eps["b"].receive()
                received.append(msg.payload)

        for index in range(count):
            eps["a"].send("b", "SEQ", index)
        env.process(receiver(env))
        env.run()
        return received

    def test_default_links_can_reorder(self, env):
        from repro.net.latency import UniformLatency

        _network, eps = make_network(
            env, latency=UniformLatency(1.0, 50.0)
        )
        received = self._send_and_collect(env, eps, 30)
        assert sorted(received) == list(range(30))
        assert received != list(range(30))  # jitter reorders some pair

    def test_fifo_links_preserve_send_order(self, env):
        from repro.net.latency import UniformLatency

        _network, eps = make_network(
            env, latency=UniformLatency(1.0, 50.0), fifo_links=True
        )
        received = self._send_and_collect(env, eps, 30)
        assert received == list(range(30))

    def test_fifo_links_are_per_direction(self, env):
        _network, eps = make_network(env, fifo_links=True)
        arrivals = []

        def receiver(env, name):
            msg = yield eps[name].receive()
            arrivals.append((name, env.now, msg.payload))

        eps["a"].send("b", "X", "ab")
        eps["b"].send("a", "X", "ba")
        env.process(receiver(env, "b"))
        env.process(receiver(env, "a"))
        env.run()
        # opposite directions don't serialise against each other
        assert {t for _n, t, _p in arrivals} == {2.0}


class TestAttemptTransfer:
    def test_successful_transfer_takes_latency(self, env):
        network, _ = make_network(env)
        done = []

        def mover(env):
            yield from network.attempt_transfer("a", "b", 1000, timeout=50)
            done.append(env.now)

        env.process(mover(env))
        env.run()
        assert done == [2.0]

    def test_transfer_to_down_host_times_out(self, env):
        faults = FaultPlan(crashes=CrashSchedule().add("b", 0, 1000))
        network, _ = make_network(env, faults=faults)
        outcome = []

        def mover(env):
            try:
                yield from network.attempt_transfer("a", "b", 100, timeout=50)
            except MigrationError:
                outcome.append(env.now)

        env.process(mover(env))
        env.run()
        assert outcome == [50.0]  # full detection timeout elapses

    def test_transfer_slower_than_timeout_fails(self, env):
        network, _ = make_network(env, latency=ConstantLatency(100.0))
        outcome = []

        def mover(env):
            with pytest.raises(MigrationError):
                yield from network.attempt_transfer("a", "b", 0, timeout=10)
            outcome.append(env.now)

        env.process(mover(env))
        env.run()
        assert outcome == [10.0]

    def test_transfer_accounted_as_agent_traffic(self, env):
        network, _ = make_network(env)

        def mover(env):
            yield from network.attempt_transfer("a", "b", 2048, timeout=50)

        env.process(mover(env))
        env.run()
        assert network.stats.total_messages("agent") == 1
        assert network.stats.total_bytes("agent") == 2048


class TestInboxHygiene:
    """The inbox window: dead unclaimed messages (e.g. ACK/NACKs for an
    abandoned claim round) are reaped on later deliveries."""

    def test_invalid_ttl_rejected(self, env):
        with pytest.raises(NetworkError):
            make_network(env, inbox_ttl=0.0)
        with pytest.raises(NetworkError):
            make_network(env, inbox_ttl=-5.0)

    def test_window_is_required(self, env):
        with pytest.raises(TypeError):
            Network(env, Topology.full_mesh(["a", "b"]))

    def test_stale_backlog_reaped_on_fresh_delivery(self, env):
        network, eps = make_network(env, inbox_ttl=100.0)

        def late(env):
            yield env.timeout(200.0)
            eps["a"].send("b", "PING")

        for index in range(40):
            eps["a"].send("b", "ACK", index)  # all sent at t=0
        env.process(late(env))
        env.run()
        # the t=200 delivery finds 40 messages older than the ttl
        assert eps["b"].reaped == 40
        assert [m.kind for m in eps["b"].inbox.items] == ["PING"]
        assert network.stats.expired == 40

    def test_abandoned_round_replies_are_reaped_from_their_queues(self, env):
        """ACK/NACKs of claim rounds nobody waits for any more each sit
        in the queue of their own correlation key; the sweep finds them
        there, counts them, and leaves no empty queue behind."""
        network, eps = make_network(env, inbox_ttl=100.0)
        network.route(("ACK", "NACK"), key=itemgetter("batch_id", "epoch"))

        def late(env):
            yield env.timeout(200.0)
            eps["a"].send("b", "PING")

        for index in range(40):
            eps["a"].send(
                "b", "ACK" if index % 2 else "NACK",
                {"batch_id": index // 2, "epoch": 1},
            )
        env.process(late(env))
        env.run(until=100.0)
        assert eps["b"].pending == 40  # 20 queues of two
        env.run()
        assert eps["b"].reaped == 40
        assert network.stats.expired == 40
        assert eps["b"].pending == 1
        assert [m.kind for m in eps["b"].inbox.items] == ["PING"]
        assert list(eps["b"].inbox._queues) == ["PING"]

    def test_small_backlogs_are_left_alone(self, env):
        """Below REAP_MIN_BACKLOG the scan cost is trivial, so even
        stale messages stay (cheaper than scanning tiny inboxes)."""
        _network, eps = make_network(env, inbox_ttl=100.0)

        def late(env):
            yield env.timeout(500.0)
            eps["a"].send("b", "PING")

        for index in range(10):
            eps["a"].send("b", "ACK", index)
        env.process(late(env))
        env.run()
        assert eps["b"].reaped == 0
        assert eps["b"].pending == 11

    def test_fresh_messages_survive_and_are_claimable(self, env):
        _network, eps = make_network(env, inbox_ttl=100.0)
        got = []

        def flood_then_claim(env):
            for index in range(40):
                eps["a"].send("b", "ACK", index)
            yield env.timeout(200.0)
            eps["a"].send("b", "DATA", "fresh")
            msg = yield eps["b"].receive(kind="DATA")
            got.append(msg.payload)

        env.process(flood_then_claim(env))
        env.run()
        assert got == ["fresh"]
        assert eps["b"].reaped == 40

"""Unit tests for the replica server (Algorithm 2)."""

import pytest

from repro.errors import ProtocolError
from repro.core.machines.identity import AgentId
from repro.core.machines.interpreter import Resident
from repro.net.network import Network
from repro.net.topology import Topology
from repro.replication.deployment import Deployment
from repro.replication.server import (
    ReplicaServer, SharedView, UpdatePayload, WriteOp,
)
from repro.sim.core import Environment


def aid(n: int) -> AgentId:
    return AgentId("client", float(n), 0)


def request_lock(server, n: int, request_id: int) -> None:
    """Append agent ``n`` to the server's Locking List, as a visit does."""
    server.interpreter.run_replica(
        server.machine.request_lock(aid(n), request_id, server.env.now)
    )


def requeue_lock(server, n: int, request_id: int) -> None:
    server.interpreter.run_replica(
        server.machine.requeue_lock(aid(n), request_id, server.env.now)
    )


def payload(agent_n: int, version: int = 1, value="v", epoch: int = 1,
            reply_to: str = "s1", batch: int = None) -> UpdatePayload:
    batch_id = batch if batch is not None else agent_n
    return UpdatePayload(
        batch_id=batch_id,
        agent_id=aid(agent_n),
        origin="s1",
        writes=(WriteOp(batch_id, "x", value, version),),
        reply_to=reply_to,
        epoch=epoch,
    )


@pytest.fixture
def dep():
    return Deployment(n_replicas=3, seed=0)


class Watch:
    """A host that runs no server: it logs the ACK/NACKs it receives."""

    def __init__(self, endpoint):
        self.send = endpoint.send
        self.replies = []
        endpoint.serve(("ACK", "NACK"), None, self.replies.append)


@pytest.fixture
def watched():
    """Replica server ``s1`` and, beside it, a host that runs none: a
    server pushes the ACK/NACKs its host receives at its interpreter,
    so a test that wants to read them has them sent to ``watch``."""
    env = Environment()
    network = Network(env, Topology.full_mesh(["s1", "watch"]))
    server = ReplicaServer(
        env, "s1", network.register("s1"), network, peers=["s1"]
    )
    return env, server, Watch(network.register("watch"))


class TestLocalInterface:
    def test_request_lock_appends(self, dep):
        server = dep.server("s1")
        request_lock(server, 1, 101)
        assert server.locking_list.top() == aid(1)

    def test_request_lock_idempotent(self, dep):
        server = dep.server("s1")
        request_lock(server, 1, 101)
        request_lock(server, 1, 101)
        assert len(server.locking_list) == 1

    def test_request_lock_after_completion_rejected(self, dep):
        server = dep.server("s1")
        server.updated_list.add(aid(1))
        with pytest.raises(ProtocolError):
            request_lock(server, 1, 101)

    def test_lock_view_contents(self, dep):
        server = dep.server("s1")
        request_lock(server, 1, 101)
        server.store.apply("x", "v", 3, 0.0)
        view = server.machine.lock_view(dep.env.now)
        assert view.host == "s1"
        assert view.view == (aid(1),)
        # Lock state only: committed versions travel in ACKs alone.
        assert not hasattr(view, "versions")

    def test_requeue_lock_moves_to_tail(self, dep):
        server = dep.server("s1")
        request_lock(server, 1, 101)
        request_lock(server, 2, 102)
        requeue_lock(server, 1, 101)
        assert server.locking_list.view() == (aid(2), aid(1))

    def test_bulletin_keeps_freshest(self, dep):
        server = dep.server("s1")
        old = SharedView("s2", 1.0, (), frozenset())
        new = SharedView("s2", 2.0, (aid(1),), frozenset())
        assert server.machine.post_bulletin({"s2": old}) == 1
        assert server.machine.post_bulletin({"s2": new}) == 1
        assert server.machine.post_bulletin({"s2": old}) == 0
        assert server.machine.read_bulletin()["s2"].as_of == 2.0

    def test_bulletin_ignores_own_host(self, dep):
        server = dep.server("s1")
        own = SharedView("s1", 1.0, (), frozenset())
        assert server.machine.post_bulletin({"s1": own}) == 0

    def test_bulletin_disabled(self, dep):
        server = dep.server("s1")
        server.config.enable_bulletin = False
        view = SharedView("s2", 1.0, (), frozenset())
        assert server.machine.post_bulletin({"s2": view}) == 0
        assert server.machine.read_bulletin() == {}

    def test_wait_release_fires_on_commit(self, dep):
        server = dep.server("s1")
        request_lock(server, 1, 101)
        woken = []

        class Waiter:
            """A parked agent, as far as a release is concerned."""

            release = staticmethod(
                server.park(1e6, lambda: woken.append(dep.env.now))
            )

        server.interpreter.parked[aid(2)] = Waiter
        dep.network.endpoints["s2"].send("s1", "COMMIT", payload(1))
        dep.run(until=100)
        assert len(woken) == 1  # by the commit, long before the timeout
        assert server.interpreter.parked == {}
        assert server.locking_list.top() is None


class TestGrantMachinery:
    def test_update_grants_and_acks_with_versions(self, watched):
        env, server, watch = watched
        server.store.apply("x", "old", 4, 0.0)
        server.store.apply("y", "other", 2, 0.0)
        update = payload(1, reply_to="watch")
        update.keys = ("x",)
        watch.send("s1", "UPDATE", update)
        env.run(until=100)
        (ack,) = watch.replies
        # The versions of exactly the keys the UPDATE names.
        assert ack.kind == "ACK" and ack.payload["versions"] == {"x": 4}
        assert server.machine.grant_holder == aid(1)

    def test_second_agent_nacked_while_granted(self, watched):
        env, server, watch = watched
        watch.send("s1", "UPDATE", payload(1, reply_to="watch"))
        watch.send("s1", "UPDATE", payload(2, reply_to="watch"))
        env.run(until=100)
        assert sorted(m.kind for m in watch.replies) == ["ACK", "NACK"]
        assert (server.machine.acks_sent, server.machine.nacks_sent) == (1, 1)

    def test_same_agent_reack(self, watched):
        env, _server, watch = watched
        watch.send("s1", "UPDATE", payload(1, reply_to="watch", epoch=1))
        watch.send("s1", "UPDATE", payload(1, reply_to="watch", epoch=2))
        env.run(until=100)
        assert [m.kind for m in watch.replies] == ["ACK", "ACK"]

    def test_release_frees_grant(self, dep):
        server = dep.server("s1")
        sender = dep.network.endpoints["s2"]
        sender.send("s1", "UPDATE", payload(1, reply_to="s2"))
        dep.run(until=50)
        assert server.machine.grant_holder == aid(1)
        sender.send("s1", "RELEASE", payload(1, reply_to="s2"))
        dep.run(until=100)
        assert server.machine.grant_holder is None
        # lock entry survives a RELEASE (the agent is still queued)
        assert server.updated_list.as_set() == frozenset()

    def test_stale_release_does_not_clear_newer_grant(self, dep):
        """Regression: a re-claim's UPDATE (epoch 2) can overtake the
        failed claim's RELEASE (epoch 1) in the network; the late RELEASE
        must not free the epoch-2 grant, or a second claimer could slip
        into the critical section."""
        server = dep.server("s1")
        sender = dep.network.endpoints["s2"]
        sender.send("s1", "UPDATE", payload(1, reply_to="s2", epoch=2))
        dep.run(until=50)
        assert server.machine.grant_holder == aid(1)
        assert server.machine.grant_epoch == 2
        sender.send("s1", "RELEASE", payload(1, reply_to="s2", epoch=1))
        dep.run(until=100)
        assert server.machine.grant_holder == aid(1)  # survived the stale release
        # An in-order release (same epoch) does clear it.
        sender.send("s1", "RELEASE", payload(1, reply_to="s2", epoch=2))
        dep.run(until=150)
        assert server.machine.grant_holder is None

    def test_stale_update_does_not_roll_epoch_back(self, dep):
        server = dep.server("s1")
        sender = dep.network.endpoints["s2"]
        sender.send("s1", "UPDATE", payload(1, reply_to="s2", epoch=3))
        dep.run(until=50)
        sender.send("s1", "UPDATE", payload(1, reply_to="s2", epoch=2))
        dep.run(until=100)
        assert server.machine.grant_epoch == 3

    def test_grant_expires_after_ttl(self, watched):
        env, server, watch = watched
        server.config.grant_ttl = 10.0
        watch.send("s1", "UPDATE", payload(1, reply_to="watch"))
        env.run(until=10)
        assert [m.kind for m in watch.replies] == ["ACK"]
        # 50 ms later the TTL has lapsed: the second agent is granted
        env.call_in(50, lambda _arg: watch.send(
            "s1", "UPDATE", payload(2, reply_to="watch")
        ))
        env.run(until=200)
        assert [m.kind for m in watch.replies] == ["ACK", "ACK"]
        assert server.machine.grant_holder == aid(2)


class TestCommitAndAbort:
    def test_commit_applies_and_cleans_up(self, dep):
        server = dep.server("s1")
        request_lock(server, 1, 1)
        dep.network.endpoints["s2"].send(
            "s1", "COMMIT", payload(1, version=1, value="committed")
        )
        dep.run(until=100)
        assert server.store.read("x").value == "committed"
        assert server.history.identities() == [(1, "x", 1)]
        assert aid(1) in server.updated_list
        assert aid(1) not in server.locking_list

    def test_commit_is_idempotent_on_redelivery(self, dep):
        server = dep.server("s1")
        endpoint = dep.network.endpoints["s2"]
        endpoint.send("s1", "COMMIT", payload(1))
        endpoint.send("s1", "COMMIT", payload(1))
        dep.run(until=100)
        assert len(server.history) == 1
        assert server.commits_applied == 1

    def test_stale_commit_not_applied(self, dep):
        server = dep.server("s1")
        endpoint = dep.network.endpoints["s2"]
        endpoint.send("s1", "COMMIT", payload(2, version=5, value="new"))
        dep.run(until=50)
        endpoint.send("s1", "COMMIT", payload(1, version=3, value="old"))
        dep.run(until=100)
        assert server.store.read("x").value == "new"
        assert len(server.history) == 1

    def test_abort_releases_everything(self, dep):
        server = dep.server("s1")
        request_lock(server, 1, 1)
        endpoint = dep.network.endpoints["s2"]
        endpoint.send("s1", "UPDATE", payload(1, reply_to="s2"))
        dep.run(until=50)
        endpoint.send("s1", "ABORT", payload(1, reply_to="s2"))
        dep.run(until=100)
        assert server.machine.grant_holder is None
        assert aid(1) not in server.locking_list
        assert aid(1) in server.updated_list
        assert len(server.store) == 0


class Taker:
    """A machine that takes the READRs of one request id at a host's
    interpreter (through its claim table, as a quorum read does)."""

    def __init__(self):
        self.replies = []

    def on_message(self, kind, payload, now):
        self.replies.append((kind, payload))
        return []


@pytest.fixture
def asked(dep):
    """``s2`` asks with request id 9; what reaches its taker is logged."""
    taker = Taker()
    dep.server("s2").interpreter.claims[9] = Resident(taker)
    return dep.network.endpoints["s2"], taker.replies


class TestReadQueryAndSync:
    def test_readq_replies_with_version(self, dep, asked):
        asker, replies = asked
        dep.server("s1").store.apply("x", "answer", 7, 0.0)
        asker.send("s1", "READQ", {"request_id": 9, "key": "x"})
        dep.run(until=100)
        assert replies == [("READR", {
            "request_id": 9, "key": "x", "from": "s1",
            "version": 7, "value": "answer",
        })]
        assert dep.network.stats.expired == 0

    def test_readq_missing_key(self, dep, asked):
        asker, replies = asked
        asker.send("s1", "READQ", {"request_id": 9, "key": "ghost"})
        dep.run(until=100)
        ((kind, reply),) = replies
        assert kind == "READR" and reply["from"] == "s1"
        assert reply["version"] == 0
        assert reply["value"] is None

    def test_sync_transfers_store_and_clears_stale_locks(self, dep):
        source = dep.server("s2")
        source.store.apply("x", "fresh", 9, 0.0)
        source.updated_list.add(aid(1))

        target = dep.server("s1")
        request_lock(target, 1, 1)  # stale entry of a finished agent
        target.request_sync("s2")
        dep.run(until=200)
        assert target.store.read("x").value == "fresh"
        assert aid(1) not in target.locking_list
        assert aid(1) in target.updated_list
        assert target.recoveries == 1

"""Deterministic unit tests of the live HostRuntime message handlers.

These drive ``_dispatch`` directly — no threads, no timers — so the live
host's state machine (grants, locking list, parking, claims, commits)
can be tested exactly like the DES server; only :class:`TestTimers`
runs the host loop on a thread, to time it. State is read where it
lives: the replica machine (``host.machine``) and the interpreter's
parked and claim tables (``host.interpreter``); the wire carries the
kernel's own :class:`UpdatePayload`.
"""

import queue
import threading

import pytest

from repro.core.machines.identity import AgentId
from repro.core.machines.wire import SharedView, UpdatePayload, WriteOp
from repro.runtime.host import HostRuntime, LiveConfig, now_ms
from repro.runtime.shipping import LiveAgentState, ship
from repro.runtime.transport import LiveMessage, LiveTransport


HOSTS = ["h1", "h2", "h3"]


@pytest.fixture
def transport():
    # zero latency so every send lands in a mailbox immediately
    return LiveTransport(HOSTS, latency_range=(0.0, 0.0))


@pytest.fixture
def host(transport):
    return HostRuntime("h1", HOSTS, transport, LiveConfig())


def drain(transport, host_name):
    """All messages currently queued for a host."""
    mailbox = transport.mailbox(host_name)
    out = []
    while True:
        try:
            out.append(mailbox.get_nowait())
        except queue.Empty:
            return out


def agent_state(n: int, home="h2", key="x", value="v") -> LiveAgentState:
    return LiveAgentState(
        agent_id=AgentId(home, float(n), 0),
        home=home,
        batch_id=n,
        requests=[(n, key, value, 0.0)],
        dispatched_at=0.0,
        tour_remaining=[h for h in HOSTS if h != home],
    )


def msg(kind, payload, src="h2", dst="h1"):
    return LiveMessage(kind=kind, src=src, dst=dst, payload=payload)


def update(batch_id, agent_id, epoch=1, reply_to="h2", keys=("x",)):
    """An UPDATE/RELEASE body."""
    return UpdatePayload(
        batch_id=batch_id, agent_id=agent_id, origin=agent_id.host,
        reply_to=reply_to, epoch=epoch, keys=keys,
    )


def commit(batch_id, agent_id, *writes):
    """A COMMIT body; ``writes`` are (request_id, key, value, version)."""
    return UpdatePayload(
        batch_id=batch_id, agent_id=agent_id, origin=agent_id.host,
        writes=tuple(WriteOp(*write) for write in writes),
    )


def topping_everywhere(state):
    """Pretend ``state``'s agent already visited h2 and h3 and topped both."""
    for other in ("h2", "h3"):
        state.table.update(SharedView(
            host=other, as_of=1.0, view=(state.agent_id,),
        ))
    state.tour_remaining = []
    return state


class TestWriteAndAgentArrival:
    def test_write_creates_agent_and_enqueues_lock(self, host, transport):
        host._dispatch(
            msg("WRITE", {"request_id": 1, "key": "x", "value": 5,
                          "created_at": 0.0}),
            now=100.0,
        )
        # the agent enqueued locally and migrated onward
        assert len(host.machine.lock("x").queue) == 1
        outbound = drain(transport, "h2") + drain(transport, "h3")
        assert any(m.kind == "AGENT" for m in outbound)

    def test_agent_arrival_enqueues_and_moves_on(self, host, transport):
        state = agent_state(7)
        host._dispatch(
            msg("AGENT", ship(state), src="h2"), now=10.0,
        )
        assert state.agent_id in host.machine.lock("x").queue
        # it still has h3 to visit
        forwarded = drain(transport, "h3")
        assert len(forwarded) == 1
        assert forwarded[0].kind == "AGENT"

    def test_agent_with_majority_claims(self, host, transport):
        state = topping_everywhere(agent_state(7))
        host._dispatch(msg("AGENT", ship(state), src="h3"), now=10.0)
        # topping h1 + h2 + h3 = majority -> UPDATE broadcast to all
        updates = [
            m for h in HOSTS for m in drain(transport, h)
            if m.kind == "UPDATE"
        ]
        assert len(updates) == len(HOSTS)
        assert 7 in host.interpreter.claims  # claim pending at this host


class TestGrantHandlers:
    def test_update_grants_and_reports_versions(self, host, transport):
        host.machine.store.apply("x", "old", 4, 0.0)
        host.machine.store.apply("y", "other", 2, 0.0)
        host._dispatch(
            msg("UPDATE", update(1, AgentId("h2", 1.0, 0), keys=("x",))),
            now=10.0,
        )
        acks = [m for m in drain(transport, "h2") if m.kind == "ACK"]
        assert len(acks) == 1
        assert acks[0].payload["versions"] == {"x": 4}
        assert host.machine.lock("x").holder == AgentId("h2", 1.0, 0)

    def test_second_claimer_nacked(self, host, transport):
        a, b = AgentId("h2", 1.0, 0), AgentId("h3", 2.0, 0)
        host._dispatch(msg("UPDATE", update(1, a)), now=10.0)
        host._dispatch(
            msg("UPDATE", update(2, b, reply_to="h3"), src="h3"), now=11.0
        )
        nacks = [m for m in drain(transport, "h3") if m.kind == "NACK"]
        assert len(nacks) == 1
        assert host.machine.lock("x").holder == a

    def test_stale_release_epoch_guarded(self, host, transport):
        a = AgentId("h2", 1.0, 0)
        host._dispatch(msg("UPDATE", update(1, a, epoch=2)), now=10.0)
        host._dispatch(msg("RELEASE", update(1, a, epoch=1)), now=11.0)
        assert host.machine.lock("x").holder == a  # stale release ignored
        host._dispatch(msg("RELEASE", update(1, a, epoch=2)), now=12.0)
        assert host.machine.lock("x").holder is None

    def test_grant_ttl_expiry(self, transport):
        config = LiveConfig(grant_ttl=100.0)
        host = HostRuntime("h1", HOSTS, transport, config)
        a, b = AgentId("h2", 1.0, 0), AgentId("h3", 2.0, 0)
        host._dispatch(msg("UPDATE", update(1, a)), now=10.0)
        host._dispatch(
            msg("UPDATE", update(2, b, reply_to="h3"), src="h3"),
            now=200.0,  # past the TTL
        )
        assert host.machine.lock("x").holder == b


class TestCommitPath:
    def test_commit_applies_in_version_order(self, host):
        a = AgentId("h2", 1.0, 0)
        host._dispatch(
            msg("COMMIT", commit(1, a, (1, "x", "new", 2))), now=10.0
        )
        host._dispatch(
            msg("COMMIT", commit(
                2, AgentId("h3", 2.0, 0), (2, "x", "stale", 1)
            )),
            now=11.0,
        )
        entry = host.machine.store.read("x")
        assert (entry.value, entry.version) == ("new", 2)
        assert host.machine.history.identities() == [(1, "x", 2)]

    def test_commit_removes_lock_and_wakes_parked(self, host, transport):
        winner = AgentId("h2", 1.0, 0)
        host.machine.request_lock(winner, 1, 0.0, "x")
        # A second agent arrives with nowhere left to go and parks
        # behind the winner.
        parked = agent_state(9, home="h3")
        parked.tour_remaining = []
        host._dispatch(msg("AGENT", ship(parked), src="h3"), now=5.0)
        assert parked.agent_id in host.interpreter.parked["x"]
        host._dispatch(
            msg("COMMIT", commit(1, winner, (1, "x", "v", 1))), now=10.0
        )
        assert winner not in host.machine.lock("x").queue
        assert winner in host.machine.updated_list
        # woken by the release, it refreshed its view and set off on a
        # new tour ([D2])
        assert "x" not in host.interpreter.parked
        outbound = drain(transport, "h2") + drain(transport, "h3")
        assert any(m.kind == "AGENT" for m in outbound)

    def test_claim_timeout_fails_claim(self, host, transport):
        state = topping_everywhere(agent_state(5))
        host._dispatch(msg("AGENT", ship(state), src="h3"), now=10.0)
        agent = host.interpreter.claims[5]
        for h in HOSTS:
            drain(transport, h)  # the UPDATE round
        host._check_timers(now=10.0 + host.config.ack_timeout + 1)
        assert 5 not in host.interpreter.claims
        releases = [
            m for h in HOSTS for m in drain(transport, h)
            if m.kind == "RELEASE"
        ]
        assert len(releases) == len(HOSTS)
        # A pure timeout (no NACKs) does not count toward the abort
        # budget — only contended (conflict) failures do, matching the
        # DES backend now that both drive the same kernel. The agent
        # backs off and will retry.
        assert agent.machine.state.failed_claims == 0
        assert "backoff" in agent.timers


class TestTimers:
    def test_a_timer_fires_at_its_deadline_not_the_next_tick(self, transport):
        """The loop blocks for a tick only while no timer is due sooner,
        and leaves as soon as STOP is handled, not a tick later: with no
        message in flight and no agent alive the cluster is quiescent."""
        host = HostRuntime("h1", HOSTS, transport, LiveConfig(tick=1000.0))
        fired = threading.Event()
        armed_at = now_ms()
        host._now = armed_at
        host.set_timer(5.0, fired.set)
        loop = threading.Thread(target=host.run, daemon=True)
        loop.start()
        try:
            assert fired.wait(timeout=5.0)
            assert now_ms() - armed_at < 500.0
        finally:
            stopped_at = now_ms()
            transport.send(LiveMessage(kind="STOP", src="h1", dst="h1"))
            loop.join(timeout=5.0)
        assert not loop.is_alive()
        assert now_ms() - stopped_at < 500.0
        assert transport.quiescent()
        assert transport.results.get_nowait()["type"] == "final"

    def test_a_timer_is_due_at_its_deadline(self, host):
        fired = []
        host._now = 100.0
        host.set_timer(5.0, lambda: fired.append(host.now()))
        host._check_timers(now=104.9)
        assert fired == []
        host._check_timers(now=105.0)
        assert fired == [105.0]

"""Unit tests for the harness's fault-injection primitives.

The schedule adversary leans on these behaviors being exact; each one
is pinned here in isolation: partitions buffer (never lose) messages
until heal, drop directives only touch retryable kinds, duplicates and
delays act on the deterministic send index, killed agents vanish and
their lock entries lapse one hygiene window after they fall silent (a
live agent's do too, if it is silent that long), a restarted replica
catches up from a majority of its peers before it serves again, and a
livelocked run raises instead of silently passing.
"""

import pytest

from repro.core.machines.identity import AgentId
from repro.core.machines.adversary import (
    CrashOp,
    DelayOp,
    InvariantViolation,
    RestartOp,
    Schedule,
    SubmitOp,
    check_schedule,
)
from repro.core.machines.config import ProtocolTunables
from repro.core.machines.events import MsgReceived
from repro.core.machines.replay import (
    DROPPABLE_KINDS,
    EventBudgetExceeded,
    KernelHarness,
)
from repro.core.machines.replica import ReplicaMachine
from repro.core.machines.wire import UpdatePayload, WriteOp

HOSTS = ["s1", "s2", "s3"]


class RecordingHarness(KernelHarness):
    """Harness that logs every message handed to the network.

    Because the harness is deterministic, one recorded run is enough to
    learn the global send index of any message of interest; a second
    run can then aim drop/duplicate/delay directives at it exactly.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sends = []  # (index, kind, src, dst)

    def _deliver_later(self, dst, kind, payload, src):
        self.sends.append((self.msg_index, kind, src, dst))
        super()._deliver_later(dst, kind, payload, src)


def run_one_update(harness_cls=KernelHarness, rival=False, **kwargs):
    harness = harness_cls(HOSTS, **kwargs)
    harness.submit("s1", 1, "x", "v1", at=0.0)
    if rival:
        # A second agent queued first at s2: agent 1 meets it there and
        # gives back its visit grant, so both claims are UPDATE rounds.
        harness.submit("s2", 2, "x", "v2", at=0.0, created_seq=1)
    return harness


class TestPartition:
    def test_partition_buffers_and_heal_delivers(self):
        harness = run_one_update()
        # Cut the lone writer's side off from s3 for the whole claim.
        harness.set_partition([["s1", "s2"], ["s3"]], at=0.0)
        harness.run(until=5_000)
        # The claim resolves on the majority side; s3 saw nothing.
        assert harness.statuses() == {1: "committed"}
        assert len(harness.replicas["s3"].history) == 0
        assert harness._partition_buffer  # COMMIT (at least) is waiting
        harness.heal_partition()
        harness.run(until=10_000)
        assert len(harness.replicas["s3"].history) == 1
        assert harness.replicas["s3"].read("x").value == "v1"

    def test_unknown_host_rejected(self):
        harness = KernelHarness(HOSTS)
        with pytest.raises(ValueError):
            harness.set_partition([["s1", "nope"]])

    def test_unnamed_hosts_are_isolated(self):
        harness = KernelHarness(HOSTS)
        harness.set_partition([["s1", "s2"]])
        assert harness._reachable("s1", "s2")
        assert not harness._reachable("s1", "s3")
        assert not harness._reachable("s2", "s3")
        assert harness._reachable("s3", "s3")

    def test_migration_across_cut_reads_as_replica_down(self):
        harness = KernelHarness(HOSTS)
        harness.set_partition([["s1"], ["s2", "s3"]], at=0.0)
        harness.submit("s1", 1, "x", "v1", at=1.0)
        harness.heal_partition(at=200.0)
        harness.run(until=10_000)
        # The agent could not tour a majority until the heal, then
        # completed normally — no update was lost to the partition.
        assert harness.statuses() == {1: "committed"}


class TestMessageDirectives:
    def test_drop_only_touches_droppable_kinds(self):
        probe = run_one_update(RecordingHarness, rival=True)
        probe.run(until=10_000)
        kinds = {kind for _i, kind, _s, _d in probe.sends}
        assert "COMMIT" in kinds and "UPDATE" in kinds

        # Blanket-drop directives: only retryable kinds may be lost.
        # Dropped claim rounds read as silence, and silence is retried
        # forever (a timeout is not a conflict, so it never burns a
        # claim attempt) — no update resolves, none diverges.
        harness = run_one_update(rival=True)
        for nth in range(len(probe.sends) * 40):
            harness.drop_message(nth)
        harness.run(until=20_000)
        assert harness.dropped
        assert all(
            kind in DROPPABLE_KINDS for _t, _s, _d, kind in harness.dropped
        )
        assert harness.statuses() == {}
        assert harness.commit_chains() == {}

    def test_finite_drops_are_retried_through(self):
        # A drop set that blankets the first claim rounds but nothing
        # after them: the ack-timeout retries go through and commit.
        probe = run_one_update(RecordingHarness, rival=True)
        probe.run(until=10_000)
        harness = run_one_update(rival=True)
        for nth in range(len(probe.sends)):
            harness.drop_message(nth)
        harness.run(until=100_000)
        assert harness.statuses() == {1: "committed", 2: "committed"}

    def test_dropped_ack_is_retried_and_still_commits(self):
        probe = run_one_update(RecordingHarness, rival=True)
        probe.run(until=10_000)
        first_ack = next(i for i, k, _s, _d in probe.sends if k == "ACK")
        harness = run_one_update(rival=True)
        harness.drop_message(first_ack)
        harness.run(until=100_000)
        assert harness.statuses() == {1: "committed", 2: "committed"}
        assert [(s, d, k) for _t, s, d, k in harness.dropped] == [
            (probe.sends[first_ack][2], probe.sends[first_ack][3], "ACK")
        ]

    def test_duplicate_commit_applies_once(self):
        probe = run_one_update(RecordingHarness)
        probe.run(until=10_000)
        commits = [i for i, k, _s, _d in probe.sends if k == "COMMIT"]
        harness = run_one_update()
        for nth in commits:
            harness.duplicate_message(nth, extra_delay=7.0)
        harness.run(until=10_000)
        assert harness.statuses() == {1: "committed"}
        for host in HOSTS:
            assert len(harness.replicas[host].history) == 1

    def test_delay_shifts_delivery(self):
        probe = run_one_update(RecordingHarness)
        probe.run(until=10_000)
        index, _kind, _src, dst = next(
            (i, k, s, d) for i, k, s, d in probe.sends if k == "COMMIT"
        )
        harness = run_one_update()
        harness.delay_message(index, by=13.0)
        harness.run(until=10_000)
        assert harness.statuses() == {1: "committed"}
        # The delayed replica applied the same commit, 13 time units
        # after its peers.
        times = {
            host: harness.replicas[host].history.records()[0].committed_at
            for host in HOSTS
        }
        others = [t for host, t in times.items() if host != dst]
        assert times[dst] == pytest.approx(others[0] + 13.0)

    def test_runs_identical_without_directives(self):
        plain = run_one_update()
        plain.run(until=10_000)
        recorded = run_one_update(RecordingHarness)
        recorded.run(until=10_000)
        assert plain.commit_chains() == recorded.commit_chains()
        assert plain.now == recorded.now


class TestKill:
    def test_killed_agent_vanishes_but_entries_remain(self):
        harness = KernelHarness(HOSTS)
        victim = harness.submit("s1", 1, "x", "v1", at=0.0)
        # Let it arrive and enqueue its lock request, then vanish.
        harness.run(until=0.5)
        harness.kill(victim)
        assert victim in harness.killed
        assert victim not in harness.agents
        assert victim in harness.replicas["s1"].lock("x").queue
        harness.run(until=10_000)
        # Nobody commits on the dead agent's behalf.
        assert harness.statuses() == {}
        assert harness.commit_chains() == {}

    def test_killed_rivals_entries_lapse_and_the_survivor_commits(self):
        # The victim dies mid-claim. Its grants expire after grant_ttl
        # and its Locking-List entries lapse one hygiene window (the
        # lease, 1.5 x grant_ttl) after it was last heard, so the
        # survivor, which claimed behind the phantom and then parked,
        # wins on its next refresh tour. Without the lease it claims
        # behind the dead winner every ~105 ms, for good.
        # Hops (10 ms) outlast the ack timeout (5 ms): the grant the
        # victim took on its first visit is too old to skip the round
        # when it wins at s2, so it claims by UPDATE.
        tunables = ProtocolTunables(grant_ttl=50.0, ack_timeout=5.0)
        harness = KernelHarness(HOSTS, tunables=tunables, hop_latency=10.0)
        victim = harness.submit("s1", 1, "x", "dead", at=0.0)
        # t=11: the UPDATE round is under way and every replica holds a
        # grant for the victim; the COMMIT broadcast would fire at t=12.
        harness.run(until=11.5)
        harness.kill(victim)
        survivor = harness.submit("s2", 2, "x", "alive", at=20.0)
        harness.run(until=100_000)
        assert harness.statuses() == {2: "committed"}
        assert harness.commit_chains() == {"x": [(1, "alive")]}
        assert harness.audit().consistent
        assert victim not in harness.replicas["s1"].lock("x").queue
        # One lease after the kill, then one park-and-claim cycle: a
        # park timeout, a refresh tour of the other hosts, a claim.
        lease = harness.replicas["s1"].updated_list.retention
        cycle = tunables.park_timeout + 2 * 10.0 + tunables.ack_timeout
        (committed_at,) = [when for when, kind, _text
                           in harness.agents[survivor].notes
                           if kind == "commit"]
        assert committed_at <= 11.5 + lease + cycle

    def test_kill_unknown_agent_is_a_noop(self):
        harness = KernelHarness(HOSTS)
        harness.kill(AgentId("s9", 0.0, 42))
        assert harness.killed == set()


class TestLease:
    """A Locking-List entry lapses once its agent has been silent for
    one hygiene window (1.5 x grant_ttl): no visit, UPDATE or grant.
    That costs a slow live agent its place, never agreement."""

    class SlowHops(KernelHarness):
        """One agent's hops take ``extra`` ms longer than the rest's."""

        slow = None
        extra = 0.0

        def _schedule(self, when, action, *args):
            if action == self._land and args[0].machine.state.agent_id == self.slow:
                when += self.extra
            super()._schedule(when, action, *args)

    def test_a_live_agent_slower_than_the_lease_re_appends_at_the_tail(self):
        # Lease 75 ms, park timeout 100 ms. A tours with 51 ms hops; C,
        # with 1 ms hops, parks at s4 at t=80, undecided, and is not
        # heard there again until A's visit at t=178 evicts it. The
        # eviction wakes C, which visits s4 again and queues behind A.
        harness = self.SlowHops(FOUR, tunables=ProtocolTunables(
            grant_ttl=50.0, park_timeout=100.0,
        ))
        a = harness.submit("s1", 1, "x", "a", at=25.0)
        c = harness.submit("s2", 2, "x", "c", at=77.0, created_seq=1)
        harness.slow, harness.extra = a, 50.0
        s4 = harness.replicas["s4"]
        harness.run(until=177.0)
        assert s4.lock("x").queue.view() == (c,) and s4.evicted == 0
        harness.run(until=178.0)
        assert s4.lock("x").queue.view() == (a, c) and s4.evicted == 1
        assert (80.0, "park", "") in harness.agents[c].notes
        assert (178.0, "visit", "rank 1 of 2") in harness.agents[c].notes
        harness.run(until=100_000)
        assert harness.statuses() == {1: "committed", 2: "committed"}
        assert harness.commit_chains() == {"x": [(1, "a"), (2, "c")]}
        assert harness.audit().consistent

    def test_a_held_update_acked_late_keeps_its_entry_while_granted(self):
        # B's UPDATE behind W arrives at t=1.5, B's last word here. W's
        # COMMIT is late (t=6000) and ACKs B's held UPDATE in its step:
        # the grant B takes then, until t=16000, renews its entry, so a
        # visit at t=15002 (past B's UPDATE + lease) finds B queued.
        w, b, c = (AgentId(host, at, 0) for host, at in
                   (("s2", 1.0), ("s3", 2.0), ("s1", 3.0)))
        replica = ReplicaMachine("s1", HOSTS, ProtocolTunables())
        replica.request_lock(w, 1, 0.0, "x")
        replica.request_lock(b, 2, 0.5, "x")
        for agent, batch, at, behind in ((w, 1, 1.0, None), (b, 2, 1.5, w)):
            replica.on(MsgReceived("UPDATE", UpdatePayload(
                batch_id=batch, agent_id=agent, origin=agent.host,
                reply_to=agent.host, epoch=1, keys=("x",), behind=behind,
            ), at))
        assert list(replica.lock("x").held_updates) == [2]
        replica.on(MsgReceived("COMMIT", UpdatePayload(
            batch_id=1, agent_id=w, origin="s2",
            writes=(WriteOp(1, "x", "w", 1),),
        ), 6000.0))
        assert replica.lock("x").holder == b
        assert replica.lock("x").expires_at == 16_000.0
        lease = replica.updated_list.retention
        replica.begin_visit(c, 3, 1.5 + lease + 0.5, acked=-1, key="x")
        assert replica.lock("x").queue.view() == (b, c)
        assert replica.evicted == 0


FOUR = ["s1", "s2", "s3", "s4"]
FIVE = ["s1", "s2", "s3", "s4", "s5"]


class TestCatchUp:
    """A restarted replica asks every peer for its state and serves
    again once three of its four peers (``N//2 + 1``) have answered."""

    def stalled(self):
        """s3 restarts at t=0 while s4 and s5 are down: s1 and s2
        answer, one reply short of a rejoin."""
        harness = RecordingHarness(FIVE)
        for host in ("s3", "s4", "s5"):
            harness.crash(host)
        harness.restart("s3")
        harness.run(until=10.0)
        return harness

    def test_it_asks_every_peer_and_waits_for_a_majority(self):
        harness = self.stalled()
        assert [(kind, src, dst) for _i, kind, src, dst in harness.sends] == [
            ("SYNC_REQUEST", "s3", peer) for peer in ("s1", "s2", "s4", "s5")
        ] + [("SYNC_REPLY", "s1", "s3"), ("SYNC_REPLY", "s2", "s3")]
        replica = harness.replicas["s3"]
        assert replica.catching_up and replica.synced_from == {"s1", "s2"}
        assert replica.recoveries == 0

    def test_refuses_visit_update_readq_applies_commit(self):
        harness = self.stalled()
        agent = harness.submit("s3", 1, "x", "v1", at=10.0)
        port = harness.interpreters["s1"].substrate
        update = UpdatePayload(
            batch_id=7, agent_id=AgentId("s1", 0.0, 9), origin="s1",
            reply_to="s1", epoch=1, keys=("y",),
        )
        port.send("s3", "UPDATE", update)
        port.send("s3", "READQ", {"request_id": 8, "key": "y"})
        port.send("s3", "COMMIT", UpdatePayload(
            batch_id=7, agent_id=update.agent_id, origin="s1",
            writes=(WriteOp(7, "y", "y1", 1),),
        ))
        harness.run(until=12.0)
        replica = harness.replicas["s3"]
        # The visit at its home yielded ReplicaDown: no lock entry there.
        assert (10.0, "unavailable", "") in harness.agents[agent].notes
        assert agent not in replica.lock("x").queue
        # Neither the UPDATE nor the READQ got a reply ...
        assert {
            kind for _i, kind, src, _dst in harness.sends if src == "s3"
        } == {"SYNC_REQUEST"}
        assert replica.lock("x").holder is None
        # ... but the COMMIT applied.
        assert replica.read("y").value == "y1"
        assert replica.commits_applied == 1
        assert replica.catching_up

    def test_it_rejoins_at_the_third_reply(self):
        harness = self.stalled()
        harness.restart("s4", at=10.0)  # s3 answers it, and asks again
        harness.run(until=12.5)
        replica = harness.replicas["s3"]
        assert replica.synced_from == {"s1", "s2"}
        harness.run(until=13.0)  # s4's reply lands
        assert not replica.catching_up
        assert replica.recoveries == 1 and replica.journal.resets == 1
        assert not harness.replicas["s4"].catching_up
        agent = harness.submit("s3", 1, "x", "v1", at=20.0)
        harness.run(until=20.0)
        assert agent in replica.lock("x").queue

    def test_with_every_peer_down_it_stalls_then_resumes(self):
        """What ROADMAP 2(b) needs of a majority crash: s1 restarts
        while every peer is down and refuses visits until three of
        them are back; then it rejoins, and the waiting write commits."""
        harness = KernelHarness(FIVE)
        for host in FIVE:
            harness.crash(host)
        harness.restart("s1")
        harness.submit("s1", 1, "x", "v1", at=1.0)
        harness.restart("s2", at=100.0)
        harness.restart("s3", at=200.0)
        harness.run(until=299.0)
        s1 = harness.replicas["s1"]
        assert s1.catching_up and s1.synced_from == {"s2", "s3"}
        assert harness.statuses() == {}
        harness.restart("s4", at=300.0)
        harness.run(until=310.0)
        for host in ("s1", "s2", "s3", "s4"):
            assert not harness.replicas[host].catching_up, host
            assert harness.replicas[host].recoveries == 1, host
        harness.run(until=10_000.0)
        assert harness.statuses() == {1: "committed"}
        for host in ("s1", "s2", "s3", "s4"):
            assert harness.replicas[host].read("x").value == "v1", host

    def test_a_restart_into_a_bare_majority_waits_for_one_more_host(self):
        """The price of never counting itself (docs/protocol.md §4,
        "Recovery"): with N=3 and s2 down, a restarted s3 hears only
        s1, one reply short, so writes stall although two of three
        hosts are up; once s2 is back, both rejoin and the write
        commits."""
        harness = KernelHarness(HOSTS)
        harness.crash("s2")
        harness.crash("s3")
        harness.restart("s3", at=1.0)
        harness.submit("s1", 1, "x", "v1", at=2.0)
        harness.run(until=1_000.0)
        s3 = harness.replicas["s3"]
        assert s3.catching_up and s3.synced_from == {"s1"}
        assert harness.statuses() == {}
        harness.restart("s2", at=1_000.0)
        harness.run(until=10_000.0)
        for host in ("s2", "s3"):
            assert not harness.replicas[host].catching_up, host
            assert harness.replicas[host].recoveries == 1, host
        assert harness.statuses() == {1: "committed"}
        for host in HOSTS:
            assert harness.replicas[host].read("x").value == "v1", host


#: The shape ROADMAP 2(a) repairs. The lone writer at s1 commits on its
#: visit grants at s1 and s2 (t=1); s2 crashes before the COMMIT it
#: sent itself lands, and restarts at t=3. Its SYNC replies leave s1 and
#: s3 at t=4, but the COMMITs to them (sends 0 and 2) are delayed until
#: t=12. s2 installs two snapshots without the write and rejoins.
GRANTED_THEN_CRASHED = Schedule(
    n_hosts=3,
    submits=(SubmitOp("s1", 1, "x", "v1", at=0.0),),
    ops=(
        CrashOp("s2", at=1.5),
        RestartOp("s2", at=3.0),
        DelayOp(0, 10.0),
        DelayOp(2, 10.0),
    ),
)


@pytest.mark.xfail(strict=True, raises=InvariantViolation, reason=(
    "ROADMAP 2(a): a replica that granted the write and crashed before "
    "its COMMIT catches up from peers that have not applied that COMMIT "
    "yet, and nothing re-pulls, so it ends stale"
))
def test_a_granting_replica_that_misses_the_commit_converges():
    check_schedule(GRANTED_THEN_CRASHED)


class TestEventBudget:
    def test_budget_exhaustion_raises(self):
        harness = KernelHarness(HOSTS)
        harness.submit("s1", 1, "x", "v1", at=0.0)
        with pytest.raises(EventBudgetExceeded) as exc_info:
            harness.run(until=10_000, max_events=3)
        assert exc_info.value.max_events == 3
        assert exc_info.value.pending > 0
        assert "livelock" in str(exc_info.value)

    def test_budget_not_hit_on_normal_run(self):
        harness = KernelHarness(HOSTS)
        harness.submit("s1", 1, "x", "v1", at=0.0)
        harness.run(until=10_000)
        assert harness.statuses() == {1: "committed"}
        assert harness.events_processed > 0

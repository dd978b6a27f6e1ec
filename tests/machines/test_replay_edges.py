"""Script-replay tests of protocol edge cases.

These interleavings are hard (or impossible) to reach deterministically
through either execution backend; because the machines are sans-IO, each
one can be written down as a literal input script and asserted on
exactly — the tentpole payoff of the kernel refactor.

Covered here:

* a server-side grant expiring (TTL) in the middle of a claim round;
* a COMMIT overtaking its own UPDATE on a reordered channel, and the
  agent-side mirror (an ACK straggling in after the round resolved);
* a park-timeout wakeup racing the lock-release notification;
* the paper's M-way identifier tie-break guard ``S + (N − M·S) < ⌈(N+1)/2⌉``;
* complete information with one host down: an empty Locking List the
  agents learned before the crash does not veto the stalemate;
* a duplicated COMMIT landing after its target crashed, resynced and
  rejoined (schedule-DSL expressible since the adversary);
* a partition heal delivering a buffered COMMIT *after* the grant that
  certified it expired on the far side;
* [D3] resting on the ACK quorum alone: a claimer whose tour predates
  the commit it must follow takes its version from the ACKs, and the
  same script with the ACKs' versions stubbed out is convicted;
* forgetting a finished id no stored queue names: it costs an agent one
  hop when a server still queues that id, and nothing else;
* an UPDATE its own COMMIT overtook: answered, but it takes no grant
  for the finished agent, so the next claimer is ACKed there;
* grants on the visit: a lone agent commits with no UPDATE round, a
  grant stays exclusive and a skip needs a vote majority of them (each
  pinned with a mutation the checker convicts), a late RELEASE cannot
  free a grant taken again, and a grant older than the ack timeout
  forces the round;
* the pipelined hand-off: the agent next in line claims behind the
  winner; each replica holds that UPDATE until the winner's COMMIT
  frees the grant and answers it in that step, and holds its COMMIT
  while the winner is still queued. Three mutations are pinned: serving
  over another agent's grant (convicted by ``check_schedule`` on a
  corpus schedule), serving after the claim's RELEASE, and applying a
  COMMIT ahead of its winner's.
"""

import dataclasses
import pathlib

import pytest

from repro.core.machines.identity import AgentId
from repro.core.machines.agent import AgentCoreState, AgentMachine
from repro.core.machines.config import ProtocolTunables
from repro.core.machines.effects import (
    Broadcast,
    CommitApplied,
    Dispose,
    Granted,
    Nacked,
    Send,
)
from repro.core.machines.events import Arrived, MsgReceived
from repro.core.machines.priority import decide
from repro.core.machines.replay import KernelHarness
from repro.core.machines.replica import ReplicaMachine
from repro.core.machines.table import LockingTable
from repro.core.machines.wire import SharedView, UpdatePayload, WriteOp
from repro.core.machines.adversary import (
    CrashOp,
    DelayOp,
    HealOp,
    InvariantViolation,
    PartitionOp,
    RestartOp,
    Schedule,
    SubmitOp,
    check_schedule,
    run_schedule,
)
from repro.core.machines.priority import STALEMATE
from tests.machines.test_harness_faults import RecordingHarness

HOSTS = ["s1", "s2", "s3"]


def update_msg(agent_id, batch_id, epoch, now, writes=(), reply_to="client",
               keys=("x",), behind=None):
    payload = UpdatePayload(
        batch_id=batch_id,
        agent_id=agent_id,
        origin=agent_id.host,
        writes=tuple(writes),
        reply_to=reply_to,
        epoch=epoch,
        keys=keys,
        behind=behind,
    )
    return MsgReceived("UPDATE", payload, now)


def commit_msg(agent_id, batch_id, now, writes, behind=None):
    payload = UpdatePayload(
        batch_id=batch_id,
        agent_id=agent_id,
        origin=agent_id.host,
        writes=tuple(writes),
        epoch=0,
        behind=behind,
    )
    return MsgReceived("COMMIT", payload, now)


class TestGrantTTLExpiryDuringClaim:
    """A claimer that stalls mid-claim must not wedge the server."""

    def setup_method(self):
        self.replica = ReplicaMachine(
            "s1", HOSTS, ProtocolTunables(grant_ttl=50.0)
        )
        self.a = AgentId("s2", 1.0, 0)
        self.b = AgentId("s3", 2.0, 0)

    def test_expired_grant_is_reassigned(self):
        effects = self.replica.on(update_msg(self.a, 1, 1, now=0.0))
        assert isinstance(effects[0], Granted)

        # Within the TTL the grant is exclusive: B is NACKed.
        effects = self.replica.on(update_msg(self.b, 2, 1, now=10.0))
        assert isinstance(effects[0], Nacked)
        assert self.replica.lock("x").holder == self.a

        # Past the TTL, A's (presumably dead) claim no longer blocks B.
        effects = self.replica.on(update_msg(self.b, 2, 1, now=61.0))
        assert isinstance(effects[0], Granted)
        assert self.replica.lock("x").holder == self.b

    def test_stale_release_cannot_evict_the_new_holder(self):
        self.replica.on(update_msg(self.a, 1, 1, now=0.0))
        self.replica.on(update_msg(self.b, 2, 1, now=61.0))
        release = UpdatePayload(
            batch_id=1, agent_id=self.a, origin=self.a.host, epoch=1
        )
        assert self.replica.on(MsgReceived("RELEASE", release, 62.0)) == []
        assert self.replica.lock("x").holder == self.b

    def test_late_commit_after_expiry_still_applies(self):
        # A's round actually *succeeded* elsewhere: its COMMIT must apply
        # even though this server re-granted, and must not evict B.
        self.replica.on(update_msg(self.a, 1, 1, now=0.0))
        self.replica.on(update_msg(self.b, 2, 1, now=61.0))
        writes = (WriteOp(request_id=1, key="x", value="av", version=1),)
        effects = self.replica.on(commit_msg(self.a, 1, 70.0, writes))
        assert any(isinstance(e, CommitApplied) for e in effects)
        assert self.replica.read("x").value == "av"
        assert self.replica.lock("x").holder == self.b


class TestCommitOvertakesAckRound:
    """COMMIT arriving before its UPDATE (or after the round resolved)."""

    def test_commit_without_prior_update_is_self_contained(self):
        replica = ReplicaMachine("s1", HOSTS, ProtocolTunables())
        a = AgentId("s2", 1.0, 0)
        writes = (WriteOp(request_id=7, key="x", value="v", version=1),)
        effects = replica.on(commit_msg(a, 7, 5.0, writes))
        assert any(isinstance(e, CommitApplied) for e in effects)
        assert replica.read("x").value == "v"
        assert a in replica.updated_list

        # The overtaken UPDATE straggles in afterwards. The server still
        # answers; its ACK's version of the named key already includes
        # the commit, which is exactly the [D3] ceiling a later winner
        # needs.
        effects = replica.on(update_msg(a, 7, 1, now=6.0, keys=("x",)))
        ack = effects[1]
        assert ack.kind == "ACK"
        assert ack.payload["versions"] == {"x": 1}

    def test_duplicate_commit_is_idempotent(self):
        replica = ReplicaMachine("s1", HOSTS, ProtocolTunables())
        a = AgentId("s2", 1.0, 0)
        writes = (WriteOp(request_id=7, key="x", value="v", version=1),)
        replica.on(commit_msg(a, 7, 5.0, writes))
        effects = replica.on(commit_msg(a, 7, 6.0, writes))
        assert not any(isinstance(e, CommitApplied) for e in effects)
        assert len(replica.history) == 1
        assert replica.commits_applied == 1

    def test_straggling_update_of_a_finished_agent_takes_no_grant(self):
        """A's UPDATE to s1 (send 2: after the two RELEASEs of the visit
        grants A and B gave back when they met) is delayed to t=5.5,
        past A's COMMIT there (t=5). B claims behind A (sends 5-7), and
        its UPDATE to s1 is delayed to t=6, so that s1 holds none of
        B's when the straggler lands. s1 still answers the straggler,
        but A is in its Updated List, so the grant stays free and B's
        UPDATE (t=6) is ACKed at s1 too."""
        harness = KernelHarness(HOSTS)
        a = harness.submit("s1", 1, "x", "a", at=0.0)
        b = harness.submit("s2", 2, "x", "b", at=0.5, created_seq=1)
        harness.delay_message(2, 2.5)
        harness.delay_message(5, 2.5)
        harness.run(until=5.75)
        s1 = harness.replicas["s1"]
        assert a in s1.updated_list and s1.lock("x").holder is None
        assert s1.lock("x").held_updates == {}
        assert (5.5, "grant", "epoch 2") in harness.agents[a].notes
        harness.run(until=10_000)
        assert harness.commit_chains() == {"x": [(1, "a"), (2, "b")]}
        notes = harness.agents[b].notes
        # s2 and s3 answer B's held UPDATE at A's COMMIT; s1 on arrival
        assert [when for when, kind, _ in notes if kind == "grant"
                and when > 2.5] == [5.0, 5.0, 6.0]
        assert not any(kind == "nack" for _w, kind, _t in notes)
        check_schedule(Schedule(
            n_hosts=3,
            submits=(
                SubmitOp("s1", 1, "x", "a", at=0.0),
                SubmitOp("s2", 2, "x", "b", at=0.5),
            ),
            ops=(DelayOp(2, 2.5), DelayOp(5, 2.5)),
        ))

    def test_agent_ignores_acks_after_round_resolved(self):
        hosts = ["s1", "s2", "s3", "s4", "s5"]
        state = AgentCoreState(
            agent_id=AgentId("s1", 1.0, 0),
            home="s1",
            batch_id=1,
            requests=[(1, "x", "v")],
            location="s1",
        )
        machine = AgentMachine(state, hosts, ProtocolTunables())
        machine.start_claim(now=0.0)

        def ack(host):
            return {"batch_id": 1, "epoch": 1, "from": host, "versions": {}}

        assert machine.on_message("ACK", ack("s1"), now=1.0) == []
        assert machine.on_message("ACK", ack("s2"), now=1.0) == []
        # Third ACK is the majority of five: the round resolves.
        effects = machine.on_message("ACK", ack("s3"), now=1.0)
        assert any(
            isinstance(e, Broadcast) and e.kind == "COMMIT" for e in effects
        )
        assert any(isinstance(e, Dispose) for e in effects)
        # Stragglers from the still-unfinished round change nothing.
        assert machine.on_message("ACK", ack("s4"), now=2.0) == []
        assert machine.on_message("NACK", ack("s5"), now=2.0) == []


class TestParkWakeRacesRelease:
    """A park timeout firing around the release notification must not
    double-wake the agent or duplicate its visit/claim."""

    def run_contended(self):
        harness = KernelHarness(
            HOSTS,
            # Park timeout of exactly two hops: the loser's timer fires in
            # the same window the winner's COMMIT triggers ReleaseNotify.
            tunables=ProtocolTunables(park_timeout=2.0, claim_backoff=1.0),
        )
        harness.submit("s1", 1, "x", "first", at=0.0)
        harness.submit("s2", 2, "x", "second", at=0.0)
        harness.run(until=10_000)
        return harness

    def test_both_agents_commit_exactly_once(self):
        harness = self.run_contended()
        assert harness.statuses() == {1: "committed", 2: "committed"}
        chains = harness.commit_chains()
        assert [v for v, _ in chains["x"]] == [1, 2]
        assert sorted(val for _, val in chains["x"]) == ["first", "second"]

    def test_race_is_deterministic(self):
        first, second = self.run_contended(), self.run_contended()
        assert first.commit_chains() == second.commit_chains()
        assert {
            aid: run.notes for aid, run in first.agents.items()
        } == {aid: run.notes for aid, run in second.agents.items()}


class TestMWayTieBreak:
    """Paper rule 2: M agents tied at S tops each with
    ``S + (N − M·S) < ⌈(N+1)/2⌉`` can never reach a majority — resolve by
    identifier immediately."""

    def three_way_table(self):
        agents = [AgentId(h, 0.0, 0) for h in HOSTS]
        table = LockingTable()
        for host, agent in zip(HOSTS, agents):
            table.update(SharedView(
                host=host, as_of=1.0, view=(agent,),
            ))
        return table, agents

    def test_three_way_split_is_a_paper_stalemate(self):
        # N=3, M=3, S=1: 1 + (3 − 3·1) = 1 < 2.
        table, agents = self.three_way_table()
        decision = decide(table, 3, agents[0])
        assert decision.outcome == STALEMATE
        assert decision.reason == "paper-tie-break"
        assert decision.winner == min(agents)

    def test_every_agent_agrees_on_the_designee(self):
        table, agents = self.three_way_table()
        winners = {decide(table, 3, a).winner for a in agents}
        assert winners == {min(agents)}

    def test_guard_boundary_falls_through_to_complete_info(self):
        # N=5, M=2, S=2: 2 + (5 − 2·2) = 3 >= 3, so rule 2 must NOT fire;
        # with all five views known and non-empty, rule 3 resolves it.
        hosts = ["s1", "s2", "s3", "s4", "s5"]
        a, b, c = (AgentId(h, 0.0, 0) for h in ("s1", "s2", "s3"))
        tops = {"s1": a, "s2": a, "s3": b, "s4": b, "s5": c}
        table = LockingTable()
        for host, top in tops.items():
            table.update(SharedView(
                host=host, as_of=1.0, view=(top,),
            ))
        decision = decide(table, 5, a)
        assert decision.outcome == STALEMATE
        assert decision.reason == "complete-info"
        assert decision.winner == min((a, b))

    def test_harness_resolves_three_way_contention(self):
        harness = KernelHarness(HOSTS)
        ids = [
            harness.submit(host, n, "x", f"v-{host}", at=0.0)
            for n, host in enumerate(HOSTS, start=1)
        ]
        harness.run(until=100_000)
        assert set(harness.statuses().values()) == {"committed"}
        chains = harness.commit_chains()
        assert [v for v, _ in chains["x"]] == [1, 2, 3]
        # The identifier tie-break designates the smallest id: it claims
        # first and therefore takes version 1.
        assert chains["x"][0] == (1, f"v-{min(ids).host}")


class TestDownHostEmptyListDoesNotBlockStalemate:
    """Rule 3 with a minority down. A write before the crash leaves
    s2's empty Locking List in every bulletin; s2 crashes at t=10 and
    three writers on one key are born on s1, s3 and s5 at t=15. Each
    declares s2 unavailable at its first hop there. Their tops split
    over the four live hosts with no majority, and s2's stale empty
    list must not keep the tie open: nobody can join it while s2 is
    down. The harness already declares a failed hop at once, so this
    pins the kernel's half of the change alone."""

    RESTART = 2_000.0

    def schedule(self):
        writers = tuple(
            SubmitOp(home, n, "x", f"v-{home}", at=15.0)
            for n, home in enumerate(("s1", "s3", "s5"), start=2)
        )
        return Schedule(
            n_hosts=5,
            submits=(SubmitOp("s1", 1, "x", "w"),) + writers,
            ops=(CrashOp("s2", at=10.0), RestartOp("s2", at=self.RESTART)),
            horizon=3 * self.RESTART,
        )

    def test_the_writers_commit_while_s2_is_down(self):
        harness, _ids = run_schedule(self.schedule())
        assert set(harness.statuses().values()) == {"committed"}
        history = harness.replicas["s1"].history
        assert [r.value for r in history] == ["w", "v-s1", "v-s3", "v-s5"]
        assert max(r.committed_at for r in history) < self.RESTART
        check_schedule(self.schedule())


class TestDuplicateCommitAfterRestart:
    """A COMMIT whose target crashed, and whose duplicate then lands on
    the restarted (already resynced) replica, must be a no-op.

    Written in the adversary schedule DSL: the single agent commits on
    its visit grants (no UPDATE round), so its COMMIT to ``s3`` is
    global message 2 (the harness send index is deterministic, see
    ``test_harness_faults.RecordingHarness``), sent at t=1. The first
    delivery dies with the crash at t=1.5; the duplicate arrives at
    t=22 against a replica that atomically resynced at t=10.
    """

    def schedule(self):
        from repro.core.machines.adversary import (
            CrashOp,
            DuplicateOp,
            RestartOp,
            Schedule,
            SubmitOp,
        )

        return Schedule(
            n_hosts=3,
            submits=(
                SubmitOp(home="s1", request_id=1, key="x", value="v1"),
            ),
            ops=(
                DuplicateOp(nth=2, extra_delay=20.0),
                CrashOp(host="s3", at=1.5),
                RestartOp(host="s3", at=10.0),
            ),
        )

    def test_duplicate_is_idempotent_against_synced_state(self):
        from repro.core.machines.adversary import check_schedule, run_schedule

        harness, _ids = run_schedule(self.schedule())
        assert harness.statuses() == {1: "committed"}
        replica = harness.replicas["s3"]
        # The value came in through the catch-up; the straggling
        # duplicate COMMIT found version 1 already present and applied
        # nothing.
        assert replica.read("x").value == "v1"
        assert replica.commits_applied == 0
        assert len(replica.history) == 0
        # And the run as a whole upholds both invariants.
        check_schedule(self.schedule())


class TestPartitionHealRacesGrantExpiry:
    """A buffered COMMIT crossing a heal while grants expire.

    Agent A commits x@1 on its visit grants from s1 and s2 at t=1; the
    partition at t=0.5 buffers its COMMIT to ``s3``. B, born on the
    minority side at t=4, takes s3's grant, cannot tour a majority, and
    wins by complete information; its round's UPDATEs to s1 and s2 wait
    for the heal at t=35 (TTL 30: B's grant at s3, renewed at t=7, has
    lapsed before B's COMMIT lands). The heal delivers A's COMMIT to s3
    while B's claim races in behind it — the [D3] version ceiling (B's
    ACK quorum is the committed majority) must serialize B at version 2
    regardless of how the race lands.
    """

    def schedule(self):
        from repro.core.machines.adversary import (
            HealOp,
            PartitionOp,
            Schedule,
            SubmitOp,
        )

        return Schedule(
            n_hosts=3,
            tunables={"grant_ttl": 30.0},
            submits=(
                SubmitOp(home="s1", request_id=1, key="x", value="a"),
                SubmitOp(home="s3", request_id=2, key="x", value="b",
                         at=4.0),
            ),
            ops=(
                PartitionOp(groups=(("s1", "s2"), ("s3",)), at=0.5),
                HealOp(at=35.0),
            ),
        )

    def test_ceiling_serializes_across_the_heal(self):
        from repro.core.machines.adversary import check_schedule, run_schedule

        harness, _ids = run_schedule(self.schedule())
        assert harness.statuses() == {1: "committed", 2: "committed"}
        assert harness.commit_chains() == {"x": [(1, "a"), (2, "b")]}
        # s3 applied A's buffered COMMIT only after the heal, and B's
        # immediately behind it, in ceiling order.
        applied = [
            (r.version, r.value)
            for r in harness.replicas["s3"].history
        ]
        assert applied == [(1, "a"), (2, "b")]
        assert all(
            r.committed_at > 35.0
            for r in harness.replicas["s3"].history
        )
        check_schedule(self.schedule())


class TestAckQuorumCarriesD3:
    """[D3] rests on the claim's ACK quorum alone: no lock view carries
    a committed version, so the ACKs are the winner's only source.

    B is queued first at s2 (t = 0.5), where A meets it at t = 1: each
    gives back the grant its first visit took, so both claims are
    UPDATE rounds. B tours all three servers (t = 0.5 .. 2.5) before
    A's COMMIT lands (t = 5), and at s3 it claims behind A, whose
    majority it sees. A's COMMIT to s1 is delayed past B's round, so
    s1 still queues A and holds B's UPDATE: B's majority is {s2, s3},
    which answered it when they applied ``x@1``. s1 holds B's COMMIT
    too, until A's lands there.
    """

    #: send index of A's COMMIT to s1 (two RELEASEs of visit grants,
    #: A's UPDATE x3, B's UPDATE x3, A's ACK x3, then COMMIT to s1),
    #: delayed past B's round
    COMMIT_TO_S1 = 11

    def schedule(self):
        return Schedule(
            n_hosts=3,
            submits=(
                SubmitOp("s1", 1, "x", "a", at=0.0),
                SubmitOp("s2", 2, "x", "b", at=0.5),
            ),
            ops=(DelayOp(self.COMMIT_TO_S1, 20.0),),
        )

    def test_the_claim_takes_its_version_from_the_acks(self):
        harness, (a, b) = run_schedule(self.schedule())
        first_apply = min(
            when for when, kind, _ in harness.agents[a].notes
            if kind == "apply"
        )
        visits = [
            when for when, kind, _ in harness.agents[b].notes
            if kind == "visit"
        ]
        assert visits == [0.5, 1.5, 2.5]  # the tour, and no other visit
        assert max(visits) < first_apply
        assert harness.commit_chains() == {"x": [(1, "a"), (2, "b")]}
        # Both claims ran an UPDATE round (a claim on visit grants
        # notes "epoch N on visit grants"), B's behind A; nobody NACKed.
        claims = {
            agent: [text for _t, kind, text in harness.agents[agent].notes
                    if kind == "claim"]
            for agent in (a, b)
        }
        assert claims == {a: ["epoch 2"], b: [f"epoch 2 behind {a}"]}
        assert not any(kind == "nack" for agent in (a, b)
                       for _t, kind, _x in harness.agents[agent].notes)
        # s1 applied A's delayed x@1 and then the COMMIT of B it held.
        assert [(c.version, c.request_id, c.committed_at)
                for c in harness.replicas["s1"].history] == [
            (1, 1, 25.0), (2, 2, 25.0),
        ]
        report = harness.audit()
        assert report.gapless and report.divergence_free
        assert report.statuses_match
        check_schedule(self.schedule())

    def test_stubbed_ack_versions_are_convicted(self, monkeypatch):
        # Every ACK, of an UPDATE answered on arrival or held, is built
        # by _ack.
        serve = ReplicaMachine._ack

        def no_versions(self, lock, key, payload, now):
            effects = serve(self, lock, key, payload, now)
            for effect in effects:
                if isinstance(effect, Send) and effect.kind == "ACK":
                    effect.payload["versions"] = {}
            return effects

        monkeypatch.setattr(ReplicaMachine, "_ack", no_versions)
        # B picks x@1 again. Every replica applies A's x@1 first (s1
        # holds B's COMMIT until A's lands), so B's write is refused as
        # stale everywhere: committed, and lost.
        with pytest.raises(
            InvariantViolation,
            match=r"request 2 reported committed but owns no \(key, version\)",
        ):
            check_schedule(self.schedule())


class TestForgottenFinishedIdCostsAHop:
    """The UAL keeps only finished ids some stored queue names — the
    liveness-only price, pinned on adversary campaign schedule 178 at
    seed 0 (the one schedule that moved when the UAL was cut), with its
    send-6 delay moved to send 0: the COMMIT it hit while every claim
    ran an UPDATE round.

    A = ``s1@7.4#3`` commits x@1 first, on its visit grants at s1 and
    s2, but its COMMIT to s1 is delayed (by 24.3). B = ``s3@30.5#0``
    starts at its home s3, whose Updated List names A: no queue B
    stores names A, so B forgets it at the end of that visit. At s1 (t=31.5) A's stale entry still heads
    the queue, so B tops only s3 and tours on to s2 (t=32.5), whose
    Updated List names A again — now kept, since s1's stored queue
    names it — and B wins its majority there. Keeping every finished
    id, B won at s1 one hop earlier. Every request still commits, in the
    same order.
    """

    def schedule(self):
        from repro.core.machines.adversary import CrashOp, RestartOp

        return Schedule(
            n_hosts=3,
            tunables={
                "ack_timeout": 18.3, "claim_backoff": 1.3,
                "grant_ttl": 1271.6, "max_claims": 10, "park_timeout": 7.6,
            },
            submits=(
                SubmitOp("s3", 1, "x", "v1", at=30.5),
                SubmitOp("s3", 2, "x", "v2", at=44.6),
                SubmitOp("s2", 3, "x", "v3", at=156.1),
                SubmitOp("s1", 4, "x", "v4", at=7.4),
                SubmitOp("s3", 5, "x", "v5", at=49.0),
                SubmitOp("s1", 6, "x", "v6", at=136.1),
            ),
            ops=(
                CrashOp("s1", at=133.5),
                RestartOp("s1", at=173.6),
                DelayOp(6, 24.3),
                DelayOp(27, 14.7),
            ),
            horizon=300.0,
        )

    def test_it_is_campaign_schedule_178(self):
        from repro.core.machines.adversary import (
            campaign_rng,
            generate_schedule,
        )

        assert generate_schedule(campaign_rng(0, 178)) == self.schedule()

    def delayed_commit(self):
        """Schedule 178 with its send-6 delay moved to A's COMMIT to s1."""
        ops = tuple(
            DelayOp(0, op.by) if op == DelayOp(6, 24.3) else op
            for op in self.schedule().ops
        )
        assert ops != self.schedule().ops
        return dataclasses.replace(self.schedule(), ops=ops)

    def test_a_stale_head_entry_costs_one_hop(self):
        harness, ids = run_schedule(self.delayed_commit())
        b = ids[0]
        notes = [
            (when, kind, text)
            for when, kind, text in harness.agents[b].notes
            if kind in ("visit", "migrate", "lock-won")
        ]
        assert notes[:6] == [
            (30.5, "visit", "rank 0 of 1"),
            (30.5, "migrate", "-> s1"),
            (31.5, "visit", "rank 1 of 2"),  # behind A's stale entry
            (31.5, "migrate", "-> s2"),
            (32.5, "visit", "rank 0 of 1"),
            (32.5, "lock-won", "majority after 3 visits"),
        ]
        assert harness.statuses() == dict.fromkeys(range(1, 7), "committed")
        assert harness.commit_chains() == {"x": [
            (1, "v4"), (2, "v1"), (3, "v2"), (4, "v5"), (5, "v6"), (6, "v3"),
        ]}
        outcome = check_schedule(self.delayed_commit())
        # A restart is a SYNC round trip: s1 asks both peers and
        # installs both replies.
        assert (outcome.events, outcome.deltas, outcome.fallbacks) == (
            47, 2, 0,
        )


class TestVisitGrants:
    """An agent that met no rival takes the replica's grant on its visit,
    and a vote majority of those grants is its claim: no UPDATE round."""

    def test_a_lone_agent_commits_without_an_update_round(self):
        harness = RecordingHarness(HOSTS)
        agent = harness.submit("s1", 1, "x", "v", at=0.0)
        harness.run(until=10_000)
        assert harness.statuses() == {1: "committed"}
        assert [kind for _i, kind, _s, _d in harness.sends] == ["COMMIT"] * 3
        assert [
            (when, text) for when, kind, text in harness.agents[agent].notes
            if kind in ("grant", "claim")
        ] == [
            (0.0, "epoch 0 on visit"),
            (1.0, "epoch 0 on visit"),
            (1.0, "epoch 1 on visit grants"),
        ]
        check_schedule(Schedule(
            n_hosts=3, submits=(SubmitOp("s1", 1, "x", "v"),),
        ))

    def holder_not_queued(self):
        """B, cut off with s2 from t=10, tours its minority, declares s1
        and s3 down and wins by the complete-information rule; its
        UPDATE round waits out the partition and takes the grants of s1
        and s3, where B never queued. A, born at t=42.5 after s2 crashed,
        finds each of s1 and s3 with A alone in its Locking List — and
        B's grant held, so neither grants A on the visit."""
        return Schedule(
            n_hosts=3,
            submits=(
                SubmitOp("s2", 1, "x", "b", at=20.0),
                SubmitOp("s2", 2, "x", "a", at=42.5),
            ),
            ops=(
                PartitionOp((("s1", "s3"), ("s2",)), at=10.0),
                CrashOp("s2", at=35.0),
                HealOp(at=42.0),
            ),
        )

    def test_a_held_grant_is_not_granted_on_a_visit(self):
        harness, (b, a) = run_schedule(self.holder_not_queued())
        assert [text for _w, kind, text in harness.agents[b].notes
                if kind == "lock-won"] == ["complete-info after 1 visits"]
        assert [text for _w, kind, text in harness.agents[a].notes
                if kind in ("grant", "claim")] == [
            "epoch 1", "epoch 1", "epoch 1",
        ]
        assert harness.commit_chains() == {"x": [(1, "b"), (2, "a")]}
        check_schedule(self.holder_not_queued())

    def test_granting_over_a_held_grant_is_convicted(self, monkeypatch):
        def ignores_the_holder(self, lock, agent_id, now):
            return len(lock.queue) == 1 and agent_id in lock.queue

        monkeypatch.setattr(
            ReplicaMachine, "_grants_on_visit", ignores_the_holder
        )
        with pytest.raises(
            InvariantViolation,
            match=r"request 2 reported committed but owns no",
        ):
            check_schedule(self.holder_not_queued())

    def minority_winner(self):
        """A, cut off alone at s3, takes s3's grant on its visit, declares
        s1 and s2 down and wins by the complete-information rule with one
        visit grant of the two a majority needs; B commits x@1 on the
        majority side."""
        return Schedule(
            n_hosts=3,
            submits=(
                SubmitOp("s3", 1, "x", "a", at=10.0),
                SubmitOp("s2", 2, "x", "b", at=20.0),
            ),
            ops=(PartitionOp((("s1", "s2"), ("s3",)), at=0.0),),
        )

    def test_a_minority_of_visit_grants_runs_the_round(self):
        harness, (a, b) = run_schedule(self.minority_winner())
        claims = [text for _w, kind, text in harness.agents[a].notes
                  if kind == "claim"]
        assert claims[0] == "epoch 1"  # the round, stalled until the heal
        assert harness.commit_chains() == {"x": [(1, "b"), (2, "a")]}
        check_schedule(self.minority_winner())

    def test_skipping_on_a_minority_of_grants_is_convicted(
        self, monkeypatch
    ):
        monkeypatch.setattr(
            AgentMachine, "_grants_suffice",
            lambda self, grants, now: bool(grants),
        )
        with pytest.raises(
            InvariantViolation,
            match=r"two committed winners for round \('x', v1\)",
        ):
            check_schedule(self.minority_winner())

    def test_a_late_release_cannot_free_the_next_visits_grant(self):
        """A gives back the grant s1 took on its visit when it meets a
        rival, and bumps its epoch; its RELEASE is still in flight when A,
        alone again, visits s1 and takes the grant anew. The late RELEASE
        names the old epoch and frees nothing."""
        hosts = ["s1", "s2", "s3", "s4", "s5"]
        tunables = ProtocolTunables()
        s1, s2 = (ReplicaMachine(h, hosts, tunables) for h in ("s1", "s2"))
        a, rival = AgentId("s1", 0.0, 0), AgentId("s2", 0.0, 1)
        state = AgentCoreState(
            agent_id=a, home="s1", batch_id=1, requests=[(1, "x", "v")],
            tour_remaining=set(hosts) - {"s1"}, location="s1",
        )
        machine = AgentMachine(state, hosts, tunables)

        def visit(replica, now):
            data, _effects = replica.begin_visit(
                a, 1, now, acked=state.table.acked_seq(replica.host),
                key="x", grant=machine.asks_grant(), epoch=state.epoch,
            )
            return machine.on_arrived(Arrived(
                host=replica.host, now=now, view=data.view,
                bulletin=data.bulletin, rank=data.rank, ll_len=data.ll_len,
                finished=data.finished, grant=data.grant,
            ))

        visit(s1, 0.0)
        assert (s1.lock("x").holder, s1.lock("x").epoch) == (a, 0)
        assert set(state.visit_grants) == {"s1"}
        s2.begin_visit(rival, 2, 0.5, acked=-1, key="x")
        (release,) = [
            effect for effect in visit(s2, 1.0)
            if isinstance(effect, Send) and effect.kind == "RELEASE"
        ]
        assert (release.dst, release.payload.epoch) == ("s1", 0)
        assert state.visit_grants == {} and state.epoch == 1
        # The rival commits; A learns it at s2 and is alone again.
        s2.on(commit_msg(rival, 2, 2.0, (WriteOp(2, "x", "r", 1),)))
        visit(s2, 3.0)
        assert machine.asks_grant()
        visit(s1, 4.0)
        assert (s1.lock("x").holder, s1.lock("x").epoch) == (a, 1)
        assert set(state.visit_grants) == {"s1"}
        assert s1.on(MsgReceived("RELEASE", release.payload, 5.0)) == []
        assert (s1.lock("x").holder, s1.lock("x").epoch) == (a, 1)

    def old_grant(self, hop):
        """A lone agent whose second visit lands ``hop`` ms after its
        first: s1's grant is then ``hop`` ms old, with ``1000 - hop`` ms
        of its TTL left."""
        return Schedule(
            n_hosts=3, hop_latency=hop,
            tunables={"grant_ttl": 1000.0, "ack_timeout": 100.0},
            submits=(SubmitOp("s1", 1, "x", "v"),),
        )

    @pytest.mark.parametrize("hop,claim", [
        (100.0, "epoch 1 on visit grants"),  # as old as a round's ACK
        (150.0, "epoch 1"),  # older, 850 ms still left: the round
    ])
    def test_a_grant_older_than_ack_timeout_forces_the_round(
        self, hop, claim
    ):
        harness, (agent,) = run_schedule(self.old_grant(hop))
        assert [text for _w, kind, text in harness.agents[agent].notes
                if kind == "claim"] == [claim]
        assert harness.statuses() == {1: "committed"}
        check_schedule(self.old_grant(hop))


class TestPipelinedHandoff:
    """The agent next in line (it wins once the majority winner W is
    done: one step of ``rank_queue``) claims behind W instead of
    parking. A replica holds its UPDATE while W is queued there or
    another agent holds the grant, and answers it at the first COMMIT,
    ABORT or RELEASE step that leaves the grant free with W gone; it
    holds its COMMIT while W is queued there."""

    W = AgentId("s2", 1.0, 0)
    B = AgentId("s3", 2.0, 0)
    C = AgentId("s1", 3.0, 0)

    def replica_behind_w(self):
        """s1 queues W then B; W holds the grant; B's UPDATE behind W
        (epoch 2) is held."""
        replica = ReplicaMachine("s1", HOSTS, ProtocolTunables())
        replica.request_lock(self.W, 1, 0.0, "x")
        replica.request_lock(self.B, 2, 0.5, "x")
        replica.on(update_msg(self.W, 1, 1, now=1.0, keys=("x",)))
        held = replica.on(update_msg(
            self.B, 2, 2, now=1.5, reply_to="s3", keys=("x",), behind=self.W,
        ))
        assert held == [] and list(replica.lock("x").held_updates) == [2]
        assert replica.lock("x").holder == self.W
        return replica

    def w_commits(self, replica, now=2.0):
        return replica.on(commit_msg(
            self.W, 1, now, (WriteOp(request_id=1, key="x", value="w",
                                     version=1),),
        ))

    def test_a_held_update_is_acked_in_the_step_of_the_winners_commit(self):
        replica = self.replica_behind_w()
        effects = self.w_commits(replica)
        applied = next(
            i for i, e in enumerate(effects) if isinstance(e, CommitApplied)
        )
        granted = next(
            i for i, e in enumerate(effects) if isinstance(e, Granted)
        )
        assert applied < granted  # W's write first, then B's grant
        (ack,) = [e for e in effects if isinstance(e, Send)]
        assert (ack.dst, ack.kind) == ("s3", "ACK")
        assert ack.payload["versions"] == {"x": 1}  # W's write
        assert replica.lock("x").holder == self.B
        assert replica.lock("x").held_updates == {}

    def test_on_the_harness_the_claim_behind_commits_with_no_nack(self):
        """A (s1) and B (s2) meet on their first tours. A claims by the
        round at s3 (t=2); B, at s3 half a hop later, sees A's majority,
        tops every server once A is done, and claims behind A instead of
        parking. Each server ACKs B at t=5, in the step that applies A's
        COMMIT, reporting A's ``x@1``; B commits x@2 at t=6."""

        class AckLog(KernelHarness):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.acks = []

            def _deliver_later(self, dst, kind, payload, src):
                if kind == "ACK":
                    self.acks.append((self.now, src, payload["batch_id"],
                                      payload["versions"]))
                super()._deliver_later(dst, kind, payload, src)

        harness = AckLog(HOSTS)
        a = harness.submit("s1", 1, "x", "a", at=0.0)
        b = harness.submit("s2", 2, "x", "b", at=0.5, created_seq=1)
        harness.run(until=10_000)
        assert [ack for ack in harness.acks if ack[2] == 2] == [
            (5.0, host, 2, {"x": 1}) for host in HOSTS
        ]
        assert [(when, kind, text) for when, kind, text
                in harness.agents[b].notes
                if kind in ("claim", "grant", "nack", "park", "commit")] == [
            (0.5, "grant", "epoch 0 on visit"),
            (2.5, "claim", f"epoch 2 behind {a}"),
            (5.0, "grant", "epoch 2"),
            (5.0, "grant", "epoch 2"),
            (5.0, "grant", "epoch 2"),
            (6.0, "commit", "x=v2"),
        ]
        assert harness.commit_chains() == {"x": [(1, "a"), (2, "b")]}
        assert sum(
            i.claim_paths.get("behind", 0)
            for i in harness.interpreters.values()
        ) == 1
        for replica in harness.replicas.values():
            lock = replica.lock("x")
            assert lock.held_updates == {} == lock.held_commits

    def test_a_commit_behind_a_queued_winner_waits_for_it(self):
        replica = self.replica_behind_w()
        b_writes = (WriteOp(request_id=2, key="x", value="b", version=2),)
        assert replica.on(commit_msg(
            self.B, 2, 3.0, b_writes, behind=self.W,
        )) == []
        assert list(replica.lock("x").held_commits) == [2]
        assert replica.lock("x").held_updates == {}  # B's own COMMIT drops it
        effects = self.w_commits(replica, now=4.0)
        assert [(e.agent_id, e.version) for e in effects
                if isinstance(e, CommitApplied)] == [(self.W, 1), (self.B, 2)]
        assert not any(isinstance(e, Granted) for e in effects)
        lock = replica.lock("x")
        assert lock.held_commits == {} and lock.holder is None
        assert [r.version for r in replica.history] == [1, 2]

    # -- mutations ----------------------------------------------------------

    CORPUS = (
        pathlib.Path(__file__).parent / "corpus"
        / "pipelined_update_waits_out_a_held_grant.json"
    )

    def test_an_update_waits_out_another_agents_grant(self):
        """Five hosts, s1 cut off from t=1 to t=41. W (``s3@0.3#2``)
        commits x@1 with s2..s5; its COMMIT to s1 waits for the heal.
        C (``s1@1#1``), alone at s1, wins by complete information and
        takes s1's grant; its UPDATEs wait for the heal too. B
        (``s2@2#0``) claims behind W; s2 and s4 answer it at W's COMMIT
        (t=7.3), its UPDATEs to s3 and s5 are delayed to t=46, and the
        one to s1 lands after the heal (t=42) while C holds s1's grant:
        held. W's COMMIT lands at s1 in the same instant and leaves C's
        grant in place, so s1 answers B only after C's COMMIT (t=44),
        with C's x@2: B commits x@3."""
        schedule = Schedule.load(str(self.CORPUS))
        harness, (b, c, w) = run_schedule(schedule)
        assert [text for _t, kind, text in harness.agents[b].notes
                if kind == "claim"] == [f"epoch 2 behind {w}"]
        assert [text for _t, kind, text in harness.agents[c].notes
                if kind == "lock-won"] == ["complete-info after 1 visits"]
        assert [when for when, kind, _x in harness.agents[b].notes
                if kind == "grant" and when > 40] == [44.0, 47.0, 47.0]
        assert harness.commit_chains() == {
            "x": [(1, "v3"), (2, "v2"), (3, "v1")],
        }
        check_schedule(schedule)

    def test_serving_over_another_agents_grant_is_convicted(
        self, monkeypatch
    ):
        serve = ReplicaMachine._serve_held

        def as_if_the_grant_were_free(self, lock, key, now):
            holder, lock.holder = lock.holder, None
            try:
                return serve(self, lock, key, now)
            finally:
                if lock.holder is None:
                    lock.holder = holder

        monkeypatch.setattr(
            ReplicaMachine, "_serve_held", as_if_the_grant_were_free
        )
        # s1 ACKs B at W's COMMIT (t=42) over C's grant; B and C both
        # assemble majorities and both pick x@2: C's lands first, B's
        # is refused as stale everywhere.
        with pytest.raises(
            InvariantViolation,
            match=r"request 1 reported committed but owns no",
        ):
            check_schedule(Schedule.load(str(self.CORPUS)))

    def release_then_commit(self):
        """B's held UPDATE, then B's RELEASE of that epoch (its ack timer
        fired), then W's COMMIT, then C's UPDATE."""
        replica = self.replica_behind_w()
        release = UpdatePayload(
            batch_id=2, agent_id=self.B, origin="s3", epoch=2,
        )
        assert replica.on(MsgReceived("RELEASE", release, 1.8)) == []
        on_commit = self.w_commits(replica)
        on_update = replica.on(update_msg(self.C, 3, 1, now=2.5,
                                          keys=("x",)))
        return replica, on_commit, on_update

    def test_the_release_of_its_epoch_drops_a_held_update(self):
        replica, on_commit, on_update = self.release_then_commit()
        assert not any(isinstance(e, Granted) for e in on_commit)
        assert replica.lock("x").held_updates == {}
        assert isinstance(on_update[0], Granted)  # C is ACKed
        assert replica.lock("x").holder == self.C

    def test_serving_after_the_release_of_its_epoch_is_convicted(
        self, monkeypatch
    ):
        def keeps_the_held_update(self, payload, now):
            key = self._key_of[payload.agent_id]
            lock = self.locks[key]
            lock.release(payload.agent_id, up_to_epoch=payload.epoch)
            return self._serve_held(lock, key, now)

        monkeypatch.setattr(
            ReplicaMachine, "_on_release", keeps_the_held_update
        )
        replica, on_commit, on_update = self.release_then_commit()
        # B's abandoned claim takes the grant, and C is refused for it.
        assert any(isinstance(e, Granted) for e in on_commit)
        assert isinstance(on_update[0], Nacked)
        assert replica.lock("x").holder == self.B

    def test_applying_a_commit_ahead_of_its_winner_is_convicted(
        self, monkeypatch
    ):
        """On :class:`TestAckQuorumCarriesD3`'s schedule s1 holds B's
        COMMIT until A's delayed one lands, so every host's history has
        both writes. Applied at once, B's x@2 makes s1 refuse A's x@1 as
        stale, and the audit finds s1's history incomplete (the check
        the DES audits run)."""
        schedule = TestAckQuorumCarriesD3().schedule()
        harness, _ids = run_schedule(schedule)
        assert harness.audit().complete

        def never_held(self, key, payload, now):
            lock = self._open(key)
            lock.held_updates.pop(payload.batch_id, None)
            return self._apply_commit(key, payload, now) + self._serve_held(
                lock, key, now
            )

        monkeypatch.setattr(ReplicaMachine, "_on_commit", never_held)
        harness, _ids = run_schedule(schedule)
        assert harness.audit().findings["complete"] == [
            "s1 missing 1 committed versions (e.g. [('x', 1)])"
        ]

    def test_a_host_that_lost_the_winners_commit_holds_until_it_catches_up(
        self,
    ):
        """The trade-off of in-order apply (docs/protocol.md §4): s1
        never got W's COMMIT, so W stays queued there and s1 holds B's
        COMMIT behind it, while a COMMIT behind nobody still applies.
        The catch-up releases it: s1's peers report W finished, the
        rejoin purges W's entry, and B's writes apply. With no restart,
        W's entry lapsing does (next test)."""
        replica = self.replica_behind_w()
        b_writes = (WriteOp(request_id=2, key="x", value="b", version=2),)
        replica.on(commit_msg(self.B, 2, 3.0, b_writes, behind=self.W))
        other = (WriteOp(request_id=3, key="y", value="c", version=1),)
        replica.on(commit_msg(self.C, 3, 4.0, other))
        assert [(r.key, r.version) for r in replica.history] == [("y", 1)]
        assert list(replica.lock("x").held_commits) == [2]

        peers = {host: ReplicaMachine(host, HOSTS, ProtocolTunables())
                 for host in ("s2", "s3")}
        for peer in peers.values():
            self.w_commits(peer, now=2.0)
        assert len(replica.restarted(5.0)) == 2  # a SYNC_REQUEST to each
        effects = []
        for host, peer in peers.items():
            (reply,) = peer.on(MsgReceived("SYNC_REQUEST", {}, 6.0, src="s1"))
            effects += replica.on(MsgReceived(
                "SYNC_REPLY", reply.payload, 7.0, src=host,
            ))
        assert [(e.agent_id, e.version) for e in effects
                if isinstance(e, CommitApplied)] == [(self.B, 2)]
        assert replica.lock("x").held_commits == {}
        assert self.W not in replica.lock("x").queue
        assert replica.read("x").value == "b"

    def test_with_no_restart_the_held_commit_applies_once_w_lapses(self):
        """s1 last heard from W at t=1 (its UPDATE). Its entry lapses at
        the first visit, UPDATE or COMMIT more than one lease later, and
        B's held COMMIT applies in that step; until then it is held."""
        replica = self.replica_behind_w()
        b_writes = (WriteOp(request_id=2, key="x", value="b", version=2),)
        replica.on(commit_msg(self.B, 2, 3.0, b_writes, behind=self.W))
        lease = replica.updated_list.retention
        _data, effects = replica.begin_visit(self.C, 3, 1.0 + lease,
                                             acked=-1, key="x")
        assert list(replica.lock("x").held_commits) == [2] and replica.evicted == 0
        _data, effects = replica.begin_visit(self.C, 3, 1.2 + lease,
                                             acked=-1, key="x")
        assert [(e.agent_id, e.version) for e in effects
                if isinstance(e, CommitApplied)] == [(self.B, 2)]
        assert replica.lock("x").held_commits == {} and replica.evicted == 1
        assert replica.lock("x").queue.view() == (self.C,)
        assert replica.read("x").value == "b"


class TestOneLockPerKey:
    """Each key has its own Locking List and grant at every replica
    (docs/protocol.md §2, "One lock per key"): writers of different keys
    never wait for each other, writers of one key serialise as they
    always did, and a release wakes only the agents parked on its key."""

    def race(self, first, second):
        """A writes ``first`` from s1 at t=0, B writes ``second`` from
        s2 half a hop later: they cross on their first tours."""
        harness = KernelHarness(HOSTS)
        a = harness.submit("s1", 1, first, "a", at=0.0)
        b = harness.submit("s2", 2, second, "b", at=0.5, created_seq=1)
        harness.run(until=10_000)
        return harness, a, [
            [(when, kind, text) for when, kind, text
             in harness.agents[agent].notes
             if kind in ("claim", "park", "nack", "commit")]
            for agent in (a, b)
        ]

    def test_writers_of_two_keys_commit_on_their_first_tours(self):
        """Each is alone in its key's lists, takes its grants on its
        visits and commits on them, without an UPDATE round and without
        waiting for the other's COMMIT. (With one lock for both keys, B
        claimed behind A and committed at t=6, after A's COMMIT.)"""
        harness, _a, (a, b) = self.race("x", "y")
        assert a == [(1.0, "claim", "epoch 1 on visit grants"),
                     (1.0, "commit", "x=v1")]
        assert b == [(1.5, "claim", "epoch 1 on visit grants"),
                     (1.5, "commit", "y=v1")]
        assert harness.commit_chains() == {"x": [(1, "a")], "y": [(1, "b")]}

    def test_writers_of_one_key_serialise_as_before(self):
        harness, first, (a, b) = self.race("x", "x")
        assert a == [(2.0, "claim", "epoch 2"), (4.0, "commit", "x=v1")]
        assert b == [(2.5, "claim", f"epoch 2 behind {first}"),
                     (6.0, "commit", "x=v2")]
        assert harness.commit_chains() == {"x": [(1, "a"), (2, "b")]}

    def test_a_release_on_y_wakes_no_agent_parked_on_x(self):
        """Three writers of x split s1..s3; the tie-break crowns the
        first and the other two park at t=2. A writer of y, born at
        t=2.5, commits on its visit grants at t=3.5, and every replica
        applies it at t=4.5: the agents parked on x sleep on, and wake
        at t=5, when x's winner's COMMIT lands."""
        harness = KernelHarness(HOSTS)
        xs = [harness.submit(home, n, "x", f"x{n}", at=0.0, created_seq=n)
              for n, home in enumerate(HOSTS, start=1)]
        y = harness.submit("s3", 9, "y", "y", at=2.5, created_seq=9)
        harness.run(until=4.75)
        assert all(
            replica.version_of("y") == 1
            for replica in harness.replicas.values()
        )
        parked = {
            agent for interpreter in harness.interpreters.values()
            for agent in interpreter.parked.get("x", ())
        }
        assert parked == set(xs[1:])
        assert not any(interpreter.parked.get("y")
                       for interpreter in harness.interpreters.values())
        harness.run(until=10_000)
        for agent in xs[1:]:
            notes = harness.agents[agent].notes
            assert [when for when, kind, _text in notes
                    if kind in ("park", "wake")] == [2.0, 5.0]
        assert [text for _when, kind, text in harness.agents[y].notes
                if kind == "commit"] == ["y=v1"]
        assert harness.commit_chains() == {
            "x": [(1, "x1"), (2, "x2"), (3, "x3")], "y": [(1, "y")],
        }

    def two_keys_and_a_held_grant(self):
        """:meth:`TestVisitGrants.holder_not_queued` (B holds the grants
        of x at s1 and s3, where A, writing x, then visits alone), with
        a writer of y that commits first."""
        schedule = TestVisitGrants().holder_not_queued()
        return dataclasses.replace(
            schedule,
            submits=(SubmitOp("s1", 3, "y", "c", at=0.0),) + schedule.submits,
        )

    def test_the_script_holds(self):
        harness, _ids = run_schedule(self.two_keys_and_a_held_grant())
        assert harness.commit_chains() == {
            "x": [(1, "b"), (2, "a")], "y": [(1, "c")],
        }
        check_schedule(self.two_keys_and_a_held_grant())

    def test_granting_on_the_grant_of_another_key_is_convicted(
        self, monkeypatch
    ):
        def reads_the_grant_of_y(self, lock, agent_id, now):
            other = self.lock("y")
            return (
                len(lock.queue) == 1 and agent_id in lock.queue
                and (agent_id == other.holder or other.is_free(now))
            )

        monkeypatch.setattr(
            ReplicaMachine, "_grants_on_visit", reads_the_grant_of_y
        )
        # A is granted x on its visits over B's grant of x, and both
        # claim x@1: B's lands first, A's is refused as stale.
        with pytest.raises(
            InvariantViolation,
            match=r"request 2 reported committed but owns no",
        ):
            check_schedule(self.two_keys_and_a_held_grant())

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
  forces the round.
"""

import dataclasses

import pytest

from repro.core.machines.identity import AgentId
from repro.core.machines import (
    AgentCoreState,
    AgentMachine,
    Arrived,
    Broadcast,
    CommitApplied,
    Dispose,
    Granted,
    KernelHarness,
    LockingTable,
    MsgReceived,
    Nacked,
    ProtocolTunables,
    ReplicaMachine,
    Send,
    SharedView,
    UpdatePayload,
    WriteOp,
    decide,
)
from repro.core.machines.adversary import (
    CrashOp,
    DelayOp,
    HealOp,
    InvariantViolation,
    PartitionOp,
    Schedule,
    SubmitOp,
    check_schedule,
    run_schedule,
)
from repro.core.machines.priority import STALEMATE
from tests.machines.test_harness_faults import RecordingHarness

HOSTS = ["s1", "s2", "s3"]


def update_msg(agent_id, batch_id, epoch, now, writes=(), reply_to="client",
               keys=None):
    payload = UpdatePayload(
        batch_id=batch_id,
        agent_id=agent_id,
        origin=agent_id.host,
        writes=tuple(writes),
        reply_to=reply_to,
        epoch=epoch,
        keys=keys,
    )
    return MsgReceived("UPDATE", payload, now)


def commit_msg(agent_id, batch_id, now, writes):
    payload = UpdatePayload(
        batch_id=batch_id,
        agent_id=agent_id,
        origin=agent_id.host,
        writes=tuple(writes),
        epoch=0,
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
        assert self.replica.grant_holder == self.a

        # Past the TTL, A's (presumably dead) claim no longer blocks B.
        effects = self.replica.on(update_msg(self.b, 2, 1, now=61.0))
        assert isinstance(effects[0], Granted)
        assert self.replica.grant_holder == self.b

    def test_stale_release_cannot_evict_the_new_holder(self):
        self.replica.on(update_msg(self.a, 1, 1, now=0.0))
        self.replica.on(update_msg(self.b, 2, 1, now=61.0))
        release = UpdatePayload(
            batch_id=1, agent_id=self.a, origin=self.a.host, epoch=1
        )
        assert self.replica.on(MsgReceived("RELEASE", release, 62.0)) == []
        assert self.replica.grant_holder == self.b

    def test_late_commit_after_expiry_still_applies(self):
        # A's round actually *succeeded* elsewhere: its COMMIT must apply
        # even though this server re-granted, and must not evict B.
        self.replica.on(update_msg(self.a, 1, 1, now=0.0))
        self.replica.on(update_msg(self.b, 2, 1, now=61.0))
        writes = (WriteOp(request_id=1, key="x", value="av", version=1),)
        effects = self.replica.on(commit_msg(self.a, 1, 70.0, writes))
        assert any(isinstance(e, CommitApplied) for e in effects)
        assert self.replica.read("x").value == "av"
        assert self.replica.grant_holder == self.b


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
        past A's COMMIT there (t=5). s1 still answers it, but A is in
        its Updated List, so the grant stays free and B's UPDATE (t=6)
        is ACKed at s1 too."""
        harness = KernelHarness(HOSTS)
        a = harness.submit("s1", 1, "x", "a", at=0.0)
        b = harness.submit("s2", 2, "x", "b", at=0.5, created_seq=1)
        harness.delay_message(2, 2.5)
        harness.run(until=5.75)
        s1 = harness.replicas["s1"]
        assert a in s1.updated_list and s1.grant_holder is None
        assert (5.5, "grant", "epoch 2") in harness.agents[a].notes
        harness.run(until=10_000)
        assert harness.commit_chains() == {"x": [(1, "a"), (2, "b")]}
        notes = harness.agents[b].notes
        assert [when for when, kind, _ in notes if kind == "grant"
                and when > 5] == [6.0, 6.0, 6.0]
        assert not any(kind == "nack" for _w, kind, _t in notes)
        check_schedule(Schedule(
            n_hosts=3,
            submits=(
                SubmitOp("s1", 1, "x", "a", at=0.0),
                SubmitOp("s2", 2, "x", "b", at=0.5),
            ),
            ops=(DelayOp(2, 2.5),),
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
        from repro.core.machines import (
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
        from repro.core.machines import check_schedule, run_schedule

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
        from repro.core.machines import (
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
        from repro.core.machines import check_schedule, run_schedule

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
    A's COMMIT lands (t = 5), parks at s3, and claims when that COMMIT
    wakes it. A's COMMIT to s1 is delayed past B's round, so s1 still
    holds A's grant and NACKs B: B's majority is {s2, s3}, both of
    which applied ``x@1``.
    """

    #: send index of A's COMMIT to s1 (two RELEASEs of visit grants,
    #: UPDATE x3, ACK x3, then COMMIT to s1), delayed past B's round
    COMMIT_TO_S1 = 8

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
        assert visits[:3] == [0.5, 1.5, 2.5]  # the tour
        assert max(visits[:3]) < first_apply
        assert harness.commit_chains() == {"x": [(1, "a"), (2, "b")]}
        # Both claims ran the UPDATE round (a claim on visit grants
        # notes "epoch N on visit grants"), and s1 NACKed B's.
        for agent in (a, b):
            assert [text for _t, kind, text in harness.agents[agent].notes
                    if kind == "claim"] == ["epoch 2"]
        assert [text for _t, kind, text in harness.agents[b].notes
                if kind == "nack"] == [f"held by {a}"]
        # s1 took B's x@2 before A's delayed x@1, which it then refused
        # as stale; the chain over all hosts is still gapless.
        assert [(c.version, c.request_id)
                for c in harness.replicas["s1"].history] == [(2, 2)]
        report = harness.audit()
        assert report.gapless and report.divergence_free
        assert report.statuses_match
        check_schedule(self.schedule())

    def test_stubbed_ack_versions_are_convicted(self, monkeypatch):
        serve = ReplicaMachine._on_update

        def no_versions(self, payload, now):
            effects = serve(self, payload, now)
            for effect in effects:
                if isinstance(effect, Send) and effect.kind == "ACK":
                    effect.payload["versions"] = {}
            return effects

        monkeypatch.setattr(ReplicaMachine, "_on_update", no_versions)
        with pytest.raises(
            InvariantViolation,
            match=r"two committed winners for round \('x', v1\)",
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
        from repro.core.machines import CrashOp, RestartOp

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
        def ignores_the_holder(self, agent_id, now):
            return (
                len(self.locking_list) == 1 and agent_id in self.locking_list
            )

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
                keys=machine.grant_keys(), epoch=state.epoch,
            )
            return machine.on_arrived(Arrived(
                host=replica.host, now=now, view=data.view,
                bulletin=data.bulletin, rank=data.rank, ll_len=data.ll_len,
                finished=data.finished, grant=data.grant,
            ))

        visit(s1, 0.0)
        assert (s1.grant_holder, s1.grant_epoch) == (a, 0)
        assert set(state.visit_grants) == {"s1"}
        s2.begin_visit(rival, 2, 0.5, acked=-1)
        (release,) = [
            effect for effect in visit(s2, 1.0)
            if isinstance(effect, Send) and effect.kind == "RELEASE"
        ]
        assert (release.dst, release.payload.epoch) == ("s1", 0)
        assert state.visit_grants == {} and state.epoch == 1
        # The rival commits; A learns it at s2 and is alone again.
        s2.on(commit_msg(rival, 2, 2.0, (WriteOp(2, "y", "r", 1),)))
        visit(s2, 3.0)
        assert machine.grant_keys() == ("x",)
        visit(s1, 4.0)
        assert (s1.grant_holder, s1.grant_epoch) == (a, 1)
        assert set(state.visit_grants) == {"s1"}
        assert s1.on(MsgReceived("RELEASE", release.payload, 5.0)) == []
        assert (s1.grant_holder, s1.grant_epoch) == (a, 1)

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

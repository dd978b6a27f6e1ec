"""Unit tests for the harness's fault-injection primitives.

The schedule adversary leans on these behaviors being exact; each one
is pinned here in isolation: partitions buffer (never lose) messages
until heal, drop directives only touch retryable kinds, duplicates and
delays act on the deterministic send index, killed agents vanish but
leave their lock entries behind, atomic restarts resync before the
replica answers anything, and a livelocked run raises instead of
silently passing.
"""

import pytest

from repro.core.machines.identity import AgentId
from repro.core.machines import (
    DROPPABLE_KINDS,
    EventBudgetExceeded,
    KernelHarness,
    ProtocolTunables,
)

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
        assert victim in harness.replicas["s1"].locking_list
        harness.run(until=10_000)
        # Nobody commits on the dead agent's behalf.
        assert harness.statuses() == {}
        assert harness.commit_chains() == {}

    def test_killed_rival_wedges_survivor_behind_phantom_entry(self):
        # The victim dies mid-claim. Grant TTLs free the *grants*, but
        # the victim's LockingList entries stay, so a later agent keeps
        # ranking behind a phantom and parks forever. This is the real
        # protocol behaviour — the paper delegates agent fault
        # tolerance to the platform — and exactly why the adversary
        # exempts kill schedules from the liveness check while still
        # holding them to safety.
        # Hops (10 ms) outlast the ack timeout (5 ms): the grant the
        # victim took on its first visit is too old to skip the round
        # when it wins at s2, so it claims by UPDATE.
        harness = KernelHarness(
            HOSTS, tunables=ProtocolTunables(grant_ttl=50.0, ack_timeout=5.0),
            hop_latency=10.0,
        )
        victim = harness.submit("s1", 1, "x", "dead", at=0.0)
        # t=11: the UPDATE round is under way and every replica holds a
        # grant for the victim; the COMMIT broadcast would fire at t=12.
        harness.run(until=11.5)
        harness.kill(victim)
        survivor = harness.submit("s2", 2, "x", "alive", at=20.0)
        harness.run(until=100_000)
        # Wedged, not diverged: no resolution, but nothing committed
        # under the dead agent's name either.
        assert harness.statuses() == {}
        assert harness.commit_chains() == {}
        assert harness.agents[survivor].status is None

    def test_kill_unknown_agent_is_a_noop(self):
        harness = KernelHarness(HOSTS)
        harness.kill(AgentId("s9", 0.0, 42))
        assert harness.killed == set()


class TestAtomicRestart:
    def test_atomic_restart_resyncs_before_answering(self):
        harness = KernelHarness(HOSTS)
        harness.submit("s1", 1, "x", "v1", at=0.0)
        harness.crash("s3", at=0.5)
        harness.run(until=5_000)
        assert harness.statuses() == {1: "committed"}
        assert len(harness.replicas["s3"].history) == 0
        harness.restart("s3", atomic=True)
        # No further events needed: the resync happened synchronously.
        # The store and updated-list transfer; the history log is each
        # replica's own append-only record (commit-chain completeness
        # comes from the union over live replicas).
        assert harness.replicas["s3"].read("x").value == "v1"
        assert len(harness.replicas["s3"].history) == 0

    def test_atomic_restart_without_live_peer_keeps_durable_state(self):
        harness = KernelHarness(HOSTS)
        for host in HOSTS:
            harness.crash(host)
        harness.restart("s1", atomic=True)
        assert "s1" not in harness.down
        assert len(harness.replicas["s1"].history) == 0


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

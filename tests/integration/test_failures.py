"""Failure-injection integration tests: crashes, recovery, link faults."""

import pytest

from repro.analysis.consistency import audit
from repro.replication.protocol import MARP
from repro.net.faults import CrashSchedule, FaultPlan, TransientLinkFaults
from repro.replication.client import attach_clients
from repro.replication.deployment import Deployment
from repro.replication.protocol import ReplicationProtocol
from repro.workload.arrivals import ExponentialArrivals
from repro.workload.mix import OperationMix


class TestCrashRecovery:
    def test_minority_crash_during_workload(self):
        faults = FaultPlan(
            crashes=CrashSchedule().add("s4", 100, 3_000).add("s5", 200, 2_000)
        )
        dep = Deployment(n_replicas=5, seed=31, faults=faults)
        marp = MARP(dep)
        attach_clients(
            marp, ExponentialArrivals(80.0), OperationMix(1.0),
            max_requests_per_client=8,
        )
        dep.run(until=5_000_000)
        committed = [r for r in marp.records if r.status == "committed"]
        assert len(committed) == 40  # all eventually commit
        report = audit(dep)
        assert report.consistent  # recovery sync restored the crashed pair

    def test_repeated_crash_windows(self):
        crashes = CrashSchedule()
        crashes.add("s3", 100, 600)
        crashes.add("s3", 1_500, 2_000)
        dep = Deployment(n_replicas=3, seed=32,
                         faults=FaultPlan(crashes=crashes))
        marp = MARP(dep)
        attach_clients(
            marp, ExponentialArrivals(150.0), OperationMix(1.0),
            max_requests_per_client=6,
        )
        dep.run(until=5_000_000)
        assert marp.open_requests() == 0
        assert dep.server("s3").recoveries == 2
        assert audit(dep).consistent

    @pytest.mark.parametrize("late", [False, True])
    def test_a_crashed_host_does_no_exchange(self, late):
        """A lone writer reaches s2 and would commit on its two visit
        grants when its exchange there ends (2 ms later). s2 crashes in
        between: the exchange yields ReplicaDown, so the agent cannot
        commit from a host whose COMMIT the network would drop. It
        commits after the crash window, and every replica applies it —
        also when the window joins the fault plan after the deployment
        was built (``late``)."""

        def run(window=None):
            crashes = CrashSchedule()
            if window is not None and not late:
                crashes.add(*window)
            dep = Deployment(
                n_replicas=3, seed=5, faults=FaultPlan(crashes=crashes)
            )
            if window is not None and late:
                crashes.add(*window)
            marp = MARP(dep)
            record = marp.submit_write("s1", "x", 1)
            agent = marp.agents[0]
            dep.run(until=1_000_000)
            return dep, record, agent

        _dep, probe, agent = run()
        (_t0, home), (arrived, host) = agent.travel_log
        assert (home, host) == ("s1", "s2")
        assert probe.completed_at == arrived + 2.0
        dep, record, agent = run((host, arrived + 1.0, arrived + 500.0))
        assert record.status == "committed"
        assert record.completed_at > arrived + 500.0
        report = audit(dep)
        assert report.consistent and report.complete
        assert all(len(dep.server(h).history) == 1 for h in dep.hosts)

    def test_agent_declares_crashed_replica_unavailable(self):
        faults = FaultPlan(
            crashes=CrashSchedule().add("s2", 0, 1_000_000)
        )
        dep = Deployment(n_replicas=3, seed=33, faults=faults)
        marp = MARP(dep)
        record = marp.submit_write("s1", "x", 1)
        dep.run(until=1_000_000)
        # With s2 down, the agent needs s1 + s3 = the full live majority.
        assert record.status == "committed"
        assert dep.server("s1").migrations_failed > 0


class TestLinkFaults:
    def test_lossy_links_do_not_break_consistency(self):
        faults = FaultPlan(links=TransientLinkFaults(drop_probability=0.05))
        dep = Deployment(n_replicas=5, seed=36, faults=faults)
        marp = MARP(dep)
        attach_clients(
            marp, ExponentialArrivals(120.0), OperationMix(1.0),
            max_requests_per_client=5,
        )
        dep.run(until=10_000_000)
        committed = [r for r in marp.records if r.status == "committed"]
        assert len(committed) >= 20  # most commit despite drops
        report = audit(dep)
        assert report.divergence_free
        assert report.monotone

    def test_a_commit_lost_to_link_loss_is_sent_again(self):
        """COMMIT rides the reliable channel: a transmission the link
        loses is retransmitted, so every replica applies every commit
        (the protocol has no timer that would resend it)."""
        faults = FaultPlan(links=TransientLinkFaults(drop_probability=0.05))
        dep = Deployment(n_replicas=5, seed=36, faults=faults)
        marp = MARP(dep)
        attach_clients(
            marp, ExponentialArrivals(120.0), OperationMix(1.0),
            max_requests_per_client=5,
        )
        dep.run(until=10_000_000)
        assert dep.network.stats.dropped[("control", "COMMIT")] > 0
        report = audit(dep)
        assert report.consistent and report.complete

    def test_temporary_link_outage_heals(self):
        links = TransientLinkFaults().add_outage("s1", "s2", 0, 500)
        dep = Deployment(n_replicas=3, seed=35,
                         faults=FaultPlan(links=links))
        marp = MARP(dep)
        record = marp.submit_write("s1", "x", 1)
        dep.run(until=1_000_000)
        assert record.status == "committed"
        assert audit(dep).consistent


class TestBaselineFailures:
    def test_mcv_commits_with_minority_down(self):
        faults = FaultPlan(
            crashes=CrashSchedule().add("s5", 0, 10_000_000)
        )
        dep = Deployment(n_replicas=5, seed=36, faults=faults)
        mcv = ReplicationProtocol(dep, "mcv")
        record = mcv.submit_write("s1", "x", 1)
        dep.run(until=10_000_000)
        assert record.status == "committed"

    def test_marp_stalls_without_majority_then_recovers(self):
        # 3 of 5 replicas down: no majority can be locked. After they
        # recover, the pending agent finishes.
        crashes = CrashSchedule()
        for host in ("s3", "s4", "s5"):
            crashes.add(host, 0, 20_000)
        dep = Deployment(n_replicas=5, seed=37,
                         faults=FaultPlan(crashes=crashes))
        marp = MARP(dep)
        record = marp.submit_write("s1", "x", 1)
        dep.run(until=15_000)
        assert record.status == "pending"  # stalled, as it must be
        dep.run(until=5_000_000)
        assert record.status == "committed"
        assert record.completed_at > 20_000

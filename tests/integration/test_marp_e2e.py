"""End-to-end MARP integration tests over full workloads."""

import pytest

from repro.analysis.consistency import assert_consistent, audit
from repro.analysis.metrics import alt, att, prk
from repro.replication.protocol import MARP
from repro.net.latency import wan_profile
from repro.replication.client import attach_clients
from repro.replication.deployment import Deployment
from repro.workload.arrivals import ExponentialArrivals
from repro.workload.mix import OperationMix


def run_workload(dep, marp, mean_gap=60.0, per_client=10,
                 write_fraction=1.0, keys=None, horizon=2_000_000):
    attach_clients(
        marp,
        ExponentialArrivals(mean_gap),
        OperationMix(write_fraction=write_fraction, keys=keys),
        max_requests_per_client=per_client,
    )
    dep.run(until=horizon)


class TestFullWorkloads:
    def test_update_only_workload_commits_consistently(self):
        dep = Deployment(n_replicas=5, seed=11)
        marp = MARP(dep)
        run_workload(dep, marp, mean_gap=40.0, per_client=12)
        assert marp.open_requests() == 0
        assert len(marp.completed_writes()) == 60
        report = assert_consistent(dep)
        assert report.complete
        assert report.total_commits == 60

    def test_mixed_read_write_workload(self):
        dep = Deployment(n_replicas=5, seed=12)
        marp = MARP(dep)
        run_workload(dep, marp, per_client=20, write_fraction=0.3)
        reads = [r for r in marp.records if r.op == "read"]
        assert reads, "expected some reads in a 30% write mix"
        assert all(r.status == "read-done" for r in reads)
        assert_consistent(dep)

    def test_multi_key_workload(self):
        dep = Deployment(n_replicas=5, seed=13)
        marp = MARP(dep)
        run_workload(dep, marp, per_client=10, keys=["a", "b", "c"])
        report = assert_consistent(dep)
        assert report.complete
        keys_written = set(dep.server("s1").store.keys())
        assert keys_written <= {"a", "b", "c"}
        assert len(keys_written) >= 2

    def test_wan_latency_profile(self):
        dep = Deployment(n_replicas=3, seed=14, latency=wan_profile())
        marp = MARP(dep)
        run_workload(dep, marp, mean_gap=400.0, per_client=5)
        assert marp.open_requests() == 0
        assert_consistent(dep)
        # WAN hops are tens of ms; ALT must reflect at least 2 visits.
        assert alt(marp.records) > 40.0

    def test_random_cost_topology_with_cost_sorted_itinerary(self):
        from repro.net.topology import Topology
        from repro.sim.rng import RandomStreams

        streams = RandomStreams(77)
        topo = Topology.random_costs(
            ["s1", "s2", "s3", "s4", "s5"], streams.stream("topo"),
            low=0.5, high=3.0,
        )
        dep = Deployment(seed=15, topology=topo)
        marp = MARP(dep)
        run_workload(dep, marp, per_client=6)
        assert marp.open_requests() == 0
        assert_consistent(dep)

    def test_metrics_internally_coherent(self):
        dep = Deployment(n_replicas=5, seed=16)
        marp = MARP(dep)
        run_workload(dep, marp, mean_gap=30.0, per_client=10)
        records = marp.records
        assert att(records) >= alt(records)
        fractions = prk(records, 5)
        assert abs(sum(fractions.values()) - 1.0) < 1e-9

    def test_even_replica_count(self):
        dep = Deployment(n_replicas=4, seed=17)
        marp = MARP(dep)
        run_workload(dep, marp, per_client=8)
        assert marp.open_requests() == 0
        # majority of 4 is 3
        for record in marp.completed_writes():
            assert record.visits_to_lock >= 3
        assert_consistent(dep)

    def test_deterministic_given_seed(self):
        def run(seed):
            dep = Deployment(n_replicas=3, seed=seed)
            marp = MARP(dep)
            run_workload(dep, marp, per_client=6)
            # request ids come from a process-global counter, so compare
            # the behaviourally meaningful fields only
            return [
                (r.home, r.status, r.created_at, r.completed_at,
                 r.visits_to_lock)
                for r in marp.records
            ]

        assert run(99) == run(99)
        assert run(99) != run(100)

    def test_two_replicas_degenerate_cluster(self):
        # N=2: majority is 2 -> every update needs both replicas.
        dep = Deployment(n_replicas=2, seed=18)
        marp = MARP(dep)
        record = marp.submit_write("s1", "x", 1)
        dep.run(until=100_000)
        assert record.status == "committed"
        assert record.visits_to_lock == 2

    def test_single_replica_trivial_cluster(self):
        dep = Deployment(n_replicas=1, seed=19)
        marp = MARP(dep)
        record = marp.submit_write("s1", "x", 1)
        dep.run(until=100_000)
        assert record.status == "committed"
        assert record.visits_to_lock == 1


class TestItineraryVariants:
    @pytest.mark.parametrize(
        "strategy",
        ["cost-sorted", "initial-cost-order", "static-order", "random-order"],
    )
    def test_all_itineraries_commit_consistently(self, strategy):
        dep = Deployment(n_replicas=5, seed=21)
        marp = MARP(dep, itinerary=strategy)
        run_workload(dep, marp, per_client=5)
        assert marp.open_requests() == 0
        assert_consistent(dep)


class TestBulletinAblation:
    def test_disabled_bulletin_still_consistent(self):
        from repro.replication.server import ReplicaConfig

        dep = Deployment(
            n_replicas=5, seed=22,
            replica_config=ReplicaConfig(enable_bulletin=False),
        )
        marp = MARP(dep)
        run_workload(dep, marp, mean_gap=30.0, per_client=8)
        assert marp.open_requests() == 0
        report = audit(dep)
        assert report.consistent

"""Tests for Available Copies and Primary Copy baselines."""

import pytest

from repro.analysis.consistency import audit
from repro.net.faults import CrashSchedule, FaultPlan, TransientLinkFaults
from repro.replication.deployment import Deployment
from repro.replication.protocol import ReplicationProtocol
from repro.replication.server import WriteOp


class TestAvailableCopies:
    def test_single_write_reaches_all(self):
        dep = Deployment(n_replicas=3, seed=0)
        ac = ReplicationProtocol(dep, "available-copies")
        record = ac.submit_write("s1", "x", 1)
        dep.run(until=100_000)
        assert record.status == "committed"
        assert record.extra["available_copies"] == ["s1", "s2", "s3"]
        for host in dep.hosts:
            assert dep.server(host).store.read("x").value == 1

    def test_concurrent_writes_queue_without_livelock(self):
        dep = Deployment(n_replicas=3, seed=0)
        ac = ReplicationProtocol(dep, "available-copies")
        records = [
            ac.submit_write(host, "x", index)
            for index, host in enumerate(dep.hosts)
        ]
        dep.run(until=1_000_000)
        assert all(r.status == "committed" for r in records)
        assert audit(dep).consistent

    def test_skips_crashed_replica(self):
        faults = FaultPlan(crashes=CrashSchedule().add("s3", 0, 1_000_000))
        dep = Deployment(n_replicas=3, seed=0, faults=faults)
        ac = ReplicationProtocol(dep, "available-copies", detection_timeout=50.0)
        record = ac.submit_write("s1", "x", 1)
        dep.run(until=1_000_000)
        assert record.status == "committed"
        assert record.extra["skipped"] == ["s3"]
        assert dep.server("s1").store.read("x").value == 1
        assert dep.server("s3").store.read("x") is None  # left behind

    def test_a_late_grant_of_a_skipped_host_is_not_the_next_rungs(self):
        """s2 and s3 are down: the ladder gives s2 up at its rung's
        deadline and moves on to s3. A GRANT from s2 landing during s3's
        rung is not s3's grant, so s3 is skipped too."""
        crashes = CrashSchedule().add("s2", 0, 1_000_000)
        crashes.add("s3", 0, 1_000_000)
        dep = Deployment(n_replicas=3, seed=0,
                         faults=FaultPlan(crashes=crashes))
        ac = ReplicationProtocol(dep, "available-copies", detection_timeout=50.0)
        record = ac.submit_write("s1", "x", 1)
        endpoint = dep.network.endpoints["s1"]
        grant = {"rid": record.request_id, "epoch": 1, "from": "s2",
                 "votes": 1, "version": 99}
        # s1's rung ends within a few ms; s2's at ~50, s3's at ~100
        dep.env.call_in(
            75, lambda _arg: endpoint.send("s1", "AC_GRANT", grant)
        )
        dep.run(until=1_000_000)
        assert record.status == "committed"
        assert record.extra["skipped"] == ["s2", "s3"]
        assert record.extra["available_copies"] == ["s1"]
        assert dep.server("s1").store.read("x").version == 1

    def test_local_reads(self):
        dep = Deployment(n_replicas=3, seed=0)
        ac = ReplicationProtocol(dep, "available-copies")
        ac.submit_write("s1", "x", "v")
        dep.run(until=100_000)
        record = ac.submit_read("s2", "x")
        dep.run(until=200_000)
        assert record.status == "read-done"
        assert record.value == "v"

    def test_detection_timeout_validation(self):
        dep = Deployment(n_replicas=3, seed=0)
        with pytest.raises(ValueError):
            ReplicationProtocol(dep, "available-copies", detection_timeout=0)

    def test_partition_causes_divergence(self):
        """The AC weakness the paper cites: a partition that cuts one
        coordinator off from a replica lets the replica miss updates the
        rest of the system accepted (no quorum intersection)."""
        links = TransientLinkFaults()
        # s1 cannot reach s3 at all during the run
        links.add_outage("s1", "s3", 0, 10_000_000)
        dep = Deployment(
            n_replicas=3, seed=0, faults=FaultPlan(links=links),
        )
        ac = ReplicationProtocol(dep, "available-copies", detection_timeout=40.0)
        record = ac.submit_write("s1", "x", "partitioned-write")
        dep.run(until=1_000_000)
        assert record.status == "committed"
        assert "s3" in record.extra["skipped"]
        report = audit(dep)
        assert not report.complete  # s3 misses the committed update


class TestPrimaryCopy:
    def test_single_write_commits_everywhere(self):
        dep = Deployment(n_replicas=3, seed=0)
        pc = ReplicationProtocol(dep, "primary-copy")
        record = pc.submit_write("s2", "x", 9)
        dep.run(until=100_000)
        assert record.status == "committed"
        for host in dep.hosts:
            assert dep.server(host).store.read("x").value == 9

    def test_primary_serialises_global_order(self):
        dep = Deployment(n_replicas=3, seed=0)
        pc = ReplicationProtocol(dep, "primary-copy")
        for index, host in enumerate(dep.hosts):
            pc.submit_write(host, "x", index)
        dep.run(until=1_000_000)
        report = audit(dep)
        assert report.consistent
        assert report.identical_histories
        primary = dep.server(pc.row.settings["primary"]).interpreter
        primary = primary.participants["PC_WRITE"]
        assert primary.writes_serialized == 3

    def test_custom_primary(self):
        dep = Deployment(n_replicas=3, seed=0)
        pc = ReplicationProtocol(dep, "primary-copy", primary="s2")
        record = pc.submit_write("s1", "x", 1)
        dep.run(until=100_000)
        assert record.status == "committed"

    def test_unknown_primary_rejected(self):
        dep = Deployment(n_replicas=3, seed=0)
        with pytest.raises(ValueError):
            ReplicationProtocol(dep, "primary-copy", primary="zz")

    def test_crashed_primary_fails_writes(self):
        faults = FaultPlan(crashes=CrashSchedule().add("s1", 0, 1_000_000))
        dep = Deployment(n_replicas=3, seed=0, faults=faults)
        pc = ReplicationProtocol(dep, "primary-copy", write_timeout=200.0)
        record = pc.submit_write("s2", "x", 1)
        dep.run(until=1_000_000)
        assert record.status == "failed"

    def test_local_read(self):
        dep = Deployment(n_replicas=3, seed=0)
        pc = ReplicationProtocol(dep, "primary-copy")
        pc.submit_write("s1", "x", "val")
        dep.run(until=100_000)
        record = pc.submit_read("s3", "x")
        dep.run(until=200_000)
        assert record.status == "read-done"
        assert record.value == "val"

    def test_write_timeout_validation(self):
        dep = Deployment(n_replicas=3, seed=0)
        with pytest.raises(ValueError):
            ReplicationProtocol(dep, "primary-copy", write_timeout=0)


class TestPrimaryCopyLogShipping:
    """The backup's reorder buffer, driven by hand-shipped PC_APPLYs
    (the network is not FIFO, so any arrival order is a legal one)."""

    GAP = 100.0  # ms between shipments, far above LAN latency

    @staticmethod
    def _ship(dep, pc, schedule):
        """``schedule``: [(backup, key, version)] shipped GAP ms apart."""
        origin = pc.row.settings["primary"]
        endpoint = dep.network.endpoints[origin]

        def ship(step):
            rid, (backup, key, version) = step
            write = WriteOp(
                request_id=rid, key=key, value=f"{key}{version}",
                version=version,
            )
            endpoint.send(
                backup, "PC_APPLY",
                payload={"writes": (write,), "origin": origin},
            )

        for index, step in enumerate(enumerate(schedule, 1)):
            dep.env.call_in(TestPrimaryCopyLogShipping.GAP * index, ship, step)

    @staticmethod
    def _chain(dep, host, key):
        return [
            (c.version, c.value)
            for c in dep.server(host).history
            if c.key == key
        ]

    def test_out_of_order_versions_apply_in_order_per_key(self):
        dep = Deployment(n_replicas=3, seed=0)
        pc = ReplicationProtocol(dep, "primary-copy")
        # s2 sees a: 3, 1, 2 with b's version 2 gapped throughout;
        # s3 sees everything in order. b@1 reaches both last.
        self._ship(dep, pc, [
            ("s2", "b", 2), ("s2", "a", 3), ("s2", "a", 1), ("s2", "a", 2),
            ("s3", "a", 1), ("s3", "a", 2), ("s3", "a", 3), ("s3", "b", 2),
        ])
        dep.run(until=8 * self.GAP)
        for host in ("s2", "s3"):
            assert self._chain(dep, host, "a") == [
                (1, "a1"), (2, "a2"), (3, "a3"),
            ]
            # b's gap stays buffered: nothing of b is visible yet
            assert dep.server(host).store.version_of("b") == 0
        self._ship(dep, pc, [("s2", "b", 1), ("s3", "b", 1)])
        dep.run(until=11 * self.GAP)
        for host in ("s2", "s3"):
            assert self._chain(dep, host, "b") == [(1, "b1"), (2, "b2")]
        assert list(dep.server("s2").store.applied_log) != list(
            dep.server("s3").store.applied_log
        )  # different arrival orders ...
        for key in ("a", "b"):  # ... same per-key histories
            assert self._chain(dep, "s2", key) == self._chain(dep, "s3", key)

    def test_recovery_sync_unblocks_a_buffered_version(self):
        """A SYNC snapshot moves the store under the reorder buffer: the
        version it unblocks applies with the next PC_APPLY of *any* key."""
        dep = Deployment(n_replicas=3, seed=0)
        pc = ReplicationProtocol(dep, "primary-copy")
        primary = dep.server(pc.row.settings["primary"])
        for version in (1, 2):  # s3 missed these while it was down
            primary.store.apply("a", f"a{version}", version, 0.0)
        self._ship(dep, pc, [("s3", "a", 3)])
        dep.run(until=self.GAP)
        assert dep.server("s3").store.version_of("a") == 0
        dep.server("s3").request_sync(pc.row.settings["primary"])
        dep.run(until=2 * self.GAP)
        assert dep.server("s3").store.version_of("a") == 2
        self._ship(dep, pc, [("s3", "b", 1)])
        dep.run(until=3 * self.GAP)
        assert dep.server("s3").store.version_of("a") == 3
        assert dep.server("s3").store.read("a").value == "a3"

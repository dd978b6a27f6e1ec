"""Unit tests for deployment wiring and the open-loop client."""

import pytest

from repro.errors import ReplicationError, WorkloadError
from repro.replication.protocol import MARP
from repro.net.faults import CrashSchedule, FaultPlan
from repro.replication.client import Client, attach_clients
from repro.replication.deployment import Deployment
from repro.replication.requests import WRITE
from repro.workload.arrivals import DeterministicArrivals
from repro.workload.mix import OperationMix


class TestDeployment:
    def test_default_hosts_named(self):
        dep = Deployment(n_replicas=3)
        assert dep.hosts == ["s1", "s2", "s3"]

    def test_majority(self):
        assert Deployment(n_replicas=3).majority == 2
        assert Deployment(n_replicas=4).majority == 3
        assert Deployment(n_replicas=5).majority == 3

    def test_platform_and_server_lookup(self):
        dep = Deployment(n_replicas=2)
        assert dep.server("s1").interpreter.host == "s1"
        assert dep.server("s2").host == "s2"

    def test_unknown_host_rejected(self):
        dep = Deployment(n_replicas=2)
        with pytest.raises(ReplicationError):
            dep.server("zz")

    def test_invalid_replica_count(self):
        with pytest.raises(ReplicationError):
            Deployment(n_replicas=0)

    def test_replica_service_provided(self):
        dep = Deployment(n_replicas=2)
        # What a visiting agent meets at s1 is s1's replica, and shipping
        # it onward goes through the deployment's own host map.
        server = dep.server("s1")
        assert server.interpreter.replica is server.machine
        assert server.interpreter.substrate is server
        assert server.servers is dep.servers

    def test_alive_hosts_tracks_faults(self):
        faults = FaultPlan(crashes=CrashSchedule().add("s1", 0, 100))
        dep = Deployment(n_replicas=3, faults=faults)
        assert dep.alive_hosts() == ["s2", "s3"]

    def test_recovery_process_requests_sync(self):
        faults = FaultPlan(crashes=CrashSchedule().add("s1", 10, 50))
        dep = Deployment(n_replicas=3, faults=faults)
        dep.server("s2").store.apply("x", "survivor", 1, 0.0)
        dep.run(until=500)
        assert dep.server("s1").store.read("x").value == "survivor"
        assert dep.server("s1").recoveries == 1


class TestClient:
    def test_needs_stop_condition(self):
        dep = Deployment(n_replicas=2)
        marp = MARP(dep)
        with pytest.raises(WorkloadError):
            Client(
                marp, "s1", DeterministicArrivals(10), OperationMix(),
            )

    def test_submits_max_requests(self):
        dep = Deployment(n_replicas=3)
        marp = MARP(dep)
        client = Client(
            marp, "s1", DeterministicArrivals(10), OperationMix(1.0),
            max_requests=4,
        )
        dep.run(until=10_000)
        assert len(client.submitted) == 4
        assert all(r.op == WRITE for r in client.submitted)

    def test_until_bounds_generation(self):
        dep = Deployment(n_replicas=3)
        marp = MARP(dep)
        client = Client(
            marp, "s1", DeterministicArrivals(10), OperationMix(1.0),
            until=35.0,
        )
        dep.run(until=10_000)
        assert len(client.submitted) == 3  # t=10,20,30

    def test_attach_clients_one_per_host(self):
        dep = Deployment(n_replicas=3)
        marp = MARP(dep)
        clients = attach_clients(
            marp, DeterministicArrivals(10), OperationMix(1.0),
            max_requests_per_client=1,
        )
        assert sorted(c.home for c in clients) == ["s1", "s2", "s3"]
        dep.run(until=10_000)
        assert len(marp.records) == 3


class TestProtocolInterface:
    def test_unknown_home_rejected(self):
        dep = Deployment(n_replicas=2)
        marp = MARP(dep)
        with pytest.raises(ReplicationError):
            marp.submit("zz", WRITE, "x", 1)

    def test_unknown_op_rejected(self):
        dep = Deployment(n_replicas=2)
        marp = MARP(dep)
        with pytest.raises(ReplicationError):
            marp.submit("s1", "upsert", "x", 1)

    def test_open_requests_bookkeeping(self):
        dep = Deployment(n_replicas=3)
        marp = MARP(dep)
        record = marp.submit_write("s1", "x", 1)
        assert marp.open_requests() == 1
        dep.run(until=10_000)
        assert marp.open_requests() == 0
        assert record.status == "committed"
        assert marp.completed_writes() == [record]

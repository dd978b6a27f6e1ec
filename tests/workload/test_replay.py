"""Tests for workload trace recording and replay."""

import pytest

from repro.analysis.consistency import audit
from repro.replication.protocol import MARP
from repro.errors import WorkloadError
from repro.replication.deployment import Deployment
from repro.replication.protocol import ReplicationProtocol
from repro.replication.requests import WRITE
from repro.workload import (
    ExponentialArrivals,
    OperationMix,
    TraceEntry,
    TraceReplayer,
    WorkloadTrace,
    record_workload,
    replay_onto,
)


def small_trace():
    return WorkloadTrace([
        TraceEntry(10.0, "s1", WRITE, "x", 1),
        TraceEntry(40.0, "s2", WRITE, "x", 2),
        TraceEntry(90.0, "s3", WRITE, "y", 3),
    ])


class TestReplay:
    def test_replays_exact_times_and_content(self):
        dep = Deployment(n_replicas=3, seed=0)
        marp = MARP(dep)
        records = replay_onto(marp, small_trace(), horizon=100_000)
        assert len(records) == 3
        assert [r.created_at for r in records.values()] == [10.0, 40.0, 90.0]
        assert all(r.status == "committed" for r in records.values())
        assert dep.server("s2").store.read("x").value == 2
        assert dep.server("s2").store.read("y").value == 3

    def test_same_trace_on_two_protocols_gives_same_state(self):
        trace = small_trace()

        def final_state(protocol):
            dep = Deployment(n_replicas=3, seed=0)
            protocol = protocol(dep)
            replay_onto(protocol, trace, horizon=200_000)
            assert audit(dep).consistent
            return {
                key: (vv.value, vv.version)
                for key, vv in dep.server("s1").store.snapshot().items()
            }

        assert final_state(MARP) == final_state(
            lambda dep: ReplicationProtocol(dep, "mcv")
        )

    def test_record_then_replay_reproduces_commits(self):
        dep = Deployment(n_replicas=3, seed=4)
        marp = MARP(dep)
        trace = record_workload(
            marp,
            ExponentialArrivals(100.0),
            OperationMix(1.0),
            max_requests_per_client=3,
            until=200_000,
        )
        assert len(trace) == 9
        original = [r.status for r in marp.records]

        dep2 = Deployment(n_replicas=3, seed=999)  # different seed!
        marp2 = MARP(dep2)
        replayed = replay_onto(marp2, trace, horizon=400_000)
        assert [r.status for r in replayed.values()] == original
        # identical submission times regardless of the new seed (up to
        # float accumulation in the gap arithmetic)
        assert [r.created_at for r in replayed.values()] == pytest.approx(
            [e.at for e in trace]
        )

    def test_trace_round_trips_through_serialisation(self):
        trace = small_trace()
        restored = WorkloadTrace.loads(trace.dumps())
        dep = Deployment(n_replicas=3, seed=0)
        marp = MARP(dep)
        records = replay_onto(marp, restored, horizon=100_000)
        assert len(records) == 3

    def test_trace_in_the_past_rejected(self):
        dep = Deployment(n_replicas=3, seed=0)
        marp = MARP(dep)
        dep.run(until=1_000)  # clock is now at 1000ms
        with pytest.raises(WorkloadError):
            TraceReplayer(marp, small_trace())

"""Baseline coordinators take their replies through the claim table.

A baseline's write (and a voting baseline's quorum read) is a sans-IO
machine its home host's effect interpreter runs, claimed there under
its request id. Every host serves the baseline's reply kinds in no time
and hands each reply to its claim table: the coordinator of that request
takes it while it runs, and one that comes before it started or after
it ended is dropped there. The network only carries the messages.
"""

import pytest

from repro.core.machines import ForwardMachine
from repro.experiments.cache import result_fingerprint
from repro.experiments.runner import RunConfig, run_once
from repro.net.faults import CrashSchedule, FaultPlan
from repro.net.latency import ConstantLatency
from repro.replication.deployment import Deployment
from repro.replication.protocol import Coordinator, ReplicationProtocol
from repro.replication.requests import WRITE, RequestRecord

FOREVER = 10_000_000


def deployment(*down):
    """Three hosts 2 ms apart, ``down`` crashed for the whole run."""
    crashes = CrashSchedule()
    for host in down:
        crashes.add(host, 0, FOREVER)
    return Deployment(n_replicas=3, seed=0, latency=ConstantLatency(2.0),
                      faults=FaultPlan(crashes=crashes))


class TestForwardReplies:
    """Primary copy with its primary s1 down: the only PC_DONEs that
    reach s2 are the ones the test sends from s3 (2 ms on the way)."""

    @pytest.fixture
    def dep(self):
        dep = deployment("s1")
        ReplicationProtocol(dep, "primary-copy", write_timeout=50.0)
        return dep

    @staticmethod
    def forward(dep, at=0.0, rid=7):
        """Start request ``rid``'s forward at s2 ``at`` ms from now."""
        record = RequestRecord(request_id=rid, home="s2", op=WRITE,
                               key="x", value=1, created_at=at)
        machine = ForwardMachine("PC", rid, "x", 1, "s2", "s1", 50.0)
        interpreter = dep.server("s2").interpreter
        dep.env.call_in(at, lambda _arg: interpreter.coordinate(
            Coordinator(machine, [record], None)
        ))
        return record

    @staticmethod
    def reply(dep, at, rid=7):
        endpoint = dep.network.endpoints["s3"]
        dep.env.call_in(
            at, lambda _arg: endpoint.send("s2", "PC_DONE", {"rid": rid})
        )

    def test_a_reply_before_the_claim_is_dropped(self, dep):
        self.reply(dep, 0.0)                  # lands at 2
        record = self.forward(dep, at=10.0)
        dep.run()
        assert (record.status, record.completed_at) == ("failed", 60.0)
        assert dep.network.stats.expired == 0  # dropped at the claim table

    def test_a_reply_in_time_ends_the_coordinator_once(self, dep):
        record = self.forward(dep)
        other = self.forward(dep, rid=8)
        self.reply(dep, 0.0)
        self.reply(dep, 3.0)                  # a second one: nobody's
        dep.run()
        assert (record.status, record.completed_at) == ("committed", 2.0)
        assert (other.status, other.completed_at) == ("failed", 50.0)
        assert dep.server("s2").interpreter.claims == {}

    def test_the_deadline_first(self, dep):
        record = self.forward(dep)
        dep.run()
        assert (record.status, record.completed_at) == ("failed", 50.0)

    def test_a_reply_after_the_deadline_is_dropped(self, dep):
        record = self.forward(dep)
        self.reply(dep, 60.0)
        dep.run()
        assert (record.status, record.completed_at) == ("failed", 50.0)
        assert dep.server("s2").interpreter.claims == {}
        assert dep.network.stats.expired == 0


class TestVotingReplies:
    """MCV at s2 with s1 and s3 down: s2's own GRANT is one vote of the
    two a write needs; a GRANT the test sends is the other."""

    @staticmethod
    def write(grant_at=None):
        dep = deployment("s1", "s3")
        mcv = ReplicationProtocol(dep, "mcv", lock_timeout=100.0, retry_backoff=0,
                       max_rounds=1)
        record = mcv.submit_write("s2", "x", 1)
        if grant_at is not None:
            endpoint = dep.network.endpoints["s2"]
            grant = {"rid": record.request_id, "epoch": 1, "from": "s3",
                     "votes": 1, "version": 0}
            dep.env.call_in(grant_at, lambda _arg: endpoint.send(
                "s2", "MCV_GRANT", grant
            ))
        dep.run(until=1_000)
        return dep, record

    def test_a_tally_keeps_the_round_open_to_a_quorum(self):
        dep, record = self.write(grant_at=30.0)
        assert (record.status, record.completed_at) == ("committed", 30.0)
        assert record.extra["lock_rounds"] == 1
        assert dep.server("s2").store.read("x").value == 1

    def test_an_unsatisfied_tally_ends_at_the_deadline(self):
        dep, record = self.write()
        assert (record.status, record.completed_at) == ("failed", 100.0)
        assert dep.server("s2").store.read("x") is None
        assert dep.server("s2").interpreter.claims == {}


def test_every_claim_table_is_empty_after_a_drained_baseline_run():
    """Every coordinator leaves its home host's claim table when it ends:
    once a run drains, no host holds a claim."""
    crashes = CrashSchedule().add("s3", 200.0, 1200.0)
    for protocol, write_fraction in [
        ("mcv", 0.5), ("weighted-voting", 0.5), ("available-copies", 1.0),
        ("primary-copy", 1.0),
    ]:
        result = run_once(RunConfig(
            protocol=protocol, seed=2, write_fraction=write_fraction,
            n_keys=4, requests_per_client=10, mean_interarrival=20.0,
            faults=FaultPlan(crashes=crashes),
        ))
        assert result.open == 0, protocol
        for server in result.deployment.servers.values():
            assert server.interpreter.claims == {}, protocol


#: Baseline runs pinned at their result fingerprints (committed, failed
#: alongside): the coordinators' effects are the sends and timers the
#: runs were pinned with.
PINS = [
    (dict(protocol="mcv", seed=1, n_keys=4, key_skew=0.9,
          requests_per_client=40, mean_interarrival=10.0),
     "e1ac835d9a687c3c", 200, 0),
    (dict(protocol="mcv", seed=2, write_fraction=0.5, n_keys=8,
          requests_per_client=40, mean_interarrival=20.0),
     "5d656136930609ae", 105, 0),
    (dict(protocol="weighted-voting", seed=3, write_fraction=0.5, n_keys=4,
          requests_per_client=40, mean_interarrival=15.0,
          protocol_kwargs={
              "votes": {"s1": 3, "s2": 1, "s3": 1, "s4": 1, "s5": 1},
              "read_quorum": 3, "write_quorum": 5,
          }),
     "e97056dd58e35222", 103, 0),
    # s3 misses the writes of its crash window, so this run's audit
    # reports inconsistent: pinned as it is
    (dict(protocol="available-copies", seed=4, n_keys=4,
          requests_per_client=30, mean_interarrival=25.0,
          faults=FaultPlan(crashes=CrashSchedule().add("s3", 200.0, 2200.0))),
     "450771e2ef2a070d", 126, 24),
    (dict(protocol="primary-copy", seed=5, n_keys=8, requests_per_client=40,
          mean_interarrival=20.0,
          faults=FaultPlan(crashes=CrashSchedule().add("s1", 300.0, 1800.0))),
     "698a365ea63fd4f0", 66, 134),
]


@pytest.mark.parametrize(
    "config, prefix, committed, failed", PINS,
    ids=[f"{c['protocol']}-seed{c['seed']}" for c, *_ in PINS],
)
def test_baseline_runs_hold_their_pinned_fingerprints(
    config, prefix, committed, failed
):
    result = run_once(RunConfig(**config))
    assert (result.committed, result.failed) == (committed, failed)
    assert result_fingerprint(result).startswith(prefix)

"""The hygiene window is derived from ``grant_ttl``, for every run.

A replica's Updated List forgets a completed agent after
``UL_WINDOW_FACTOR * grant_ttl``; no config carries the window, so a
plain ``RunConfig`` run is bounded by it exactly like a ``scale_config``
one. A DES endpoint needs no window at all: a reply that nobody claims
at its destination's claim table is dropped the moment it arrives.
"""

import pytest

from repro.core.machines.identity import AgentId
from repro.core.machines.config import (
    DES_TUNABLES,
    LIVE_TUNABLES,
    UL_WINDOW_FACTOR,
)
from repro.core.machines.interpreter import EffectInterpreter
from repro.experiments.runner import RunConfig, run_once
from repro.replication.deployment import Deployment
from repro.replication.server import ReplicaConfig
from repro.runtime.host import HostRuntime, LiveConfig
from repro.runtime.transport import LiveTransport


class TestDefaultRunIsBounded:
    @pytest.fixture(scope="class")
    def result(self):
        # 2000 writes on 16 Zipf-0.9 keys over ~80 simulated seconds,
        # several times the window.
        return run_once(RunConfig(
            n_replicas=5, seed=3, mean_interarrival=200.0,
            requests_per_client=400, n_keys=16, key_skew=0.9,
        ))

    def test_run_completes_consistent(self, result):
        assert (result.committed, result.failed, result.open) == (2000, 0, 0)
        assert result.audit.consistent

    def test_updated_lists_hold_one_window_not_the_run(self, result):
        for server in result.deployment.servers.values():
            updated = server.machine.updated_list
            assert updated.retention == UL_WINDOW_FACTOR * DES_TUNABLES.grant_ttl
            # 15 s of an 80 s run: under a quarter, with room for a burst
            assert len(updated) < result.committed // 3
            assert len(updated) + updated.pruned_total == result.committed

    def test_inbox_backlogs_hold_one_window_not_the_run(self, result):
        # no window is needed: the surplus replies of a finished claim
        # round are pushed at an interpreter that has closed the round
        # and drops them there, and a serve's backlog empties as it works
        network = result.deployment.network
        assert network.stats.expired == 0
        for endpoint in network.endpoints.values():
            assert endpoint.pending == 0
        for server in result.deployment.servers.values():
            assert server.interpreter.claims == {}

    def test_surplus_quorum_replies_are_dropped_at_arrival(self, monkeypatch):
        """A quorum coordinator stops at a write quorum of GRANTs (a
        write) or a read quorum of RVALs (a read) and leaves its home
        host's claim table; each reply after that reaches the claim table
        as it lands and is dropped there, so nothing is left behind."""
        reply = EffectInterpreter.reply
        taken, dropped = [], []

        def counted(interpreter, taker, kind, payload):
            claimed = taker in interpreter.claims
            (taken if claimed else dropped).append(kind)
            return reply(interpreter, taker, kind, payload)

        monkeypatch.setattr(EffectInterpreter, "reply", counted)
        result = run_once(RunConfig(
            protocol="mcv", n_replicas=5, seed=3, mean_interarrival=200.0,
            requests_per_client=400, n_keys=16, key_skew=0.9,
            write_fraction=0.5,
        ))
        assert (result.failed, result.open) == (0, 0)
        network = result.deployment.network
        replies = sum(
            count for (_category, kind), count in network.stats.messages.items()
            if kind in ("MCV_GRANT", "MCV_NACK", "MCV_RVAL")
        )
        assert network.stats.total_dropped() == 0
        assert set(taken + dropped) == {"MCV_GRANT", "MCV_NACK", "MCV_RVAL"}
        # every reply landed at its claim table; the surplus was dropped
        # there, and the network counted none as nobody's
        assert len(taken) + len(dropped) == replies
        assert dropped and network.stats.expired == 0
        for endpoint in network.endpoints.values():
            assert endpoint.pending == 0
        for server in result.deployment.servers.values():
            assert server.interpreter.claims == {}


def _prune_horizon(machine, grant_ttl):
    """Assert ``machine`` serves a finished id for exactly one window."""
    done = AgentId("elsewhere", 1.0, 0)
    machine.updated_list.add(done, at=0.0)
    horizon = UL_WINDOW_FACTOR * grant_ttl
    visitor = AgentId("visitor", 0.5, 0)

    def served(now):
        """The Updated List a first-contact visit is handed."""
        data, _effects = machine.begin_visit(visitor, 1, now, acked=-1)
        return data.finished

    assert done in served(horizon)
    assert done not in served(horizon + 1.0)


class TestWindowsTrackGrantTTL:
    @pytest.mark.parametrize("grant_ttl", [
        DES_TUNABLES.grant_ttl, DES_TUNABLES.grant_ttl / 2.0,
    ])
    def test_des_windows_follow_grant_ttl(self, grant_ttl):
        deployment = Deployment(
            n_replicas=3, replica_config=ReplicaConfig(grant_ttl=grant_ttl),
        )
        _prune_horizon(deployment.server("s1").machine, grant_ttl)

    @pytest.mark.parametrize("grant_ttl", [
        LIVE_TUNABLES.grant_ttl, LIVE_TUNABLES.grant_ttl / 2.0,
    ])
    def test_live_ul_window_follows_grant_ttl(self, grant_ttl):
        hosts = ["h1", "h2", "h3"]
        transport = LiveTransport(hosts, latency_range=(0.0, 0.0))
        host = HostRuntime(
            "h1", hosts, transport, LiveConfig(grant_ttl=grant_ttl),
        )
        _prune_horizon(host.machine, grant_ttl)

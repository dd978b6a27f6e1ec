"""The two hygiene windows are derived from ``grant_ttl``, for every run.

A replica's Updated List forgets a completed agent after
``UL_WINDOW_FACTOR * grant_ttl`` and a DES endpoint reaps an unclaimed
message (a pulled reply its coordinator no longer wanted) after
``INBOX_WINDOW_FACTOR * grant_ttl``; no config carries
either window, so a plain ``RunConfig`` run is bounded by them exactly
like a ``scale_config`` one.
"""

import pytest

from repro.agents.identity import AgentId
from repro.core.machines.config import (
    DES_TUNABLES,
    INBOX_WINDOW_FACTOR,
    LIVE_TUNABLES,
    UL_WINDOW_FACTOR,
)
from repro.experiments.runner import RunConfig, run_once
from repro.replication.deployment import Deployment
from repro.replication.server import ReplicaConfig
from repro.runtime.host import HostRuntime, LiveConfig
from repro.runtime.transport import LiveTransport


class TestDefaultRunIsBounded:
    @pytest.fixture(scope="class")
    def result(self):
        # 2000 writes on 16 Zipf-0.9 keys over ~80 simulated seconds,
        # four times the longer window.
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
        network = result.deployment.network
        assert network.inbox_ttl == INBOX_WINDOW_FACTOR * DES_TUNABLES.grant_ttl
        # the surplus replies of a finished claim round are pushed at an
        # interpreter that has closed the round and drops them there:
        # nothing is left in an inbox for the reaper to find
        assert network.stats.expired == 0
        for endpoint in network.endpoints.values():
            assert endpoint.pending == endpoint.reaped == 0

    def test_pulled_replies_are_still_reaped(self):
        """A quorum coordinator pulls its GRANTs and stops at a majority;
        the surplus waits in its round's own queue for the reaper."""
        result = run_once(RunConfig(
            protocol="mcv", n_replicas=5, seed=3, mean_interarrival=200.0,
            requests_per_client=400, n_keys=16, key_skew=0.9,
        ))
        assert (result.committed, result.failed, result.open) == (2000, 0, 0)
        network = result.deployment.network
        assert network.stats.expired > 0
        assert network.stats.expired == sum(
            endpoint.reaped for endpoint in network.endpoints.values()
        )
        for endpoint in network.endpoints.values():
            left = endpoint.inbox.items
            assert {message.kind for message in left} <= {
                "MCV_GRANT", "MCV_NACK",
            }
            assert endpoint.pending == len(left)
            sent = [message.sent_at for message in left]
            if sent:
                # a reap runs at most every ttl/4 and keeps one ttl
                assert max(sent) - min(sent) <= 1.25 * network.inbox_ttl


def _prune_horizon(machine, grant_ttl):
    """Assert ``machine`` serves a finished id for exactly one window."""
    done = AgentId("elsewhere", 1.0, 0)
    machine.updated_list.add(done, at=0.0)
    horizon = UL_WINDOW_FACTOR * grant_ttl
    assert done in machine.lock_view(horizon).updated
    assert done not in machine.lock_view(horizon + 1.0).updated


class TestWindowsTrackGrantTTL:
    @pytest.mark.parametrize("grant_ttl", [
        DES_TUNABLES.grant_ttl, DES_TUNABLES.grant_ttl / 2.0,
    ])
    def test_des_windows_follow_grant_ttl(self, grant_ttl):
        deployment = Deployment(
            n_replicas=3, replica_config=ReplicaConfig(grant_ttl=grant_ttl),
        )
        assert deployment.network.inbox_ttl == INBOX_WINDOW_FACTOR * grant_ttl
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

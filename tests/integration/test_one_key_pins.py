"""One-key MARP runs, pinned: the paper's algorithm as written.

Every write of these runs names the default key ``x``, so each replica
keeps exactly one Locking List, one grant and one bulletin board, as
Algorithm 2 does. Per-key lock state must leave them bit for bit where
they are: a change that moves one of these pins changed the one-key
protocol, not just how several keys share a replica. They are Theorem
3's two configurations (the T3 claim's grid) and a run in which ``s2``
crashes and recovers from its peers.
"""

import pytest

from repro.experiments.runner import RunConfig, result_fingerprint, run_once
from repro.net.faults import CrashSchedule, FaultPlan

PINS = [
    pytest.param(
        dict(n_replicas=3, mean_interarrival=25.0, requests_per_client=20,
             seed=0),
        "70f978c3d2518452", 60, 79, 0, id="t3-n3",
    ),
    pytest.param(
        dict(n_replicas=5, mean_interarrival=25.0, requests_per_client=20,
             seed=0),
        "324964515b4786a8", 100, 412, 0, id="t3-n5",
    ),
    pytest.param(
        dict(n_replicas=5, mean_interarrival=40.0, requests_per_client=20,
             seed=1,
             faults=FaultPlan(crashes=CrashSchedule().add("s2", 200.0,
                                                          1500.0))),
        "2386d6eef06dadba", 100, 4073, 1, id="crash-s2",
    ),
]


@pytest.mark.parametrize(
    "config, prefix, committed, migrations, recoveries", PINS
)
def test_one_key_marp_runs_hold_their_pins(
    config, prefix, committed, migrations, recoveries
):
    result = run_once(RunConfig(**config))
    assert result.config.keys == ("x",)
    assert (result.committed, result.failed) == (committed, 0)
    assert result.audit.consistent
    assert result.agent_migrations == migrations
    assert result.deployment.server("s2").recoveries == recoveries
    assert result_fingerprint(result).startswith(prefix)

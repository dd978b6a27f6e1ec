"""repro — reproduction of "Achieving Replication Consistency Using
Cooperating Mobile Agents" (Cao, Chan & Wu, ICPP 2001).

Primary public API::

    from repro import Deployment, MARP

    deployment = Deployment(n_replicas=5, seed=42)
    marp = MARP(deployment)
    marp.submit_write("s1", "x", 7)
    deployment.run()

Subpackages
-----------
``repro.sim``
    Deterministic discrete-event kernel (SimPy-like).
``repro.net``
    Wide-area network: topologies, latency models, fault injection.
``repro.replication``
    Replica servers (the DES substrate of one host), stores, locking
    lists, clients, and the one DES driver
    (``repro.replication.protocol.ReplicationProtocol``) of every
    protocol.
``repro.core``
    The sans-IO protocol kernel: MARP's agent and replica (Algorithms 1
    and 2), agent identity, the priority calculation, and in
    ``repro.core.machines.protocols`` every protocol as one row of a
    table (MARP, MCV, weighted voting, ROWA-AC, primary copy).
``repro.runtime``
    Live threaded backend with real pickled agent migration.
``repro.workload`` / ``repro.analysis`` / ``repro.experiments``
    Workload generation, metrics (ALT/ATT/PRK), consistency audits and
    the per-figure experiment harness.
"""

from repro._version import __version__
from repro.replication.deployment import Deployment
from repro.replication.protocol import MARP
from repro.replication.requests import READ, WRITE, RequestRecord

__all__ = [
    "__version__",
    "Deployment",
    "MARP",
    "RequestRecord",
    "READ",
    "WRITE",
]

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
``repro.agents``
    Mobile-agent platform (the Aglets stand-in).
``repro.replication``
    Replica servers (Algorithm 2), stores, locking lists, clients.
``repro.core``
    The MARP protocol (Algorithm 1, priority calculation, batching), and
    in ``repro.core.machines.protocols`` the message-passing comparators
    as rows of one table (MCV, weighted voting, ROWA-AC, primary copy),
    which ``repro.replication.protocol.Baseline`` drives.
``repro.runtime``
    Live threaded backend with real pickled agent migration.
``repro.workload`` / ``repro.analysis`` / ``repro.experiments``
    Workload generation, metrics (ALT/ATT/PRK), consistency audits and
    the per-figure experiment harness.
"""

from repro._version import __version__
from repro.core.config import MARPConfig
from repro.core.protocol import MARP
from repro.replication.deployment import Deployment
from repro.replication.requests import READ, WRITE, RequestRecord

__all__ = [
    "__version__",
    "Deployment",
    "MARP",
    "MARPConfig",
    "RequestRecord",
    "READ",
    "WRITE",
]

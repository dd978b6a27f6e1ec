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
    the run engine and the paper's claims as rows.

The subpackages export nothing (``repro.runtime`` and ``repro.obs``
keep ``LiveCluster`` and the hub API): import each name from the module
that defines it. The DES names above load on first access, so a live
host (``import repro.runtime``) never loads the simulator.
"""

from repro._version import __version__

#: Where each lazily loaded public name is defined.
_DEFINED_IN = {
    "Deployment": "repro.replication.deployment",
    "MARP": "repro.replication.protocol",
    "RequestRecord": "repro.replication.requests",
    "READ": "repro.replication.requests",
    "WRITE": "repro.replication.requests",
}

__all__ = ["__version__", *_DEFINED_IN]


def __getattr__(name):
    """Import a DES name's defining module the first time it is asked for."""
    try:
        module = _DEFINED_IN[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    from importlib import import_module

    value = getattr(import_module(module), name)
    globals()[name] = value
    return value

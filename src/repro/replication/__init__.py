"""Replication substrate: versioned stores, locking structures, replica
servers (the paper's Algorithm 2), deployment wiring and clients."""

from repro.core.machines.structures import (
    CommitRecord, HistoryLog, LockEntry, LockingList, LockView,
    UpdatedList, VersionedStore, VersionedValue,
)
from repro.replication.client import Client, attach_clients
from repro.replication.deployment import Deployment
from repro.replication.protocol import ReplicationProtocol
from repro.replication.requests import READ, WRITE, RequestRecord, new_request_id
from repro.replication.server import (
    ReplicaConfig,
    ReplicaServer,
    SharedView,
    UpdatePayload,
    WriteOp,
)

__all__ = [
    "VersionedStore",
    "VersionedValue",
    "LockEntry",
    "LockingList",
    "UpdatedList",
    "LockView",
    "CommitRecord",
    "HistoryLog",
    "ReplicaServer",
    "ReplicaConfig",
    "SharedView",
    "UpdatePayload",
    "WriteOp",
    "Deployment",
    "ReplicationProtocol",
    "RequestRecord",
    "new_request_id",
    "READ",
    "WRITE",
    "Client",
    "attach_clients",
]

"""Primary Copy — the centralised baseline.

All writes are forwarded to one designated primary (the home host's
:class:`~repro.core.machines.coordinators.ForwardMachine`), which serialises
them locally (a trivially consistent total order), applies eagerly at
every replica, and acknowledges the origin. Reads are local. It is the
latency floor for uncontended writes and the availability worst case: a
crashed primary stalls every write until it recovers.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.base import Coordinator, take_replies
from repro.core.machines import ForwardMachine
from repro.net.message import Message
from repro.replication.deployment import Deployment
from repro.core.machines.structures import CommitRecord
from repro.replication.protocol import ReplicationProtocol
from repro.replication.requests import RequestRecord
from repro.replication.server import WriteOp

__all__ = ["PrimaryCopy"]


class PrimaryCopy(ReplicationProtocol):
    """Single-primary eager replication."""

    name = "primary-copy"
    prefix = "PC"

    def __init__(
        self,
        deployment: Deployment,
        primary: Optional[str] = None,
        write_timeout: float = 2000.0,
    ) -> None:
        super().__init__(deployment)
        self.primary = primary or deployment.hosts[0]
        if self.primary not in deployment.servers:
            raise ValueError(f"unknown primary host {self.primary!r}")
        if write_timeout <= 0:
            raise ValueError(f"write_timeout must be > 0: {write_timeout}")
        self.write_timeout = write_timeout
        self.writes_serialized = 0
        network = deployment.network
        take_replies(deployment, ("PC_DONE",))
        self._backups = [h for h in deployment.hosts if h != self.primary]
        network.endpoints[self.primary].serve(
            ("PC_WRITE",), self._apply_time(self.primary), self._serialize
        )
        for host in self._backups:
            network.endpoints[host].serve(
                ("PC_APPLY",), self._apply_time(host), self._backup(host)
            )

    def _apply_time(self, host: str):
        config = self.deployment.server(host).config
        return lambda _msg: config.update_apply_time

    # -- primary ----------------------------------------------------------

    def _serialize(self, msg: Message) -> None:
        """The primary's turn: order one write, apply it, ship it."""
        endpoint = self.deployment.network.endpoints[self.primary]
        server = self.deployment.server(self.primary)
        p = msg.payload
        version = server.store.version_of(p["key"]) + 1
        write = WriteOp(
            request_id=p["rid"],
            key=p["key"],
            value=p["value"],
            version=version,
        )
        self._apply_local(server, write, p["origin"])
        self.writes_serialized += 1
        # Eager push to every backup, then acknowledge the origin.
        endpoint.multicast(
            self._backups,
            "PC_APPLY",
            payload={"writes": (write,), "origin": p["origin"]},
        )
        endpoint.send(p["origin"], "PC_DONE", payload={"rid": p["rid"]})

    def _apply_local(self, server, write: WriteOp, origin: str) -> None:
        applied = server.store.apply(
            write.key, write.value, write.version, self.env.now
        )
        if applied:
            server.history.append(
                CommitRecord(
                    request_id=write.request_id,
                    key=write.key,
                    value=write.value,
                    version=write.version,
                    committed_at=self.env.now,
                    origin=origin,
                )
            )

    # -- backups -------------------------------------------------------------

    def _backup(self, host: str):
        """The handler of ``host``'s PC_APPLY messages."""
        server = self.deployment.server(host)
        # The network is not FIFO, but primary-copy log shipping must
        # apply in order: hold out-of-order versions until their
        # predecessors arrive. Between messages no buffered version is
        # the next one of its key, so only the keys a message carries
        # can have become drainable — unless a recovery SYNC installed
        # a snapshot under the buffer, which may unblock any of them.
        reorder: dict = {}  # key -> {version: (write, origin)}
        version_of = server.store.version_of
        recoveries = server.recoveries

        def apply(msg: Message) -> None:
            nonlocal recoveries
            writes = msg.payload["writes"]
            origin = msg.payload["origin"]
            for write in writes:
                reorder.setdefault(write.key, {})[write.version] = (
                    write, origin,
                )
            if server.recoveries != recoveries:
                recoveries = server.recoveries
                touched = list(reorder)
            else:
                touched = dict.fromkeys(write.key for write in writes)
            for key in touched:
                buffered = reorder[key]
                next_version = version_of(key) + 1
                while next_version in buffered:
                    write, origin = buffered.pop(next_version)
                    self._apply_local(server, write, origin)
                    next_version += 1
                if not buffered:
                    del reorder[key]

        return apply

    # -- client-facing paths ----------------------------------------------------

    def _start_write(self, record: RequestRecord) -> None:
        record.dispatched_at = self.env.now
        self.deployment.server(record.home).interpreter.coordinate(
            Coordinator(ForwardMachine(
                self.prefix, record.request_id, record.key, record.value,
                record.home, self.primary, self.write_timeout,
            ), record)
        )

    def _start_read(self, record: RequestRecord) -> None:
        record.dispatched_at = self.env.now
        self._read_local(record)

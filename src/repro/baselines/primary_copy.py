"""Primary Copy — the centralised baseline.

All writes are forwarded to one designated primary (the home host's
:class:`~repro.core.machines.coordinators.ForwardMachine`). Every host
runs a :class:`~repro.core.machines.participants.CopyKeeper` under its
effect interpreter: the primary's serialises the writes locally (a
trivially consistent total order), applies each and ships it eagerly to
every backup, whose keeper applies them in version order, and
acknowledges the origin. Reads are local. It is the latency floor for
uncontended writes and the availability worst case: a crashed primary
stalls every write until it recovers.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.base import Coordinator
from repro.core.machines import CopyKeeper, ForwardMachine
from repro.replication.deployment import Deployment
from repro.replication.protocol import ReplicationProtocol
from repro.replication.requests import RequestRecord

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
        backups = [h for h in deployment.hosts if h != self.primary]
        for host in deployment.hosts:
            server = deployment.server(host)
            server.attach(CopyKeeper(
                self.prefix, host, server.machine, self.primary, backups,
            ))

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

"""Available Copies (ROWA-A) — the optimistic baseline the paper cites.

Paper §3.1: "The Available Copy (AC) protocol, also known as the
write-all read-once protocol ... Update operations must be applied at
all available replicas. If all available replicas participated in the
last update, an application can read from any replica ... The AC
protocol is vulnerable to communication partitions."

Implementation: strict two-phase locking with *blocking* locks,
acquired sequentially in a fixed global host order so writers cannot
deadlock (the ladder is
:class:`~repro.core.machines.coordinators.LadderMachine`). Each host's
:class:`~repro.core.machines.participants.LockKeeper` queues a LOCK for
a busy key and hands the grant on, FIFO, at the holder's APPLY or
ABORT. A replica that does not grant within the detection timeout is
declared unavailable and skipped — timeouts are the failure detector —
and catches up later through the recovery sync. Reads are local
(read-one).

Because availability is judged per-coordinator with no quorum
intersection, partitions (and aggressive timeouts under load) let
replicas diverge — the vulnerability the paper notes, demonstrated in
the integration tests.
"""

from __future__ import annotations

from repro.baselines.base import QuorumProtocol
from repro.core.machines import LadderMachine
from repro.replication.deployment import Deployment
from repro.replication.requests import RequestRecord

__all__ = ["AvailableCopies"]


class AvailableCopies(QuorumProtocol):
    """Write-all-available / read-one with blocking ordered locking."""

    name = "available-copies"
    prefix = "AC"
    queue_locks = True

    def __init__(
        self,
        deployment: Deployment,
        detection_timeout: float = 400.0,
        **kwargs,
    ) -> None:
        kwargs.setdefault("local_reads", True)
        kwargs.setdefault("read_quorum", 1)
        kwargs.setdefault("write_quorum", 1)
        kwargs.setdefault("enforce_quorum_intersection", False)
        super().__init__(deployment, **kwargs)
        if detection_timeout <= 0:
            raise ValueError(
                f"detection_timeout must be > 0: {detection_timeout}"
            )
        self.detection_timeout = detection_timeout

    def _start_write(self, record: RequestRecord) -> None:
        # Sequential lock acquisition in global host order: all writers
        # climb the same ladder, so there is no deadlock and queues at
        # each rung drain FIFO.
        self._coordinate(LadderMachine(
            self.prefix, record.request_id, record.key, record.value,
            record.home, self.deployment.hosts, self.detection_timeout,
        ), record, _climbed)


def _climbed(record: RequestRecord, machine: LadderMachine,
             now: float) -> None:
    if machine.writes:
        record.lock_acquired_at = now
        record.extra["available_copies"] = sorted(machine.grants)
    record.extra["skipped"] = machine.skipped

"""Available Copies (ROWA-A) — the optimistic baseline the paper cites.

Paper §3.1: "The Available Copy (AC) protocol, also known as the
write-all read-once protocol ... Update operations must be applied at
all available replicas. If all available replicas participated in the
last update, an application can read from any replica ... The AC
protocol is vulnerable to communication partitions."

Implementation: strict two-phase locking with *blocking* (queueing) lock
daemons, acquired sequentially in a fixed global host order so writers
cannot deadlock. A replica that does not grant within the detection
timeout is declared unavailable and skipped — timeouts are the failure
detector — and catches up later through the recovery sync (the ladder is
:class:`~repro.core.machines.coordinators.LadderMachine`). Reads are
local (read-one).

Because availability is judged per-coordinator with no quorum
intersection, partitions (and aggressive timeouts under load) let
replicas diverge — the vulnerability the paper notes, demonstrated in
the integration tests.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

from repro.baselines.base import BaselineDaemon, QuorumProtocol
from repro.core.machines import LadderMachine
from repro.net.message import Message
from repro.replication.deployment import Deployment
from repro.replication.requests import RequestRecord

__all__ = ["AvailableCopies", "QueueingDaemon"]


class QueueingDaemon(BaselineDaemon):
    """Lock daemon that queues conflicting requests instead of NACKing.

    This is strict 2PL at one replica: the grant moves to the next
    waiter when the holder's APPLY or ABORT releases the key.
    """

    def __init__(self, protocol: "AvailableCopies", host: str) -> None:
        self.waiters: Dict[str, Deque[dict]] = {}
        super().__init__(protocol, host)

    def _on_lock(self, msg: Message) -> None:
        p = msg.payload
        key = p["key"]
        if self._lock_is_free(key, p["rid"]):
            self._grant(key, p)
        else:
            queue = self.waiters.setdefault(key, deque())
            if all(w["rid"] != p["rid"] for w in queue):
                queue.append(p)

    def _grant(self, key: str, p: dict) -> None:
        self.locks[key] = (
            p["rid"], p["epoch"], self.env.now + self.protocol.lock_ttl,
        )
        self.grants_given += 1
        self.endpoint.send(
            p["reply_to"],
            f"{self.protocol.prefix}_GRANT",
            payload={
                "rid": p["rid"],
                "epoch": p["epoch"],
                "from": self.host,
                "votes": self.protocol.votes_of(self.host),
                "version": self.server.store.version_of(key),
            },
        )

    def _release(self, rid: int, up_to_epoch: Optional[int] = None) -> None:
        for key, (holder, epoch, _expires) in list(self.locks.items()):
            if holder != rid:
                continue
            if up_to_epoch is not None and epoch > up_to_epoch:
                continue
            del self.locks[key]
            queue = self.waiters.get(key)
            if queue:
                self._grant(key, queue.popleft())

    def _on_abort(self, msg: Message) -> None:
        rid = msg.payload["rid"]
        # Dequeue any waiting request of this rid, then release held keys.
        for queue in self.waiters.values():
            for waiter in list(queue):
                if waiter["rid"] == rid:
                    queue.remove(waiter)
        self._release(rid, up_to_epoch=msg.payload.get("epoch"))


class AvailableCopies(QuorumProtocol):
    """Write-all-available / read-one with blocking ordered locking."""

    name = "available-copies"
    prefix = "AC"
    daemon_class = QueueingDaemon

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

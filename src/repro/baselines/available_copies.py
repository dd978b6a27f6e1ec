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
detector — and catches up later through the recovery sync. Reads are
local (read-one).

Because availability is judged per-coordinator with no quorum
intersection, partitions (and aggressive timeouts under load) let
replicas diverge — the vulnerability the paper notes, demonstrated in
the integration tests.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from repro.baselines.base import BaselineDaemon, QuorumProtocol
from repro.net.message import Message
from repro.replication.deployment import Deployment
from repro.replication.requests import RequestRecord
from repro.replication.server import WriteOp

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
        record.dispatched_at = self.env.now
        self._rung(record, 0, {}, [])

    def _rung(self, record: RequestRecord, index: int,
              grants: Dict[str, int], skipped: List[str]) -> None:
        """Ask ``hosts[index]`` for its lock and wait for its grant;
        ``grants`` maps the hosts that granted to their version."""
        hosts = self.deployment.hosts
        if index == len(hosts):
            self._climbed(record, grants, skipped)
            return
        endpoint = self.deployment.network.endpoints[record.home]
        prefix = self.prefix
        host = hosts[index]
        payload = {"rid": record.request_id, "epoch": 1}
        endpoint.send(
            host,
            f"{prefix}_LOCK",
            payload={**payload, "key": record.key, "reply_to": record.home},
        )

        def granted(msg: Optional[Message]) -> bool:
            if msg is None:
                # Declared unavailable; cancel the (possibly queued) lock.
                endpoint.send(host, f"{prefix}_ABORT", payload=payload)
                skipped.append(host)
            elif msg.kind != f"{prefix}_GRANT" or msg.payload["from"] != host:
                # A grant from a host already given up on may still come
                # in this round; only this rung's host counts.
                return False
            else:
                grants[host] = msg.payload["version"]
            self._rung(record, index + 1, grants, skipped)
            return True

        endpoint.wait(
            self._round_replies, (record.request_id, 1),
            self.detection_timeout, granted,
        )

    def _climbed(self, record: RequestRecord, grants: Dict[str, int],
                 skipped: List[str]) -> None:
        env = self.env
        endpoint = self.deployment.network.endpoints[record.home]
        prefix = self.prefix
        if not grants:
            record.completed_at = env.now
            record.extra["skipped"] = skipped
            record.status = "failed"
            return

        record.lock_acquired_at = env.now
        record.extra["available_copies"] = sorted(grants)
        record.extra["skipped"] = skipped
        version = 1 + max(grants.values())
        writes = (
            WriteOp(
                request_id=record.request_id,
                key=record.key,
                value=record.value,
                version=version,
            ),
        )
        # Write-all-*available*: only the replicas that granted.
        for host in grants:
            endpoint.send(
                host,
                f"{prefix}_APPLY",
                payload={
                    "rid": record.request_id,
                    "writes": writes,
                    "origin": record.home,
                },
            )
        record.completed_at = env.now
        record.status = "committed"

"""MARP read paths.

The paper ([D5]): "a read operation may be executed on an arbitrary copy"
— reads hit the local replica and are fast but not guaranteed fresh
("it is acceptable that queries executed on a replica are not guaranteed
to give an up-to-date answer"). The quorum read is our extension: query
all replicas, accept the highest version among a majority of replies —
this *is* guaranteed to observe every committed update whose COMMIT
reached a majority.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.net.message import Message
from repro.replication.requests import RequestRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.protocol import MARP

__all__ = ["start_local_read", "start_quorum_read"]


def start_local_read(marp: "MARP", record: RequestRecord) -> None:
    """Serve the read from the home replica's local copy."""

    record.extra["read_strategy"] = "local"
    marp._read_local(record)


def start_quorum_read(marp: "MARP", record: RequestRecord) -> None:
    """Query every replica; return the freshest of a majority of replies."""

    env = marp.env
    endpoint = marp.deployment.network.endpoints[record.home]
    majority = marp.deployment.majority
    endpoint.broadcast(
        "READQ",
        payload={"request_id": record.request_id, "key": record.key},
        include_self=True,
    )
    best_version = 0
    best_value = None
    replies = 0

    def tally(reply: Optional[Message]) -> bool:
        nonlocal best_version, best_value, replies
        if reply is not None:
            payload = reply.payload
            replies += 1
            if payload["version"] >= best_version:
                best_version = payload["version"]
                best_value = payload["value"]
            if replies < majority:
                return False
        record.value = best_value
        record.extra["version"] = best_version
        record.extra["read_strategy"] = "quorum"
        record.extra["replies"] = replies
        record.completed_at = env.now
        record.status = "read-done" if replies >= majority else "failed"
        return True

    endpoint.wait("READR", record.request_id, marp.config.ack_timeout, tally)

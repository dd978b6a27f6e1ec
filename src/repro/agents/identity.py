"""Agent identity.

Paper §3.2: "When a mobile agent is created, it is assigned a unique
identifier consisting of the host-name of the replicated server where the
mobile agent is created plus the local creation time." Ties in the MARP
priority calculation are resolved "by using the mobile agents'
identifiers", so identifiers must be **totally ordered**; we order by
``(created_at, host, seq)`` — creation time first, which makes the
tie-break FIFO-flavoured — and add a per-host sequence number so two
agents created at the same host at the same instant remain distinct.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Collection, Dict

__all__ = ["AgentId", "AgentIdFactory", "host_bytes", "ids_wire_size"]


class _HostBytes(dict):
    """UTF-8 length per host name — identifiers are sized once per
    message per carried id, and the host-name population is tiny."""

    def __missing__(self, host: str) -> int:
        self[host] = size = len(host.encode("utf-8"))
        return size


_HOST_BYTES = _HostBytes()
#: ``host_bytes(name)``: UTF-8 length of a host name, computed once.
host_bytes = _HOST_BYTES.__getitem__
#: Bytes of an identifier beyond its host name: created_at + seq.
_FIXED_BYTES = 8 + 4
_host_of = itemgetter(1)


def ids_wire_size(ids: "Collection[AgentId]") -> int:
    """Summed :meth:`AgentId.wire_size` of ``ids``, without a Python
    frame per identifier (a table sizes a whole Updated List window)."""
    return _FIXED_BYTES * len(ids) + sum(map(host_bytes, map(_host_of, ids)))


class AgentId(tuple):
    """Globally unique, totally ordered mobile-agent identifier.

    Stored as the tuple ``(created_at, host, seq)``: the total order is
    the tuple's own, and so are hashing and equality — they run in C,
    on every set and dict probe of the kernel's Locking and Updated
    Lists. Built and read by name: ``AgentId(host, created_at, seq)``.
    String hashes are salted per process, so a hash never travels: a
    pickle carries the three fields and the receiver hashes afresh.
    """

    __slots__ = ()

    def __new__(cls, host: str, created_at: float, seq: int = 0) -> "AgentId":
        return tuple.__new__(cls, (created_at, host, seq))

    created_at = property(itemgetter(0))
    host = property(itemgetter(1))
    seq = property(itemgetter(2))

    def __getnewargs__(self):
        return self[1], self[0], self[2]

    def __repr__(self) -> str:
        return f"AgentId(host={self[1]!r}, created_at={self[0]!r}, seq={self[2]!r})"

    def __str__(self) -> str:
        return f"{self[1]}@{self[0]:g}#{self[2]}"

    def wire_size(self) -> int:
        """Bytes this identifier occupies on the wire."""
        return _HOST_BYTES[self[1]] + _FIXED_BYTES


class AgentIdFactory:
    """Per-host factory guaranteeing unique sequence numbers.

    A single factory instance is shared by everything creating agents at
    one host (the replica server's dispatcher in MARP).
    """

    def __init__(self, host: str) -> None:
        self.host = host
        self._seq_at: Dict[float, int] = {}

    def new(self, created_at: float) -> AgentId:
        seq = self._seq_at.get(created_at, 0)
        self._seq_at[created_at] = seq + 1
        return AgentId(host=self.host, created_at=created_at, seq=seq)

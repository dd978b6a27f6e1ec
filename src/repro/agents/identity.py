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

from dataclasses import dataclass
from functools import total_ordering
from operator import attrgetter
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
_host_of = attrgetter("host")


def ids_wire_size(ids: "Collection[AgentId]") -> int:
    """Summed :meth:`AgentId.wire_size` of ``ids``, without a Python
    frame per identifier (a table sizes a whole Updated List window)."""
    return _FIXED_BYTES * len(ids) + sum(map(host_bytes, map(_host_of, ids)))


@total_ordering
@dataclass(frozen=True)
class AgentId:
    """Globally unique, totally ordered mobile-agent identifier."""

    host: str
    created_at: float
    seq: int = 0

    def _key(self):
        return (self.created_at, self.host, self.seq)

    # Identifiers are hashed on every set/dict probe of the kernel's
    # Locking Lists and Updated Lists, so the (field-tuple) hash the
    # dataclass would generate is computed once and kept on the
    # instance. String hashes are salted per process: the cached value
    # is excluded from the pickled state and recomputed on first use
    # wherever the identifier lands.

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = hash((self.host, self.created_at, self.seq))
            object.__setattr__(self, "_hash", value)
            return value

    def __getstate__(self):
        return {
            "host": self.host, "created_at": self.created_at, "seq": self.seq,
        }

    def __lt__(self, other: "AgentId") -> bool:
        if not isinstance(other, AgentId):
            return NotImplemented
        return self._key() < other._key()

    def __str__(self) -> str:
        return f"{self.host}@{self.created_at:g}#{self.seq}"

    def wire_size(self) -> int:
        """Bytes this identifier occupies on the wire."""
        return _HOST_BYTES[self.host] + _FIXED_BYTES


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

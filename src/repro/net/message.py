"""Message representation and payload size accounting.

All traffic in the simulated network — control messages *and* migrating
agents — is carried as :class:`Message` objects. Sizes are estimated
structurally (not by pickling) so accounting is cheap and deterministic;
protocols that know better can pass ``size_bytes`` explicitly.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

__all__ = ["Message", "estimate_size", "HEADER_BYTES"]

#: Fixed per-message header overhead (addresses, kind, ids) in bytes.
HEADER_BYTES = 64

_next_msg_id = itertools.count(1).__next__


def estimate_size(payload: Any) -> int:
    """Rough, deterministic wire-size estimate of a payload in bytes.

    The estimate follows simple structural rules (8 bytes per number,
    UTF-8 length for strings, recursive sum plus container overhead).
    Objects exposing ``wire_size()`` report their own size — agents use
    this to account for their carried state.

    Exact builtin types are dispatched up front (they can never carry a
    ``wire_size`` method, so this is pure reordering), and a container's
    int, float, str and None members are sized in its own loop
    (:func:`_members`): only a member of another type costs a call.
    """
    if payload is None:
        return 0
    cls = payload.__class__
    if cls is int or cls is float:
        return 8
    if cls is str:
        return len(payload) if payload.isascii() else len(payload.encode("utf-8"))
    if cls is bool:
        return 1
    if cls is dict:
        return _members(payload.values(), _members(payload, 16))
    if cls is list or cls is tuple or cls is set or cls is frozenset:
        return _members(payload, 16)
    if cls is bytes:
        return len(payload)
    wire_size = getattr(payload, "wire_size", None)
    if callable(wire_size):
        return int(wire_size())
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, (int, float)):
        return 8
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, bytes):
        return len(payload)
    if isinstance(payload, dict):
        return _members(payload.values(), _members(payload, 16))
    if isinstance(payload, (list, tuple, set, frozenset)):
        return _members(payload, 16)
    # Dataclass-like objects: account their public attribute dict.
    attrs = getattr(payload, "__dict__", None)
    if attrs is not None:
        return 16 + sum(
            estimate_size(v) for k, v in attrs.items() if not k.startswith("_")
        )
    slots = getattr(payload, "__slots__", None)
    if slots is not None:
        return 16 + sum(
            estimate_size(getattr(payload, name, None))
            for name in slots
            if not name.startswith("_")
        )
    return 32  # opaque object fallback


def _members(items, total: int) -> int:
    """``total`` plus the sizes of ``items``; the common member types
    inline, the rest through :func:`estimate_size`."""
    for item in items:
        cls = item.__class__
        if cls is str:
            total += len(item) if item.isascii() else len(item.encode("utf-8"))
        elif cls is int or cls is float:
            total += 8
        elif item is not None:
            total += estimate_size(item)
    return total


class Message:
    """A single network transmission.

    Attributes
    ----------
    src, dst:
        Host names.
    kind:
        Protocol-level message type (e.g. ``"UPDATE"``, ``"ACK"``,
        ``"AGENT"``).
    payload:
        Arbitrary protocol data.
    size_bytes:
        Wire size including header; estimated from the payload when not
        given (``<= 0``).
    category:
        Accounting bucket (``"control"``, ``"agent"``, ``"data"``).
    msg_id:
        Process-unique, increasing; drawn when not given.
    sent_at:
        Simulated send time, stamped by the network.
    """

    __slots__ = (
        "src", "dst", "kind", "payload", "size_bytes", "category",
        "msg_id", "sent_at",
    )

    def __init__(
        self,
        src: str,
        dst: str,
        kind: str,
        payload: Any = None,
        size_bytes: int = 0,
        category: str = "control",
        msg_id: Optional[int] = None,
        sent_at: float = 0.0,
    ) -> None:
        self.src = src
        self.dst = dst
        self.kind = kind
        self.payload = payload
        self.size_bytes = (
            size_bytes if size_bytes > 0
            else HEADER_BYTES + estimate_size(payload)
        )
        self.category = category
        self.msg_id = _next_msg_id() if msg_id is None else msg_id
        self.sent_at = sent_at

    def __repr__(self) -> str:
        return (
            f"<Message #{self.msg_id} {self.kind} {self.src}->{self.dst} "
            f"{self.size_bytes}B>"
        )

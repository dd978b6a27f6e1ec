"""Traffic accounting.

Counts messages and bytes by category and kind; the comparison
experiments (T1/T2 in DESIGN.md) are built on these counters, which is
how we quantify the paper's claim that MARP "avoids heavy message
transmission".
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

__all__ = ["NetworkStats"]


class NetworkStats:
    """Message/byte counters, by (category, kind).

    When an :class:`~repro.obs.hub.ObservabilityHub` is bound (see
    :meth:`bind_hub`), every send/drop is mirrored into the hub's
    labelled ``net_*`` counter families. The hub's counters are
    cumulative across runs and are intentionally not touched by
    :meth:`merge`/:meth:`clear`, which manage only the local tallies.
    """

    def __init__(self) -> None:
        self.messages: Counter = Counter()
        self.bytes: Counter = Counter()
        self.dropped: Counter = Counter()
        self.expired = 0
        self._hub = None

    # -- observability -----------------------------------------------------

    def bind_hub(self, hub) -> None:
        """Mirror traffic accounting into an observability hub."""
        if hub is None or not getattr(hub, "enabled", False):
            return
        self._hub = hub
        labels = ("category", "kind")
        self._obs_messages = hub.counter(
            "net_messages_total", "messages handed to the network", labels
        )
        self._obs_bytes = hub.counter(
            "net_bytes_total", "payload bytes handed to the network", labels
        )
        self._obs_dropped = hub.counter(
            "net_dropped_total", "messages dropped (crash/link fault)",
            labels,
        )
        self._obs_expired = hub.counter(
            "net_expired_total",
            "messages of a kind nobody serves at their destination",
            (),
        )

    # -- recording --------------------------------------------------------

    def record_send(self, category: str, kind: str, size_bytes: int) -> None:
        key = (category, kind)
        self.messages[key] += 1
        self.bytes[key] += size_bytes
        if self._hub is not None:
            self._obs_messages.inc(category=category, kind=kind)
            self._obs_bytes.inc(size_bytes, category=category, kind=kind)

    def record_drop(self, category: str, kind: str) -> None:
        self.dropped[(category, kind)] += 1
        if self._hub is not None:
            self._obs_dropped.inc(category=category, kind=kind)

    def record_expired(self) -> None:
        """A message of a kind nobody serves at its destination, dropped
        at arrival — distinct from :meth:`record_drop`: it *arrived*. (A
        reply nobody claims any more reaches its host's claim table and
        is dropped there, uncounted.)"""
        self.expired += 1
        if self._hub is not None:
            self._obs_expired.inc()

    # -- queries -----------------------------------------------------------

    def total_messages(self, category: Optional[str] = None) -> int:
        if category is None:
            return sum(self.messages.values())
        return sum(
            count for (cat, _), count in self.messages.items() if cat == category
        )

    def total_bytes(self, category: Optional[str] = None) -> int:
        if category is None:
            return sum(self.bytes.values())
        return sum(
            count for (cat, _), count in self.bytes.items() if cat == category
        )

    def total_dropped(self) -> int:
        return sum(self.dropped.values())

    def by_kind(self) -> Dict[str, Tuple[int, int]]:
        """``kind -> (messages, bytes)`` aggregated over categories."""
        out: Dict[str, Tuple[int, int]] = {}
        for (cat, kind), count in self.messages.items():
            m, b = out.get(kind, (0, 0))
            out[kind] = (m + count, b + self.bytes[(cat, kind)])
        return out

    def merge(self, other: "NetworkStats") -> "NetworkStats":
        self.messages.update(other.messages)
        self.bytes.update(other.bytes)
        self.dropped.update(other.dropped)
        self.expired += other.expired
        return self

    def rows(self) -> List[Tuple[str, str, int, int]]:
        """Sorted ``(category, kind, messages, bytes)`` rows for reports."""
        return sorted(
            (cat, kind, count, self.bytes[(cat, kind)])
            for (cat, kind), count in self.messages.items()
        )

    def clear(self) -> None:
        self.messages.clear()
        self.bytes.clear()
        self.dropped.clear()

    def __repr__(self) -> str:
        return (
            f"<NetworkStats msgs={self.total_messages()} "
            f"bytes={self.total_bytes()} dropped={self.total_dropped()}>"
        )

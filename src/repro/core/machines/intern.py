"""Dense-integer interning for kernel hot-path state.

The flat-state kernel (see ``docs/architecture.md``, "Kernel internals")
stores protocol state — locking-list queues, Updated-List membership,
priority tallies — as preallocated flat arrays indexed by *interned*
ids: each distinct :class:`~repro.core.machines.identity.AgentId` (or host
name) a structure encounters is assigned the next dense integer slot,
first-seen order. Interning turns the dataclass hashing that dominated
``decide`` profiles (one ``AgentId.__hash__`` per membership probe)
into integer indexing into a ``bytearray``.

Two invariants keep interning invisible to the protocol:

* **Ids are aliases, never order.** Protocol tie-breaks sort by the
  *AgentId's own* total order, never by slot number — slot assignment
  depends on visit interleavings and must not leak into any decision.
  An identifier is its own sort key, so :meth:`Interner.value` is what
  a tie-break orders slots by.
* **Interning is process-local.** Nothing interned ever crosses the
  wire: ``SharedView`` / ``UpdatePayload`` / replay & adversary JSON
  carry full identifiers, and each structure re-interns on ingestion,
  so the wire and persistence formats are byte-identical to the
  pre-flattening kernel (round-trip pinned by
  ``tests/machines/test_flat_structures.py``).
"""

from __future__ import annotations

from typing import AbstractSet, Any, Dict, Hashable, Iterable, List, Optional

__all__ = ["Interner"]


class Interner:
    """First-seen-order bijection between hashable values and dense ints."""

    __slots__ = ("_values", "_index")

    def __init__(self) -> None:
        self._values: List[Any] = []
        self._index: Dict[Any, int] = {}

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value: Hashable) -> bool:
        return value in self._index

    def intern(self, value: Hashable) -> int:
        """Slot of ``value``, allocating the next dense slot if new."""
        slot = self._index.get(value)
        if slot is None:
            slot = len(self._values)
            self._index[value] = slot
            self._values.append(value)
        return slot

    def index_of(self, value: Hashable) -> Optional[int]:
        """Slot of ``value`` if already interned, else ``None``."""
        return self._index.get(value)

    def slots(self, values: Iterable[Hashable]) -> List[Optional[int]]:
        """:meth:`index_of` of each value, in one pass without a Python
        frame per value (a whole locking list is looked up at a time)."""
        return list(map(self._index.get, values))

    def known(self, values: AbstractSet) -> AbstractSet:
        """The members of the set ``values`` that are interned.

        One intersection of two sets, which reuses the hashes both
        already store (a dict view on either side would rehash every
        value); copying the index first costs its size, not theirs.
        """
        return values & set(self._index)

    def value(self, slot: int) -> Any:
        """The original value stored in ``slot``."""
        return self._values[slot]

    def values(self):
        """All interned values, slot order (a direct, do-not-mutate view)."""
        return self._values

    def __repr__(self) -> str:
        return f"<Interner n={len(self._values)}>"

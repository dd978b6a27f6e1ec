"""The replica-side mutation journal behind the view exchange.

Every migrating agent carries one :class:`~repro.core.machines.wire
.SharedView` per known server, and every visit re-merges all of them —
so both the suitcase wire size and the per-tour merge cost grow as
O(replicas × agents) even when almost nothing changed between
visits. The view exchange replaces the repeat traffic with "ship only
what the receiver hasn't seen": each :class:`ReplicaMachine` keeps a
monotone sequence number plus a bounded changelog of its lock-state
mutations, and a returning visitor that acknowledges sequence ``s``
receives a :class:`~repro.core.machines.wire.SharedViewDelta` replaying
only the events after ``s``.

Journal events (``kind``, ``payload``, ``key``):

* ``"enq"``, *agent_id*, *key* — appended to the key's Locking List
  (always at the tail);
* ``"deq"``, *agent_id*, *key* — removed from the key's Locking List;
* ``"fin"``, *agent_id*, ``None`` — added to the Updated List.

A replica keeps one journal and one sequence for all of its keys
(docs/protocol.md §2, "One lock per key"). A delta is cut for one key:
it replays that key's events and the key-free ones.

Committed versions are not lock state and are not journalled: a COMMIT
bumps the sequence only through the ``"deq"`` / ``"fin"`` it causes.

The changelog is bounded (:data:`DEFAULT_CAPACITY` events): when the
receiver's base falls off the retained window — first contact, a long
absence, or a bulk change like a recovery snapshot install (which calls
:meth:`DeltaJournal.reset`) — delta production declines and the server
falls back to a full snapshot. Correctness never depends on the window;
it only sizes how often the fallback pays full price.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.core.machines.wire import SharedViewDelta

__all__ = ["DeltaJournal", "DEFAULT_CAPACITY"]

#: Retained changelog events. Sized so that a tour-length absence at
#: paper-scale activity stays inside the window; memory cost is one
#: small tuple per retained event per replica.
DEFAULT_CAPACITY = 1024


class DeltaJournal:
    """Monotone sequence + bounded changelog for one replica."""

    def __init__(self, host: str, capacity: int = DEFAULT_CAPACITY) -> None:
        self.host = host
        self.capacity = capacity
        #: current sequence number; every logged mutation bumps it.
        self.seq = 0
        self._log: Deque[Tuple[int, str, Any]] = deque()
        #: bases below this cannot be served (evicted or reset).
        self._reset_floor = 0
        self.resets = 0

    def bump(self, kind: str, payload: Any, key: Optional[str] = None) -> int:
        """Log one mutation of ``key``'s lock state (``None``: of every
        key's, like an Updated-List addition); returns the new sequence
        number."""
        self.seq += 1
        log = self._log
        log.append((self.seq, kind, payload, key))
        if len(log) > self.capacity:
            log.popleft()
        return self.seq

    def reset(self) -> None:
        """Invalidate the whole window after a bulk state change.

        Recovery installs a snapshot and rewrites LL/UL/store state in
        one stroke; rather than journal a bulk diff, advance the
        sequence and force every receiver through the full-snapshot
        fallback once.
        """
        self.seq += 1
        self._log.clear()
        self._reset_floor = self.seq
        self.resets += 1

    @property
    def floor(self) -> int:
        """Lowest base sequence a delta can still be cut against."""
        if self._log:
            return max(self._log[0][0] - 1, self._reset_floor)
        return max(self.seq, self._reset_floor)

    def can_delta(self, base_seq: int) -> bool:
        return self.floor <= base_seq <= self.seq

    def delta_since(
        self, base_seq: int, as_of: float, key: Optional[str] = None
    ) -> Optional[SharedViewDelta]:
        """Cut a delta of ``key``'s lock state against ``base_seq``, or
        None (full fallback).

        Replays the retained events after ``base_seq`` that are
        ``key``'s or key-free into the net locking-list edit (an id
        enqueued and dequeued inside the window cancels out; a requeue
        becomes remove + re-append) and the newly finished ids, in one
        forward pass over those events.
        """
        if not self.can_delta(base_seq):
            return None
        removed: List[Any] = []
        appended: Dict[Any, None] = {}  # insertion-ordered set
        finished: List[Any] = []
        # Sequence numbers in the window are consecutive, so the events
        # after the base are exactly the newest ``seq - base_seq``:
        # taken from the right, so the older ones are never walked.
        newest = list(islice(reversed(self._log), self.seq - base_seq))
        newest.reverse()
        for _seq, kind, payload, of in newest:
            if of is not None and of != key:
                continue
            if kind == "enq":
                appended[payload] = None
            elif kind == "deq":
                if payload in appended:
                    del appended[payload]
                else:
                    removed.append(payload)
            else:  # "fin"
                finished.append(payload)
        return SharedViewDelta(
            host=self.host,
            as_of=as_of,
            base_seq=base_seq,
            seq=self.seq,
            removed=tuple(removed),
            appended=tuple(appended),
            finished=tuple(finished),
        )

    def __repr__(self) -> str:
        return (
            f"<DeltaJournal {self.host!r} seq={self.seq} "
            f"window={len(self._log)}/{self.capacity}>"
        )

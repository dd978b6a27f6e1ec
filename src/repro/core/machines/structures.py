"""Protocol-owned replica state structures.

The sans-IO kernel owns every data structure whose contents the paper's
algorithms reason about:

* the per-server **Locking List (LL)** — lock requests from visiting
  mobile agents, "sorted according to the time the entries are created"
  (paper §3.2, FIFO append order);
* the per-server **Updated List (UL)** — identifiers of agents "that
  have already obtained the lock and performed the actual update";
* the **versioned object store** — per-key versions assigned by the
  protocol, strictly increasing at every replica, which is what makes
  write-all application safe under message reordering ([D3]);
* the **commit history log** — the audit trail compared across replicas
  by :mod:`repro.analysis.consistency`.

They live here (rather than in :mod:`repro.replication`) so the kernel
has no import edge back into any execution backend.

The records among them (:class:`LockEntry`, :class:`VersionedValue`,
:class:`CommitRecord`) are slotted dataclasses, read-only by convention
but for a lock entry's ``heard_at``, which its list renews.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import ProtocolError
from repro.core.machines.identity import AgentId

__all__ = [
    "LockEntry", "LockingList", "UpdatedList", "LockView",
    "VersionedValue", "VersionedStore",
    "CommitRecord", "HistoryLog",
]


@dataclass(slots=True)
class LockEntry:
    """One agent's pending lock request at one server; ``heard_at`` is
    when the server last heard from it (enqueue, visit, UPDATE, grant)."""

    agent_id: AgentId
    request_id: int
    heard_at: float


#: An immutable view of a server's LL at a point in time: the ordered
#: tuple of agent ids, newest last. Shared between agents (information
#: sharing) and merged into Locking Tables.
LockView = Tuple[AgentId, ...]


class LockingList:
    """FIFO list of pending lock requests at one replica server.

    Flat-state backing: every entry gets the next arrival number, and
    since entries only join at the tail the numbers of the queued
    entries are ascending — so membership is a dict probe and an
    agent's position a bisection on its number, neither an equality
    scan (``begin_visit`` asks for both on every visit). The immutable
    :meth:`view` tuple is cached between mutations, since one queue
    state is snapshotted into many ``SharedView``s.
    """

    def __init__(self, host: str) -> None:
        self.host = host
        self._entries: List[LockEntry] = []
        #: arrival number per entry, in step with ``_entries``
        self._arrivals: List[int] = []
        #: queued agent id -> its entry's arrival number
        self._members: Dict[AgentId, int] = {}
        self._next_arrival = 0
        self._view_cache: Optional[LockView] = None

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, agent_id: AgentId) -> bool:
        return agent_id in self._members

    def append(self, entry: LockEntry) -> None:
        """Append a new lock request (one entry per agent)."""
        if entry.agent_id in self._members:
            raise ProtocolError(
                f"agent {entry.agent_id} already holds a lock entry at "
                f"{self.host}"
            )
        if self._entries and entry.heard_at < self._entries[-1].heard_at:
            raise ProtocolError(
                f"lock entries at {self.host} must be appended in time order"
            )
        self._entries.append(entry)
        self._arrivals.append(self._next_arrival)
        self._members[entry.agent_id] = self._next_arrival
        self._next_arrival += 1
        self._view_cache = None

    def top(self) -> Optional[AgentId]:
        """The agent currently ranked first, or None if empty."""
        return self._entries[0].agent_id if self._entries else None

    def rank(self, agent_id: AgentId) -> Optional[int]:
        """0-based position of the agent, or None if absent."""
        arrival = self._members.get(agent_id)
        if arrival is None:
            return None
        return bisect_left(self._arrivals, arrival)

    def remove(self, agent_id: AgentId) -> bool:
        """Remove the agent's entry (after its COMMIT). True if present."""
        arrival = self._members.pop(agent_id, None)
        if arrival is None:
            return False
        index = bisect_left(self._arrivals, arrival)
        del self._entries[index]
        del self._arrivals[index]
        self._view_cache = None
        return True

    def heard(self, agent_id: AgentId, now: float) -> bool:
        """Renew the agent's entry's stamp; False if it has none here."""
        arrival = self._members.get(agent_id)
        if arrival is None:
            return False
        self._entries[bisect_left(self._arrivals, arrival)].heard_at = now
        return True

    def lapse(self, cutoff: float) -> List[AgentId]:
        """Remove and return the head entries last heard before ``cutoff``."""
        lapsed = []
        while self._entries and self._entries[0].heard_at < cutoff:
            lapsed.append(self._entries[0].agent_id)
            self.remove(lapsed[-1])
        return lapsed

    def view(self) -> LockView:
        """Immutable ordered snapshot of the queued agent ids."""
        cached = self._view_cache
        if cached is None:
            cached = tuple(entry.agent_id for entry in self._entries)
            self._view_cache = cached
        return cached

    def entries(self) -> List[LockEntry]:
        return list(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self._arrivals.clear()
        self._members.clear()
        self._view_cache = None

    def __repr__(self) -> str:
        ids = ", ".join(str(e.agent_id) for e in self._entries)
        return f"<LockingList {self.host!r}: [{ids}]>"


class UpdatedList:
    """Ordered set of agents that completed their update at this server.

    Merging ULs across servers yields an agent's Updated Agents List
    (UAL) — agents known to have finished, whose (possibly stale) lock
    entries can be disregarded.

    Retention
    ---------
    The paper keeps the UL forever. A server cannot afford that: its UL
    is handed beside every full view (first contact, or a visitor whose
    base left the journal window) and merged into that agent's Locking
    Table, so an unbounded UL makes per-event
    cost *and* memory grow with total completed agents (quadratic wall
    time over a run). A :class:`~repro.core.machines.replica.ReplicaMachine`
    therefore builds its UL with ``retention = UL_WINDOW_FACTOR *
    grant_ttl`` and entries older than ``now - retention`` are pruned.
    An agent's own UAL is a plain set in its Locking Table, pruned
    harder still: at the end of every visit it keeps only the ids some
    stored queue names (:meth:`LockingTable.absorb`), the only ids
    whose entries it could otherwise mistake for live ones.

    Pruning is safe but not free: the UAL is an optimisation that lets
    deciders disregard stale LL entries of completed agents. A pruned id
    can at worst make a decider treat such a stale entry as live again
    and wait for the grant TTL / park refresh to clear it — a bounded
    liveness cost, never a safety violation, because write exclusivity
    is enforced by the server-side update grant, not the UAL. Under
    fault-free operation a RELEASE removes the LL entry within one
    message delay of completion, so a window above ``grant_ttl`` plus
    the RELEASE propagation delay makes the pruned-but-still-queued
    case vanishingly rare.
    """

    def __init__(self, retention: float) -> None:
        #: the ids in nondecreasing completion time, and those times, in
        #: step (two flat deques: no per-entry object per id)
        self._order: Deque[AgentId] = deque()
        self._times: Deque[float] = deque()
        self._members: set = set()
        self._frozen: Optional[frozenset] = None
        self.retention = retention
        self.pruned_total = 0

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, agent_id: AgentId) -> bool:
        return agent_id in self._members

    def add(self, agent_id: AgentId, at: float = 0.0) -> bool:
        """Record a completed agent. True if newly added."""
        if agent_id in self._members:
            return False
        self._members.add(agent_id)
        self._order.append(agent_id)
        self._times.append(at)
        self._frozen = None
        return True

    def prune(self, now: float) -> int:
        """Drop entries older than the retention window. Returns the
        number pruned."""
        times = self._times
        if not times:
            return 0
        cutoff = now - self.retention
        order = self._order
        members = self._members
        dropped = 0
        while times and times[0] < cutoff:
            times.popleft()
            members.discard(order.popleft())
            dropped += 1
        if dropped:
            self._frozen = None
            self.pruned_total += dropped
        return dropped

    def ids(self) -> Tuple[AgentId, ...]:
        """Completion order as an immutable tuple."""
        return tuple(self._order)

    def as_set(self) -> frozenset:
        """Frozen membership snapshot (cached between mutations — one
        queue state is snapshotted into many ``SharedView``s)."""
        cached = self._frozen
        if cached is None:
            cached = frozenset(self._members)
            self._frozen = cached
        return cached

    def __iter__(self):
        return iter(self._order)

    def __repr__(self) -> str:
        return f"<UpdatedList n={len(self._order)}>"


@dataclass(slots=True)
class VersionedValue:
    """One key's current state at a replica."""

    value: Any
    version: int
    updated_at: float

    def __repr__(self) -> str:
        return f"VersionedValue(v{self.version}={self.value!r} @ {self.updated_at:g})"


class VersionedStore:
    """Per-replica key/value store with per-key version ordering.

    Versions are per-key, assigned by the replication protocol, and
    strictly increasing at every replica: an arriving update older than
    the installed version is *stale* and ignored (the installed value
    already supersedes it). No lock view carries these versions: a
    claim learns them from its ACKs, which report only the keys its
    UPDATE names ([D3]).
    """

    # Flat-state backing: three parallel plain dicts (value / version /
    # updated-at) instead of a dict of frozen ``VersionedValue``s. The
    # hot path — ``version_of`` per ACKed key — is a single dict lookup;
    # ``VersionedValue`` objects are materialised only at the API
    # boundary (``read``/``snapshot``), whose callers are the cold
    # read/recovery/audit paths.

    def __init__(self) -> None:
        self._values: Dict[str, Any] = {}
        self._versions: Dict[str, int] = {}
        self._times: Dict[str, float] = {}
        #: versions applied, in application order, per key (for audits)
        self.applied_log: List[Tuple[str, int, float]] = []
        self.stale_rejections = 0

    def bound_applied_log(self, maxlen: int = 1024) -> None:
        """Swap the applied log for a bounded ring buffer.

        No protocol logic reads the log — it exists for audits and
        tests that inspect application order — but it grows by one
        entry per applied write, which dominates peak memory on
        million-request streaming runs (~100 B x writes x replicas).
        Streaming accounting calls this at enable time so per-host
        state stays O(1) in run length; ``apply`` keeps appending and
        the deque discards the oldest entries.
        """
        self.applied_log = deque(self.applied_log, maxlen=maxlen)

    # -- reads --------------------------------------------------------------

    def read(self, key: str) -> Optional[VersionedValue]:
        """Current versioned value, or ``None`` if never written."""
        version = self._versions.get(key)
        if version is None:
            return None
        return VersionedValue(self._values[key], version, self._times[key])

    def version_of(self, key: str) -> int:
        """Installed version for ``key`` (0 if absent)."""
        return self._versions.get(key, 0)

    def last_update_time(self, key: str) -> float:
        """Paper's 'time of last update' (-inf if never written)."""
        return self._times.get(key, float("-inf"))

    def keys(self) -> List[str]:
        return sorted(self._versions)

    def snapshot(self) -> Dict[str, VersionedValue]:
        """Copy of the full store (for recovery transfer and audits)."""
        values = self._values
        times = self._times
        return {
            key: VersionedValue(values[key], version, times[key])
            for key, version in self._versions.items()
        }

    # -- writes -------------------------------------------------------------

    def apply(
        self, key: str, value: Any, version: int, timestamp: float
    ) -> bool:
        """Install ``value`` at ``version`` if it is newer.

        Returns True if applied, False if stale (already superseded).
        Duplicate deliveries of the same version are stale by definition.
        """
        if version <= 0:
            raise ValueError(f"versions are positive integers: {version}")
        current = self._versions.get(key)
        if current is not None and version <= current:
            self.stale_rejections += 1
            return False
        self._values[key] = value
        self._versions[key] = version
        self._times[key] = timestamp
        self.applied_log.append((key, version, timestamp))
        return True

    def install_snapshot(
        self, snapshot: Dict[str, VersionedValue], timestamp: float
    ) -> int:
        """Recovery catch-up: adopt any strictly newer entries.

        Returns the number of keys updated.
        """
        updated = 0
        for key, vv in snapshot.items():
            if self.apply(key, vv.value, vv.version, timestamp):
                updated += 1
        return updated

    def __len__(self) -> int:
        return len(self._versions)

    def __repr__(self) -> str:
        return f"<VersionedStore keys={len(self._versions)}>"


@dataclass(slots=True)
class CommitRecord:
    """One committed update as seen by one replica."""

    request_id: int
    key: str
    value: Any
    version: int
    committed_at: float
    origin: str  # home server of the request

    def identity(self) -> Tuple[int, str, int]:
        """Fields that must agree across replicas for the same commit."""
        return (self.request_id, self.key, self.version)


class HistoryLog:
    """Append-only commit log of a single replica.

    Default mode retains every :class:`CommitRecord` for post-run
    audits. Streaming runs instead call :meth:`stream_to` with a sink
    (e.g. a rolling chain digest): commits are forwarded as appended and
    *not* retained, so a replica's memory stays O(1) in run length. The
    count, time-order guard and :meth:`last` keep working either way.
    """

    def __init__(self, host: str) -> None:
        self.host = host
        self._records: List[CommitRecord] = []
        self._sink: Optional[Callable[[CommitRecord], None]] = None
        self._last: Optional[CommitRecord] = None
        self._count = 0

    def stream_to(self, sink: Callable[[CommitRecord], None]) -> None:
        """Forward commits to ``sink`` instead of retaining them.

        Must be enabled before the first append (the already-retained
        prefix would otherwise be invisible to the sink).
        """
        if self._count:
            raise ProtocolError(
                f"history at {self.host} already holds {self._count} "
                "records; stream_to must be enabled before the first append"
            )
        self._sink = sink

    @property
    def streaming(self) -> bool:
        """Commits go to a sink (:meth:`stream_to`), not to this log."""
        return self._sink is not None

    def append(self, record: CommitRecord) -> None:
        last = self._last
        if last is not None and record.committed_at < last.committed_at:
            raise ValueError(
                f"history at {self.host} must be appended in time order"
            )
        self._last = record
        self._count += 1
        sink = self._sink
        if sink is not None:
            sink(record)
            return
        self._records.append(record)

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        return iter(self._records)

    def records(self) -> List[CommitRecord]:
        return list(self._records)

    def identities(self) -> List[Tuple[int, str, int]]:
        """The commit-identity sequence used for order comparison."""
        return [record.identity() for record in self._records]

    def versions_for(self, key: str) -> List[int]:
        """Version sequence applied for one key, in commit order."""
        return [r.version for r in self._records if r.key == key]

    def last(self) -> Optional[CommitRecord]:
        return self._last

    def __repr__(self) -> str:
        return f"<HistoryLog {self.host!r} commits={self._count}>"

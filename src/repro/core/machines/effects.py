"""Typed effects emitted by the protocol machines.

An effect is an *instruction to the driver*: the machine has updated its
protocol state and now needs the outside world to move something. The
kernel never performs I/O, sleeps, or samples randomness — it asks for
those through effects, and the driver (DES generator, live event loop,
or the replay harness) interprets them however its substrate requires.
Effects are slotted dataclasses, read-only by convention: once emitted,
nobody changes a field (one is built per protocol step, so the frozen
variant's per-field ``object.__setattr__`` is not paid).

Effect vocabulary (agent machine)
---------------------------------
``Migrate``       pick one of ``candidates`` (itinerary policy is the
                  driver's) and move the agent there, then feed back an
                  ``Arrived`` or ``ReplicaDown`` input.
``Visit``         redo the local exchange at the current host (after a
                  back-off), then feed back ``Arrived``.
``Park``          wait at the current host for a lock release or
                  ``timeout`` ms ([D2]), then visit + feed ``Arrived``.
``Backoff``       sample an exponential delay with the given ``mean``
                  (randomness stays driver-side so the DES stays
                  bit-reproducible), then feed ``TimerFired("backoff")``.
``SetTimer``      arm the named timer; feed ``TimerFired(kind)`` if it
                  elapses before being replaced or cancelled.
``CancelTimer``   disarm the named timer.
``Send``/``Broadcast``  transmit a protocol message.
``PostBulletin``  deposit Locking-Table views on the local bulletin.
``LockWon``/``ClaimStarted``/``ClaimResolved``/``Note``
                  protocol milestones — drivers map these to traces,
                  metrics, spans and record bookkeeping; ignoring them
                  is always safe.
``Dispose``       the agent finished (``status`` = committed/failed);
                  ``writes`` carries the final versioned writes of a
                  successful batch.

Effect vocabulary (replica machine)
-----------------------------------
``Send``          reply/forward a protocol message.
``Granted``/``Nacked``    the grant decision taken for an UPDATE (or a
                  grant taken on a visit).
``CommitApplied`` one write of a COMMIT was applied to the store.
``ReleaseNotify`` wake agents parked at this replica ([D2]).
``QueueChanged``  the Locking List length changed (gauge refresh).
``Recovered``     a crash-recovery snapshot was installed.

Effect vocabulary (coordinators)
--------------------------------
A coordinator (the quorum reader, a baseline's write round) is claimed
at its home host under its request id, emits ``Send`` / ``Broadcast`` /
``SetTimer`` / ``CancelTimer`` / ``Backoff``, and ends with
``Done``        the request's final ``status``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Optional, Tuple

from repro.core.machines.identity import AgentId
from repro.core.machines.wire import SharedView, WriteOp

__all__ = [
    "Effect",
    "Migrate", "Visit", "Park", "Backoff", "SetTimer", "CancelTimer",
    "Send", "Broadcast", "PostBulletin", "Note",
    "LockWon", "ClaimStarted", "ClaimResolved", "Dispose",
    "Granted", "Nacked", "CommitApplied", "ReleaseNotify",
    "QueueChanged", "Recovered", "Done",
]


class Effect:
    """Marker base class for everything a machine can ask a driver for."""

    __slots__ = ()


@dataclass(slots=True)
class Migrate(Effect):
    """Move the agent to one of ``candidates`` (driver picks which;
    the set has no order, so a policy that ranks by name sorts)."""

    candidates: FrozenSet[str]


@dataclass(slots=True)
class Visit(Effect):
    """Re-run the local exchange at the agent's current host."""


@dataclass(slots=True)
class Park(Effect):
    """Wait for a lock release here, or at most ``timeout`` ms ([D2])."""

    timeout: float


@dataclass(slots=True)
class Backoff(Effect):
    """Sleep an exponential delay (mean ``mean`` ms; 0 = no sleep)."""

    mean: float


@dataclass(slots=True)
class SetTimer(Effect):
    """Arm the named timer for ``delay`` ms from now."""

    kind: str
    delay: float


@dataclass(slots=True)
class CancelTimer(Effect):
    """Disarm the named timer."""

    kind: str


@dataclass(slots=True)
class Send(Effect):
    """Transmit one protocol message to ``dst``."""

    dst: str
    kind: str
    payload: Any
    category: str = ""


@dataclass(slots=True)
class Broadcast(Effect):
    """Transmit one protocol message to every replica (self included)."""

    kind: str
    payload: Any


@dataclass(slots=True)
class PostBulletin(Effect):
    """Deposit the agent's views on the local bulletin board.

    ``views`` is the Locking Table's own ``host -> view`` dict, handed
    over without a copy: it is current only until the machine's next
    input, so an interpreter deposits it at once and keeps the
    :class:`SharedView` objects, never the dict. The visited server's
    own entry may be in it; the replica ignores that one.
    """

    views: Dict[str, SharedView]


class Text:
    """Trace text formatted only if somebody records it:
    ``str(Text("rank %s of %s", 0, 3)) == "rank 0 of 3"``. (Not an
    effect, so not in ``__all__``, which is the effect vocabulary.)"""

    __slots__ = ("template", "args")

    def __init__(self, template: str, *args: Any) -> None:
        self.template = template
        self.args = args

    def __str__(self) -> str:
        return self.template % self.args


@dataclass(slots=True)
class Note(Effect):
    """A trace-worthy protocol event (kind/detail match the DES trace).

    ``detail`` is the text or a :class:`Text`; a driver that records the
    note takes ``str()`` of it, one that does not never formats it.
    """

    kind: str
    detail: Any = ""
    host: Optional[str] = None


@dataclass(slots=True)
class LockWon(Effect):
    """The agent holds the distributed lock; claim round follows."""

    reason: str
    visits: int
    visit_events: int
    parks: int


@dataclass(slots=True)
class ClaimStarted(Effect):
    """A claim is beginning: ``path`` is ``"round"`` (UPDATE broadcast)
    or ``"visit"`` (a majority of visit grants; no UPDATE is sent)."""

    epoch: int
    path: str


@dataclass(slots=True)
class ClaimResolved(Effect):
    """A claim round ended: committed, conflict, or timeout."""

    outcome: str
    epoch: int


@dataclass(slots=True)
class Dispose(Effect):
    """The agent's lifecycle ended with ``status``."""

    status: str
    writes: Tuple[WriteOp, ...] = ()


@dataclass(slots=True)
class Granted(Effect):
    """Replica issued its exclusive update grant: to an UPDATE (an ACK
    follows), or on a visit (``visit``; it rides back in the visit)."""

    agent_id: AgentId
    batch_id: int
    epoch: int
    visit: bool = False


@dataclass(slots=True)
class Nacked(Effect):
    """Replica refused an UPDATE; the grant is held by ``holder``."""

    agent_id: AgentId
    batch_id: int
    holder: Optional[AgentId] = None


@dataclass(slots=True)
class CommitApplied(Effect):
    """One committed write was applied to the replica's store."""

    agent_id: AgentId
    request_id: int
    key: str
    version: int


@dataclass(slots=True)
class ReleaseNotify(Effect):
    """A lock release happened here: wake parked agents ([D2])."""


@dataclass(slots=True)
class QueueChanged(Effect):
    """The Locking List length changed (refresh gauges/monitors)."""


@dataclass(slots=True)
class Recovered(Effect):
    """A recovery snapshot from ``src`` was installed."""

    src: str


@dataclass(slots=True)
class Done(Effect):
    """A coordinator (a quorum read, a baseline write) ended: ``status``
    is its request's final status; what it found is on the machine."""

    request_id: int
    status: str

"""Wire-level protocol payloads shared by every backend.

These are the values the machines put *inside* their ``Send`` /
``Broadcast`` effects and expect back inside ``MsgReceived`` inputs.
They carry no behaviour beyond pure accessors, and they are all
picklable — the live backend ships them (or dict renderings of them)
across real queues. The records are slotted dataclasses, read-only by
convention: nothing changes a field once the record is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.core.machines.identity import AgentId
from repro.core.machines.structures import LockView

__all__ = [
    "SharedView", "SharedViewDelta", "WriteOp",
    "UpdatePayload", "Transform", "VisitData",
]


@dataclass(slots=True)
class SharedView:
    """A (possibly stale) snapshot of one server's lock state.

    Carried by agents in their Locking Tables and deposited on server
    bulletin boards for other agents. It is the Locking List only: no
    Updated List (a visit hands that once, beside the view, in
    :class:`VisitData`) and no committed versions. A winner "checks the
    time of last update of all the quorum members" ([D3]) in its
    claim's ACKs, which report the versions of exactly the keys its
    UPDATE names.

    ``seq`` is the server's monotone mutation sequence number at
    snapshot time (``-1`` = unstamped: a hand-built view with no
    journal behind it, always merged in full). A receiver that has
    already merged this server's state through ``seq`` can discard
    the whole view in O(1): a lower-or-equal-seq snapshot's queue is
    no fresher than the one merged.
    """

    host: str
    as_of: float
    view: LockView
    seq: int = -1

    def is_newer_than(self, other: Optional["SharedView"]) -> bool:
        return other is None or self.as_of > other.as_of


@dataclass(slots=True)
class SharedViewDelta:
    """What changed at one server since the receiver's acked sequence.

    The returning-visitor wire format: instead of a full
    :class:`SharedView` and the Updated List beside it (O(agents) per
    snapshot), a server hands a
    returning visitor only the mutations logged between the visitor's
    acknowledged sequence ``base_seq`` and the current ``seq``:

    * ``removed`` / ``appended`` — the net locking-list edit. The LL
      only ever appends at the tail and removes in place (removals
      preserve the order of the remainder), so the receiver's queue
      reconstruction is exact:
      ``[a for a in base if a not in removed] + appended``.
    * ``finished`` — agent ids newly added to the server's Updated List.

    A delta is only valid against the precise base it was cut for; on
    first contact, after a journal gap (bounded changelog evicted the
    base) or after a bulk state change (recovery snapshot install) the
    server falls back to a full :class:`SharedView`.
    """

    host: str
    as_of: float
    base_seq: int
    seq: int
    removed: Tuple[AgentId, ...] = ()
    appended: Tuple[AgentId, ...] = ()
    finished: Tuple[AgentId, ...] = ()

    def wire_size(self) -> int:
        # Structural, like the generic estimate: ids at their own wire
        # size, 8 B per number, 16 B container overhead per field.
        return (
            16 + len(self.host.encode("utf-8")) + 8  # host + as_of
            + 8 + 8  # base_seq + seq
            + 16 + sum(a.wire_size() for a in self.removed)
            + 16 + sum(a.wire_size() for a in self.appended)
            + 16 + sum(a.wire_size() for a in self.finished)
        )


@dataclass(slots=True)
class WriteOp:
    """One write within an UPDATE batch (the agent's Request List)."""

    request_id: int
    key: str
    value: Any
    version: int

    def wire_size(self) -> int:
        # Must equal the generic structural estimate (16 + per-field
        # sizes): message sizes feed the network latency model, so any
        # drift here changes event timing and breaks run fingerprints.
        from repro.net.message import estimate_size

        return (
            16 + 8 + len(self.key.encode("utf-8"))
            + estimate_size(self.value) + 8
        )


@dataclass(slots=True)
class UpdatePayload:
    """Body of UPDATE/COMMIT/ABORT/RELEASE messages.

    ``batch_id`` identifies the agent's update batch (= the first carried
    request id); ``epoch`` distinguishes successive claim attempts of the
    same agent so stale acknowledgements from an abandoned claim cannot
    be counted toward a later one. UPDATE and RELEASE carry no writes;
    COMMIT carries the full Request List with the final versions.
    ``keys`` is set on UPDATE only: the keys the batch will write, whose
    versions each ACK reports ([D3]); ``None`` on every other kind.

    ``trace_id`` is the sender's causal trace context (see
    :mod:`repro.obs.journeys`): purely observational, never consulted by
    protocol logic, but carried on the wire so replica-side telemetry
    can attribute grant/commit work to the agent journey that caused it.
    """

    batch_id: int
    agent_id: AgentId
    origin: str
    writes: Tuple[WriteOp, ...] = ()
    reply_to: str = ""
    epoch: int = 0
    trace_id: Optional[str] = None
    keys: Optional[Tuple[str, ...]] = None

    def wire_size(self) -> int:
        # Equals the generic structural estimate exactly (see WriteOp).
        # A broadcast sizes its payload once for all N copies.
        return (
            16 + 8 + self.agent_id.wire_size()
            + len(self.origin.encode("utf-8"))
            + 16 + sum(op.wire_size() for op in self.writes)
            + len(self.reply_to.encode("utf-8")) + 8
            + (0 if self.trace_id is None
               else len(self.trace_id.encode("utf-8")))
            + (0 if self.keys is None
               else 16 + sum(len(k.encode("utf-8")) for k in self.keys))
        )


class Transform:
    """A read-modify-write update: ``new_value = fn(current_value)``.

    Submit via :meth:`MARP.submit_rmw`. The winning agent fetches the
    freshest committed copy from its acknowledgement quorum ("uses the
    most recent copy", paper §3.1) before applying ``fn``, so the
    transformation always sees the latest committed state.
    """

    __slots__ = ("fn", "description")

    def __init__(self, fn, description: str = "") -> None:
        if not callable(fn):
            raise TypeError(f"Transform needs a callable, got {fn!r}")
        self.fn = fn
        self.description = description or getattr(fn, "__name__", "fn")

    def __call__(self, current):
        return self.fn(current)

    def wire_size(self) -> int:
        # A shipped transformation is code; charge a small fixed cost.
        return 128

    def __repr__(self) -> str:
        return f"Transform({self.description})"


@dataclass(slots=True)
class VisitData:
    """What a replica hands a co-located agent during one visit.

    Produced by :meth:`ReplicaMachine.begin_visit` and fed into the
    agent machine as part of an :class:`~repro.core.machines.events.Arrived`
    input: the fresh lock view, the bulletin board, and the agent's rank
    in the Locking List (for tracing). ``view`` is a
    :class:`SharedViewDelta` whenever the visitor's acked sequence is
    inside the server's journal window, a full :class:`SharedView`
    otherwise; ``finished`` is the server's Updated List beside a full
    view, empty beside a delta (which carries its own ``finished``).
    ``grant`` is set when the visit took the server's exclusive grant
    for the visitor (it asked, and stood alone in the Locking List):
    ``(versions of the visitor's keys, taken_at)``, what an ACK to
    its UPDATE would have reported, and when the grant was taken.
    """

    view: Any  # SharedView | SharedViewDelta
    bulletin: Any  # Dict[str, SharedView]
    rank: Optional[int]
    ll_len: int
    enqueued: bool
    finished: frozenset
    grant: Optional[Tuple[Dict[str, int], float]] = None

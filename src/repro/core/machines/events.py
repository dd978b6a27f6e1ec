"""Typed inputs consumed by the protocol machines.

Every way the world can poke the protocol is one of these values. Time
enters the kernel **only** through the ``now`` field — the machines
never read a clock — and the inputs carry data, never live objects
(no sockets, queues, events or Environments).
Like the effects they are slotted dataclasses, read-only by convention.

Input vocabulary
----------------
``Arrived``
    The agent completed a local visit at a replica (arrival — or wake-up
    at the current host — plus the synchronous information exchange):
    the replica's fresh lock view (with its Updated List beside a full
    view), its bulletin board, the agent's rank in the Locking List, and
    the grant the visit took for the agent, if any.
``ReplicaDown``
    A migration attempt to ``host`` failed permanently for this round
    (paper §2's unavailability declaration).
``MsgReceived``
    A protocol message was delivered. For the agent machine: ACK, NACK,
    READR. For a coordinator: the replies to its request (a quorum
    read's READRs or RVALs, a voting round's GRANT/NACKs, ...). For the
    replica machine: UPDATE, COMMIT, ABORT, RELEASE, SYNC_REQUEST,
    SYNC_REPLY, READQ.
``TimerFired``
    A timer previously requested via a ``SetTimer``/``Backoff`` effect
    elapsed. ``kind`` is the timer's name ("ack", "fetch", "backoff").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.core.machines.wire import SharedView

__all__ = ["Arrived", "ReplicaDown", "MsgReceived", "TimerFired"]


@dataclass(slots=True)
class Arrived:
    """Agent input: a completed visit (arrival + local exchange)."""

    host: str
    now: float
    view: SharedView
    bulletin: Dict[str, SharedView] = field(default_factory=dict)
    rank: Optional[int] = None
    ll_len: int = 0
    finished: frozenset = frozenset()
    grant: Optional[Tuple[Dict[str, int], float]] = None


@dataclass(slots=True)
class ReplicaDown:
    """Agent input: ``host`` declared unavailable for this round."""

    host: str
    now: float


@dataclass(slots=True)
class MsgReceived:
    """A delivered protocol message (agent or replica machine)."""

    kind: str
    payload: Any
    now: float
    src: str = ""
    sent_at: float = 0.0


@dataclass(slots=True)
class TimerFired:
    """A previously requested timer elapsed."""

    kind: str
    now: float

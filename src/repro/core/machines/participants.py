"""The message-passing baselines' participants, sans-IO.

A baseline's coordinator (:mod:`~repro.core.machines.coordinators`)
talks to one participant per host: the stationary process that locks,
votes and applies for the protocol. Like the replica machine, it takes
one message in ``on_message`` and returns ``Send`` effects, and every
write it applies goes through the host replica's
:meth:`~repro.core.machines.replica.ReplicaMachine.apply_write`, so the
consistency auditor reads the same histories as for MARP. It declares
the ``kinds`` it takes and the ``reply_kinds`` its protocol's
coordinators claim by ``rid``; the host's interpreter routes both
(:meth:`~repro.core.machines.interpreter.EffectInterpreter.attach`).

* :class:`LockKeeper` — MCV, weighted voting and Available Copies:
  LOCK → GRANT or NACK (Available Copies queues instead), then APPLY,
  ABORT or READV, with per-key leases and epoch-guarded releases.
* :class:`CopyKeeper` — primary copy: the primary orders and applies
  each write, then ships it to every backup; a backup applies the
  shipped writes in version order.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import ProtocolError
from repro.core.machines.effects import Effect, Send
from repro.core.machines.events import MsgReceived
from repro.core.machines.replica import ReplicaMachine
from repro.core.machines.wire import WriteOp

__all__ = ["LockKeeper", "CopyKeeper"]


class _Participant:
    """What every participant is: one protocol's process at ``host``,
    over that host's replica. ``kinds`` maps each kind it takes to its
    handler (a plain function, so the table holds no cycle)."""

    kinds: Dict[str, Callable[[Any, dict, float], List[Effect]]]
    reply_kinds: Tuple[str, ...]

    def __init__(self, prefix: str, host: str,
                 replica: ReplicaMachine) -> None:
        self.prefix = prefix
        self.host = host
        self.replica = replica

    def on(self, event: MsgReceived) -> List[Effect]:
        return self.on_message(
            event.kind, event.payload, src=event.src, now=event.now
        )

    def on_message(self, kind: str, payload: Any, src: str = "",
                   now: float = 0.0) -> List[Effect]:
        handle = self.kinds.get(kind)
        if handle is None:
            raise ProtocolError(f"{self.host}'s participant cannot handle "
                                f"{kind!r}")
        return handle(self, payload, now)


class LockKeeper(_Participant):
    """One host's locks for a voting baseline (or Available Copies).

    A LOCK for a free key — never locked, held by the same request, or
    under a lease more than ``lock_ttl`` ms old — is granted with this host's
    ``votes`` and the key's version. A busy key NACKs, or, with
    ``queue`` (Available Copies' strict 2PL), queues the LOCK until the
    holder's APPLY or ABORT hands the grant to the oldest waiter.
    A grant carries its request's epoch (its round): an ABORT frees
    only grants of its own epoch or older, so a retry's LOCK that
    overtook the previous round's ABORT keeps its grant, and a
    same-holder re-lock keeps the newer of the two epochs.
    """

    def __init__(self, prefix: str, host: str, replica: ReplicaMachine,
                 votes: int, lock_ttl: float, queue: bool = False) -> None:
        super().__init__(prefix, host, replica)
        self.votes = votes
        self.lock_ttl = lock_ttl
        self.queue = queue
        self.kinds = {
            f"{prefix}_LOCK": LockKeeper._on_lock,
            f"{prefix}_APPLY": LockKeeper._on_apply,
            f"{prefix}_ABORT": LockKeeper._on_abort,
            f"{prefix}_READV": LockKeeper._on_readv,
        }
        self.reply_kinds = (f"{prefix}_GRANT", f"{prefix}_NACK",
                            f"{prefix}_RVAL")
        #: key -> (holder rid, holder epoch, lease expiry)
        self.locks: Dict[str, Tuple[int, int, float]] = {}
        #: key -> LOCK payloads waiting for it, oldest first (``queue``)
        self.waiters: Dict[str, Deque[dict]] = {}
        self.grants_given = 0
        self.nacks_given = 0

    def _on_lock(self, p: dict, now: float) -> List[Effect]:
        key, rid = p["key"], p["rid"]
        held = self.locks.get(key)
        if held is None or held[0] == rid or now > held[2]:
            return [self._grant(key, p, now)]
        if self.queue:
            queue = self.waiters.setdefault(key, deque())
            if all(w["rid"] != rid for w in queue):
                queue.append(p)
            return []
        self.nacks_given += 1
        return [Send(p["reply_to"], f"{self.prefix}_NACK", {
            "rid": rid, "epoch": p["epoch"], "from": self.host,
            "votes": self.votes,
        })]

    def _grant(self, key: str, p: dict, now: float) -> Send:
        rid, epoch = p["rid"], p["epoch"]
        held = self.locks.get(key)
        # A stale LOCK must not roll the epoch back under a newer grant.
        if held is not None and held[0] == rid:
            epoch = max(epoch, held[1])
        self.locks[key] = (rid, epoch, now + self.lock_ttl)
        self.grants_given += 1
        return Send(p["reply_to"], f"{self.prefix}_GRANT", {
            "rid": rid, "epoch": p["epoch"], "from": self.host,
            "votes": self.votes, "version": self.replica.version_of(key),
        })

    def _on_apply(self, p: dict, now: float) -> List[Effect]:
        for write in p["writes"]:
            self.replica.apply_write(write, p["origin"], now)
        # APPLY is terminal: release every epoch.
        return self._release(p["rid"], None, now)

    def _on_abort(self, p: dict, now: float) -> List[Effect]:
        rid = p["rid"]
        for queue in self.waiters.values():
            for waiter in list(queue):
                if waiter["rid"] == rid:
                    queue.remove(waiter)
        return self._release(rid, p["epoch"], now)

    def _release(self, rid: int, up_to_epoch: Optional[int],
                 now: float) -> List[Effect]:
        """Free ``rid``'s grants (with ``up_to_epoch``, those of no
        newer epoch), each to its key's oldest waiter if any."""
        effects: List[Effect] = []
        for key, (holder, epoch, _expires) in list(self.locks.items()):
            if holder != rid:
                continue
            if up_to_epoch is not None and epoch > up_to_epoch:
                continue
            del self.locks[key]
            queue = self.waiters.get(key)
            if queue:
                effects.append(self._grant(key, queue.popleft(), now))
        return effects

    def _on_readv(self, p: dict, now: float) -> List[Effect]:
        entry = self.replica.read(p["key"])
        return [Send(p["reply_to"], f"{self.prefix}_RVAL", {
            "rid": p["rid"], "from": self.host, "votes": self.votes,
            "version": entry.version if entry else 0,
            "value": entry.value if entry else None,
        })]


class CopyKeeper(_Participant):
    """One host of primary copy: the ``primary`` or one of ``backups``.

    The primary takes WRITE: it gives the write the key's next version,
    applies it, sends it to every backup (APPLY) and acknowledges the
    origin (DONE). A backup takes APPLY. The network is not FIFO, but
    log shipping must apply in order, so a backup holds a version until
    its predecessor is applied. Between messages no held version is the
    next one of its key, so only the keys a message carries can become
    applicable — unless a recovery installed a snapshot under the held
    versions, which may free any of them.
    """

    def __init__(self, prefix: str, host: str, replica: ReplicaMachine,
                 primary: str, backups: Sequence[str]) -> None:
        super().__init__(prefix, host, replica)
        self.backups = backups
        self.kinds = (
            {f"{prefix}_WRITE": CopyKeeper._on_write} if host == primary
            else {f"{prefix}_APPLY": CopyKeeper._on_apply}
        )
        self.reply_kinds = (f"{prefix}_DONE",)
        self.writes_serialized = 0
        #: key -> {version: (write, origin)} held for their predecessors
        self.reorder: Dict[str, Dict[int, Tuple[WriteOp, str]]] = {}
        self.recoveries = replica.recoveries

    def _on_write(self, p: dict, now: float) -> List[Effect]:
        rid, origin = p["rid"], p["origin"]
        write = WriteOp(
            request_id=rid, key=p["key"], value=p["value"],
            version=self.replica.version_of(p["key"]) + 1,
        )
        self.replica.apply_write(write, origin, now)
        self.writes_serialized += 1
        shipped = {"writes": (write,), "origin": origin}
        effects: List[Effect] = [
            Send(host, f"{self.prefix}_APPLY", shipped)
            for host in self.backups
        ]
        effects.append(Send(origin, f"{self.prefix}_DONE", {"rid": rid}))
        return effects

    def _on_apply(self, p: dict, now: float) -> List[Effect]:
        writes, origin = p["writes"], p["origin"]
        reorder, replica = self.reorder, self.replica
        for write in writes:
            reorder.setdefault(write.key, {})[write.version] = (write, origin)
        if replica.recoveries != self.recoveries:
            self.recoveries = replica.recoveries
            touched = list(reorder)
        else:
            touched = dict.fromkeys(write.key for write in writes)
        version_of = replica.store.version_of
        for key in touched:
            held = reorder[key]
            next_version = version_of(key) + 1
            while next_version in held:
                write, origin = held.pop(next_version)
                replica.apply_write(write, origin, now)
                next_version += 1
            if not held:
                del reorder[key]
        return []

"""The message-passing baselines' write coordinators, sans-IO.

The paper's case against conventional replication (§1) is the
coordinator that passes messages in rounds and waits for replies. Each
baseline's write is one of these machines at the request's home host,
claimed there under its request id: the interpreter hands it the
replies to its request from the claim table, runs its timers, and the
machine ends with ``Done`` — the request's final status; what it found
stays on the machine. Message kinds carry the protocol's ``prefix``
(``MCV_LOCK``, ``AC_GRANT``, ``PC_WRITE``, ...), and every payload is
what the participants (:mod:`~repro.core.machines.participants`) read.

* :class:`VotingMachine` — the voting round of ``QuorumProtocol`` (MCV,
  weighted voting): LOCK to every replica, GRANT/NACK votes tallied per
  epoch until a write quorum, the impossibility of one or the deadline;
  then APPLY to all, or ABORT and a back-off growing with the attempt,
  up to ``max_rounds`` rounds.
* :class:`LadderMachine` — Available Copies: one LOCK per replica in
  host order, each rung ending at that host's GRANT or, at the
  detection timeout, an ABORT to it and a skip; APPLY to those that
  granted.
* :class:`ForwardMachine` — primary copy: the write forwarded to the
  primary, done at its acknowledgement or failed at the write timeout.

The quorum read of the voting baselines is
:class:`~repro.core.machines.reader.ReaderMachine`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.core.machines.effects import (
    Backoff, Broadcast, CancelTimer, Done, Effect, Send, SetTimer,
)
from repro.core.machines.events import MsgReceived, TimerFired
from repro.core.machines.wire import WriteOp

__all__ = ["VotingMachine", "LadderMachine", "ForwardMachine"]


class _Coordinator:
    """What every coordinator is: one request's write from ``home``."""

    def __init__(self, prefix: str, request_id: int, key: str, value: Any,
                 home: str) -> None:
        self.prefix = prefix
        self.request_id = request_id
        self.key = key
        self.value = value
        self.home = home
        #: the write the request commits, once it does
        self.writes: Tuple[WriteOp, ...] = ()
        #: ``Done`` was emitted: nothing more is taken
        self.done = False

    def on(self, event) -> List[Effect]:
        if isinstance(event, MsgReceived):
            return self.on_message(event.kind, event.payload, event.now)
        return self.on_timer(event)

    def _finish(self, status: str) -> Done:
        self.done = True
        return Done(self.request_id, status)

    def _commit(self, version: int) -> Dict[str, Any]:
        """Fix the request's write at ``version``; its APPLY payload."""
        self.writes = (WriteOp(
            request_id=self.request_id, key=self.key, value=self.value,
            version=version,
        ),)
        return {"rid": self.request_id, "writes": self.writes,
                "origin": self.home}


class VotingMachine(_Coordinator):
    """Lock rounds until a write quorum of votes (Thomas, Gifford).

    Round ``attempt`` is its epoch: only its own GRANT/NACKs count, one
    GRANT per replica, each worth the votes it carries. The round ends
    at a write quorum (commit at one above the highest version granted),
    at NACKs that leave no quorum possible, or ``lock_timeout`` ms after
    it began; a failed round is aborted everywhere and retried after a
    back-off of mean ``retry_backoff × attempt``, and the last failed
    one backs off before it fails the write.
    """

    def __init__(self, prefix: str, request_id: int, key: str, value: Any,
                 home: str, total_votes: int, write_quorum: int,
                 lock_timeout: float, retry_backoff: float,
                 max_rounds: int) -> None:
        super().__init__(prefix, request_id, key, value, home)
        self.total_votes = total_votes
        self.write_quorum = write_quorum
        self.lock_timeout = lock_timeout
        self.retry_backoff = retry_backoff
        self.max_rounds = max_rounds
        self.attempt = 0
        #: a round is open: its replies count
        self.tallying = False
        #: host -> version, of this round's GRANTs
        self.grants: Dict[str, int] = {}
        self.granted_votes = 0
        self.nack_votes = 0

    def start(self) -> List[Effect]:
        return self._round()

    def _round(self) -> List[Effect]:
        self.attempt += 1
        self.tallying = True
        self.grants = {}
        self.granted_votes = self.nack_votes = 0
        return [
            Broadcast(f"{self.prefix}_LOCK", {
                "rid": self.request_id, "epoch": self.attempt,
                "key": self.key, "reply_to": self.home,
            }),
            SetTimer("round", self.lock_timeout),
        ]

    def on_message(self, kind: str, payload: Any, now: float) -> List[Effect]:
        if not self.tallying or payload["epoch"] != self.attempt:
            return []
        if kind == f"{self.prefix}_GRANT":
            sender = payload["from"]
            if sender not in self.grants:
                self.grants[sender] = payload["version"]
                self.granted_votes += payload["votes"]
            if self.granted_votes < self.write_quorum:
                return []
        elif kind == f"{self.prefix}_NACK":
            self.nack_votes += payload["votes"]
            if self.total_votes - self.nack_votes >= self.write_quorum:
                return []
        else:
            return []
        return [CancelTimer("round"), *self._round_over()]

    def on_timer(self, event: TimerFired) -> List[Effect]:
        if event.kind == "round" and self.tallying:
            return self._round_over()
        if event.kind == "backoff" and not (self.tallying or self.done):
            if self.attempt < self.max_rounds:
                return self._round()
            return [self._finish("failed")]
        return []

    def _round_over(self) -> List[Effect]:
        """Commit with a write quorum; otherwise abort and back off."""
        self.tallying = False
        if self.granted_votes >= self.write_quorum:
            version = 1 + max(self.grants.values())
            return [
                Broadcast(f"{self.prefix}_APPLY", self._commit(version)),
                self._finish("committed"),
            ]
        return [
            Broadcast(f"{self.prefix}_ABORT",
                      {"rid": self.request_id, "epoch": self.attempt}),
            Backoff(self.retry_backoff * self.attempt),
        ]


class LadderMachine(_Coordinator):
    """Available Copies' lock ladder: strict 2PL climbed in host order.

    Rung ``index`` asks ``hosts[index]`` alone for its lock; only that
    host's GRANT ends the rung (a late one from a host already given up
    on is not this rung's). At ``detection_timeout`` the host is
    declared unavailable: its possibly queued LOCK is aborted and it is
    skipped. At the top, APPLY goes to the hosts that granted; with none
    the write fails.
    """

    def __init__(self, prefix: str, request_id: int, key: str, value: Any,
                 home: str, hosts: Sequence[str],
                 detection_timeout: float) -> None:
        super().__init__(prefix, request_id, key, value, home)
        self.hosts = hosts
        self.detection_timeout = detection_timeout
        self.index = 0
        #: host -> version, of the hosts that granted, in rung order
        self.grants: Dict[str, int] = {}
        self.skipped: List[str] = []

    def start(self) -> List[Effect]:
        return self._rung()

    def _rung(self) -> List[Effect]:
        if self.index == len(self.hosts):
            return self._climbed()
        return [
            Send(self.hosts[self.index], f"{self.prefix}_LOCK", {
                "rid": self.request_id, "epoch": 1, "key": self.key,
                "reply_to": self.home,
            }),
            SetTimer("rung", self.detection_timeout),
        ]

    def on_message(self, kind: str, payload: Any, now: float) -> List[Effect]:
        if (self.done
                or kind != f"{self.prefix}_GRANT" or payload["epoch"] != 1
                or payload["from"] != self.hosts[self.index]):
            return []
        self.grants[payload["from"]] = payload["version"]
        self.index += 1
        return [CancelTimer("rung"), *self._rung()]

    def on_timer(self, event: TimerFired) -> List[Effect]:
        if self.done or event.kind != "rung":
            return []
        host = self.hosts[self.index]
        self.skipped.append(host)
        self.index += 1
        return [
            Send(host, f"{self.prefix}_ABORT",
                 {"rid": self.request_id, "epoch": 1}),
            *self._rung(),
        ]

    def _climbed(self) -> List[Effect]:
        if not self.grants:
            return [self._finish("failed")]
        # Write-all-*available*: only the replicas that granted.
        payload = self._commit(1 + max(self.grants.values()))
        effects: List[Effect] = [
            Send(host, f"{self.prefix}_APPLY", payload)
            for host in self.grants
        ]
        effects.append(self._finish("committed"))
        return effects


class ForwardMachine(_Coordinator):
    """Primary copy's forward: the write to ``primary``, then its DONE
    (committed) or ``write_timeout`` (failed), whichever comes first."""

    def __init__(self, prefix: str, request_id: int, key: str, value: Any,
                 home: str, primary: str, write_timeout: float) -> None:
        super().__init__(prefix, request_id, key, value, home)
        self.primary = primary
        self.write_timeout = write_timeout

    def start(self) -> List[Effect]:
        return [
            Send(self.primary, f"{self.prefix}_WRITE", {
                "rid": self.request_id, "key": self.key,
                "value": self.value, "origin": self.home,
            }),
            SetTimer("write", self.write_timeout),
        ]

    def on_message(self, kind: str, payload: Any, now: float) -> List[Effect]:
        if self.done or kind != f"{self.prefix}_DONE":
            return []
        return [CancelTimer("write"), self._finish("committed")]

    def on_timer(self, event: TimerFired) -> List[Effect]:
        if self.done or event.kind != "write":
            return []
        return [self._finish("failed")]

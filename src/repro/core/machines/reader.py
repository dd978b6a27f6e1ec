"""The client quorum read ([D5]): a query to every replica, then the newest
version among replies worth a read quorum of votes, so it observes every
update whose COMMIT reached a write quorum (the paper's own read is
local: fast, not guaranteed fresh). MARP's read is READQ / READR at one
vote per replica; the voting baselines' is their READV / RVAL, weighed
by their vote assignment. The home host's interpreter runs the machine
and hands it the replies from its claim table, which takes only this
read's."""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.machines.effects import (
    Broadcast, CancelTimer, Done, Effect, SetTimer,
)
from repro.core.machines.events import MsgReceived, TimerFired

__all__ = ["ReaderMachine"]


class ReaderMachine:
    """One quorum read: ``query`` broadcast, done once replies worth
    ``quorum`` votes came, one per replica (``votes`` weighs each; one
    vote a replica when it is absent), or failed with what came
    ``timeout`` ms after the start."""

    def __init__(self, request_id: int, query: Broadcast, quorum: int,
                 timeout: float,
                 votes: Optional[Dict[str, int]] = None) -> None:
        self.request_id = request_id
        self.query = query
        self.quorum = quorum
        self.timeout = timeout
        self.votes = votes
        self.replied = set()
        #: the votes of the replicas in :attr:`replied`
        self.tally = 0
        self.version = 0
        self.value: Any = None
        self.done = False

    def start(self) -> List[Effect]:
        return [self.query, SetTimer("read", self.timeout)]

    def on(self, event) -> List[Effect]:
        if isinstance(event, MsgReceived):
            return self.on_message(event.kind, event.payload, event.now)
        return self.on_timer(event)

    def on_message(self, kind: str, payload: Any, now: float) -> List[Effect]:
        sender = payload["from"]
        if self.done or sender in self.replied:
            return []
        self.replied.add(sender)
        self.tally += 1 if self.votes is None else self.votes.get(sender, 0)
        if payload["version"] >= self.version:
            self.version = payload["version"]
            self.value = payload["value"]
        if self.tally < self.quorum:
            return []
        return [CancelTimer("read"), self._done()]

    def on_timer(self, event: TimerFired) -> List[Effect]:
        return [] if event.kind != "read" or self.done else [self._done()]

    def _done(self) -> Done:
        self.done = True
        return Done(
            self.request_id,
            "read-done" if self.tally >= self.quorum else "failed",
        )

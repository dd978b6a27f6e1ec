"""The client quorum read ([D5]): READQ to every replica, then the newest
version among a majority of READRs, so it observes every update whose
COMMIT reached a majority (the paper's own read is local: fast, not
guaranteed fresh). The home host's interpreter runs the machine and hands
it the READRs from its claim table."""

from __future__ import annotations

from typing import Any, List

from repro.core.machines.effects import (
    Broadcast, CancelTimer, Effect, ReadDone, SetTimer,
)
from repro.core.machines.events import MsgReceived, TimerFired

__all__ = ["ReaderMachine"]


class ReaderMachine:
    """One quorum read of ``key``: done at a majority of READRs, one per
    replica, or failed with what came ``timeout`` ms after the start."""

    def __init__(self, request_id: int, key: str, majority: int,
                 timeout: float) -> None:
        self.request_id = request_id
        self.key = key
        self.majority = majority
        self.timeout = timeout
        self.replied = set()
        self.version = 0
        self.value: Any = None
        self.done = False

    def start(self) -> List[Effect]:
        return [
            Broadcast("READQ", {"request_id": self.request_id, "key": self.key}),
            SetTimer("read", self.timeout),
        ]

    def on(self, event) -> List[Effect]:
        if isinstance(event, MsgReceived):
            return self.on_message(event.kind, event.payload, event.now)
        return self.on_timer(event)

    def on_message(self, kind: str, payload: Any, now: float) -> List[Effect]:
        if (kind != "READR" or self.done
                or payload["request_id"] != self.request_id
                or payload["from"] in self.replied):
            return []
        self.replied.add(payload["from"])
        if payload["version"] >= self.version:
            self.version = payload["version"]
            self.value = payload["value"]
        if len(self.replied) < self.majority:
            return []
        return [CancelTimer("read"), self._done()]

    def on_timer(self, event: TimerFired) -> List[Effect]:
        return [] if event.kind != "read" or self.done else [self._done()]

    def _done(self) -> ReadDone:
        self.done = True
        replies = len(self.replied)
        return ReadDone(self.request_id, self.value, self.version, replies,
                        replies >= self.majority)

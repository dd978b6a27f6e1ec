"""Composite wait condition: wait for *any* of several events.

``AnyOf`` triggers as soon as one constituent event has been processed,
with a dictionary mapping the constituents already processed at fire
time to their values. A failure of any constituent fails the condition
with the same exception. It is what a process yields to wait for a
reply *or* a timeout (``get | env.timeout(ttl)``).

Implementation note: the condition counts *processed* events (callbacks
run), not merely *triggered* ones — a :class:`~repro.sim.core.Timeout`
carries its value from construction and is therefore "triggered" long
before it actually occurs.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import SimulationError
from repro.sim.events import Event

__all__ = ["AnyOf"]


class AnyOf(Event):
    """Triggers as soon as one constituent event occurs.

    An ``AnyOf`` over zero events triggers immediately (vacuously), which
    keeps ``reduce``-style composition total.
    """

    __slots__ = ("_events",)

    def __init__(self, env, events: List[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        for event in self._events:
            if event.env is not env:
                raise SimulationError(
                    "all events of a condition must share one environment"
                )
        satisfied = not self._events
        for event in self._events:
            if event.callbacks is None:
                # Already processed before the condition was built.
                if not event._ok:
                    event._defused = True
                    self.fail(event._value)
                    return
                satisfied = True
            else:
                event.callbacks.append(self._check)
        if satisfied:
            self.succeed(self._collect())

    def _collect(self) -> Dict[Event, object]:
        return {
            event: event._value
            for event in self._events
            if event.callbacks is None and event._ok
        }

    def _check(self, event: Event) -> None:
        if not event._ok:
            event._defused = True
            if not self.triggered:
                self.fail(event._value)
        elif not self.triggered:
            self.succeed(self._collect())

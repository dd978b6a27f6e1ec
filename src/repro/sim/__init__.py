"""Deterministic discrete-event simulation kernel.

A self-contained, generator-based DES engine holding exactly what the
MARP substrate schedules: processes are Python generators that advance
by yielding :class:`~repro.sim.events.Event` objects (a
:class:`~repro.sim.core.Timeout`, a :class:`~repro.sim.stores.RoutedStore`
get, an ``a | b`` :class:`~repro.sim.conditions.AnyOf`); the
:class:`~repro.sim.core.Environment` owns the clock and the event queue;
:class:`~repro.sim.rng.RandomStreams` names the random streams.

Quick example::

    from repro.sim import Environment

    def clock(env, name, tick):
        while True:
            yield env.timeout(tick)
            print(name, env.now)

    env = Environment()
    env.process(clock(env, "fast", 1))
    env.run(until=5)
"""

from repro.sim.conditions import AnyOf
from repro.sim.core import (
    NORMAL, URGENT, Environment, Process, Timeout, Urgent,
)
from repro.sim.events import PENDING, Event
from repro.sim.monitor import StateMonitor
from repro.sim.rng import RandomStreams, Stream
from repro.sim.stores import RoutedStore

__all__ = [
    "Environment",
    "Process",
    "Event",
    "Timeout",
    "Urgent",
    "AnyOf",
    "RoutedStore",
    "StateMonitor",
    "RandomStreams",
    "Stream",
    "PENDING",
    "URGENT",
    "NORMAL",
]

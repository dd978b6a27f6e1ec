"""Deterministic discrete-event simulation kernel.

A self-contained, generator-based DES engine in the style of SimPy:
processes are Python generators that advance by yielding
:class:`~repro.sim.events.Event` objects; the
:class:`~repro.sim.core.Environment` owns the clock and the event queue.

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

from repro.sim.conditions import AllOf, AnyOf, Condition
from repro.sim.core import (
    NORMAL, URGENT, Environment, Process, Timeout, Urgent,
)
from repro.sim.events import PENDING, Event
from repro.sim.interrupts import Interrupt
from repro.sim.monitor import StateMonitor
from repro.sim.resources import PriorityResource, Request, Resource
from repro.sim.rng import RandomStreams, Stream
from repro.sim.stores import PriorityItem, PriorityStore, RoutedStore, Store

__all__ = [
    "Environment",
    "Process",
    "Event",
    "Timeout",
    "Urgent",
    "Interrupt",
    "AllOf",
    "AnyOf",
    "Condition",
    "Store",
    "RoutedStore",
    "PriorityStore",
    "PriorityItem",
    "Resource",
    "PriorityResource",
    "Request",
    "StateMonitor",
    "RandomStreams",
    "Stream",
    "PENDING",
    "URGENT",
    "NORMAL",
]

"""Itinerary strategies: choosing the next server to visit.

Paper §3.2: the Un-visited Servers List (USL) "is sorted by the cost of
travelling from the current location" and the routing information provided
by each server is used "to determine the replicated server to visit
next". That is the :class:`CostSorted` strategy (greedy
nearest-unvisited-first, re-evaluated after every hop). The alternatives
here exist for the A1 ablation (DESIGN.md).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.net.topology import Topology
from repro.sim.rng import Stream

__all__ = [
    "ItineraryStrategy",
    "CostSorted",
    "InitialCostOrder",
    "StaticOrder",
    "RandomOrder",
    "make_itinerary",
]


class ItineraryStrategy:
    """Chooses the next destination from the unvisited set."""

    name = "abstract"
    #: does :meth:`next_host` draw from ``stream``?
    draws = False

    def next_host(
        self,
        current: str,
        unvisited: Sequence[str],
        topology: Topology,
        stream: Optional[Stream] = None,
    ) -> str:  # pragma: no cover - abstract
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<Itinerary {self.name}>"


class CostSorted(ItineraryStrategy):
    """The paper's strategy: cheapest unvisited server from *here*.

    Greedy nearest-neighbour, re-evaluated at every hop using the routing
    table of the current server.
    """

    name = "cost-sorted"

    def next_host(self, current, unvisited, topology, stream=None) -> str:
        if not unvisited:
            raise ValueError("no unvisited hosts to choose from")
        return topology.nearest(current, unvisited)


class InitialCostOrder(ItineraryStrategy):
    """Sort once by cost from the agent's *home*, then follow that order.

    Models an agent that plans its whole tour at dispatch time and never
    adapts (cheaper to compute, blind to its own movement).
    """

    name = "initial-cost-order"

    def __init__(self, home: str) -> None:
        self.home = home
        self._plan: Optional[List[str]] = None

    def next_host(self, current, unvisited, topology, stream=None) -> str:
        if not unvisited:
            raise ValueError("no unvisited hosts to choose from")
        if self._plan is None:
            self._plan = topology.neighbors_by_cost(self.home, unvisited)
        for host in self._plan:
            if host in unvisited:
                return host
        # Hosts added after planning (shouldn't happen in MARP): fall back.
        return sorted(unvisited)[0]


class StaticOrder(ItineraryStrategy):
    """Visit servers in a fixed global order (by name)."""

    name = "static-order"

    def next_host(self, current, unvisited, topology, stream=None) -> str:
        if not unvisited:
            raise ValueError("no unvisited hosts to choose from")
        return sorted(unvisited)[0]


class RandomOrder(ItineraryStrategy):
    """Uniformly random next hop (a lower bound for planned itineraries)."""

    name = "random-order"
    draws = True

    def next_host(self, current, unvisited, topology, stream=None) -> str:
        if not unvisited:
            raise ValueError("no unvisited hosts to choose from")
        if stream is None:
            raise ValueError("RandomOrder requires a random stream")
        return stream.choice(sorted(unvisited))


def make_itinerary(name: str, home: str = "") -> ItineraryStrategy:
    """Factory by strategy name (for CLI/experiment configuration)."""
    if name == CostSorted.name:
        return CostSorted()
    if name == InitialCostOrder.name:
        return InitialCostOrder(home)
    if name == StaticOrder.name:
        return StaticOrder()
    if name == RandomOrder.name:
        return RandomOrder()
    raise ValueError(f"unknown itinerary strategy {name!r}")

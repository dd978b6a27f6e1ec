"""What is agent-specific and backend-independent: identity
(:class:`AgentId`, totally ordered — the priority tie-break) and the
pluggable itinerary strategies. How an agent is hosted, shipped and
timed is the substrate's business (see
:mod:`repro.core.machines.interpreter`)."""

from repro.agents.identity import AgentId, AgentIdFactory
from repro.agents.itinerary import (
    CostSorted,
    InitialCostOrder,
    ItineraryStrategy,
    RandomOrder,
    StaticOrder,
    make_itinerary,
)

__all__ = [
    "AgentId",
    "AgentIdFactory",
    "ItineraryStrategy",
    "CostSorted",
    "InitialCostOrder",
    "StaticOrder",
    "RandomOrder",
    "make_itinerary",
]

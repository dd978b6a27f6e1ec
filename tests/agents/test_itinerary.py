"""Unit tests for the itinerary policy (``ReplicaServer.choose``)."""

import pytest

from repro.core.machines.protocols import protocol_row
from repro.net.topology import Topology
from repro.replication.deployment import Deployment
from repro.replication.protocol import MARP


@pytest.fixture
def topo():
    return Topology(["home", "near", "mid", "far"], [
        ("home", "near", 1.0),
        ("home", "mid", 2.0),
        ("home", "far", 5.0),
        ("near", "mid", 0.5),
        ("near", "far", 0.7),
        ("mid", "far", 9.0),
    ])


def agent_at_home(topo, itinerary):
    """A not-yet-started agent from ``home`` following ``itinerary``,
    and a ``choose(current, unvisited)`` asking the server at
    ``current`` where it goes next."""
    dep = Deployment(seed=0, topology=topo)
    marp = MARP(dep, itinerary=itinerary)
    marp.submit_write("home", "x", 1)
    (agent,) = marp.agents

    def choose(current, unvisited):
        return dep.server(current).choose(agent, frozenset(unvisited))

    return dep, agent, choose


class TestCostSorted:
    def test_picks_cheapest_from_current(self, topo):
        _dep, _agent, choose = agent_at_home(topo, "cost-sorted")
        assert choose("home", {"near", "mid", "far"}) == "near"

    def test_reevaluates_after_moving(self, topo):
        _dep, _agent, choose = agent_at_home(topo, "cost-sorted")
        # from `near`, `mid` (0.5) is now cheaper than `far` (0.7)
        assert choose("near", {"mid", "far"}) == "mid"

    def test_empty_unvisited_rejected(self, topo):
        _dep, _agent, choose = agent_at_home(topo, "cost-sorted")
        with pytest.raises(ValueError):
            choose("home", [])


class TestInitialCostOrder:
    def test_plans_once_from_home(self, topo):
        _dep, agent, choose = agent_at_home(topo, "initial-cost-order")
        order = []
        unvisited = {"near", "mid", "far"}
        current = "home"
        while unvisited:
            nxt = choose(current, unvisited)
            order.append(nxt)
            unvisited.discard(nxt)
            current = nxt
        # cost from home: near(1) < mid(2) < far(5); the plan never adapts
        assert order == ["near", "mid", "far"]
        assert agent.plan == ["near", "mid", "far"]

    def test_empty_rejected(self, topo):
        _dep, _agent, choose = agent_at_home(topo, "initial-cost-order")
        with pytest.raises(ValueError):
            choose("home", [])


class TestStaticOrder:
    def test_alphabetical(self, topo):
        _dep, _agent, choose = agent_at_home(topo, "static-order")
        assert choose("home", {"mid", "far", "near"}) == "far"

    def test_empty_rejected(self, topo):
        _dep, _agent, choose = agent_at_home(topo, "static-order")
        with pytest.raises(ValueError):
            choose("home", [])


class TestRandomOrder:
    def test_requires_stream(self, topo):
        """A random choice draws from the agent's own named stream, and
        only a random choice does."""
        for itinerary in ("cost-sorted", "random-order"):
            dep, agent, choose = agent_at_home(topo, itinerary)
            choose("home", {"near"})
            drawn = f"agent.{agent.agent_id}" in dep.streams
            assert drawn == (itinerary == "random-order")

    def test_only_picks_unvisited(self, topo):
        _dep, _agent, choose = agent_at_home(topo, "random-order")
        picks = {choose("home", {"near", "mid"}) for _ in range(50)}
        assert picks == {"near", "mid"}

    def test_empty_rejected(self, topo):
        _dep, _agent, choose = agent_at_home(topo, "random-order")
        with pytest.raises(ValueError):
            choose("home", [])


class TestFactory:
    def test_all_names_construct(self):
        for name in (
            "cost-sorted", "initial-cost-order", "static-order",
            "random-order",
        ):
            row = protocol_row("marp", ("h", "g"), itinerary=name)
            assert row.settings["itinerary"] == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            protocol_row("marp", ("h", "g"), itinerary="teleport")

"""Unit tests for itinerary strategies."""

import pytest

from repro.agents.itinerary import (
    CostSorted,
    InitialCostOrder,
    RandomOrder,
    StaticOrder,
    make_itinerary,
)
from repro.net.topology import Topology
from repro.sim.rng import RandomStreams


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


@pytest.fixture
def stream():
    return RandomStreams(0).stream("itinerary")


class TestCostSorted:
    def test_picks_cheapest_from_current(self, topo):
        strategy = CostSorted()
        assert strategy.next_host("home", {"near", "mid", "far"}, topo) == "near"

    def test_reevaluates_after_moving(self, topo):
        strategy = CostSorted()
        # from `near`, `mid` (0.5) is now cheaper than `far` (0.7)
        assert strategy.next_host("near", {"mid", "far"}, topo) == "mid"

    def test_empty_unvisited_rejected(self, topo):
        with pytest.raises(ValueError):
            CostSorted().next_host("home", [], topo)


class TestInitialCostOrder:
    def test_plans_once_from_home(self, topo):
        strategy = InitialCostOrder("home")
        order = []
        unvisited = {"near", "mid", "far"}
        current = "home"
        while unvisited:
            nxt = strategy.next_host(current, unvisited, topo)
            order.append(nxt)
            unvisited.discard(nxt)
            current = nxt
        # cost from home: near(1) < mid(2) < far(5); the plan never adapts
        assert order == ["near", "mid", "far"]

    def test_empty_rejected(self, topo):
        with pytest.raises(ValueError):
            InitialCostOrder("home").next_host("home", [], topo)


class TestStaticOrder:
    def test_alphabetical(self, topo):
        strategy = StaticOrder()
        assert strategy.next_host("home", {"mid", "far", "near"}, topo) == "far"

    def test_empty_rejected(self, topo):
        with pytest.raises(ValueError):
            StaticOrder().next_host("home", [], topo)


class TestRandomOrder:
    def test_requires_stream(self, topo):
        with pytest.raises(ValueError):
            RandomOrder().next_host("home", {"near"}, topo)

    def test_only_picks_unvisited(self, topo, stream):
        strategy = RandomOrder()
        picks = {
            strategy.next_host("home", {"near", "mid"}, topo, stream)
            for _ in range(50)
        }
        assert picks == {"near", "mid"}

    def test_empty_rejected(self, topo, stream):
        with pytest.raises(ValueError):
            RandomOrder().next_host("home", [], topo, stream)


class TestFactory:
    def test_all_names_construct(self):
        for name in (
            "cost-sorted", "initial-cost-order", "static-order",
            "random-order",
        ):
            assert make_itinerary(name, home="h").name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_itinerary("teleport")

"""Unit tests for the topology substrate."""

from itertools import combinations

import pytest

from repro.errors import HostUnreachable, NetworkError
from repro.net.topology import Topology
from repro.sim.rng import RandomStreams


@pytest.fixture
def stream():
    return RandomStreams(3).stream("topo")


class TestConstruction:
    def test_full_mesh_edges(self):
        topo = Topology.full_mesh(["a", "b", "c"])
        assert len(topo.links) == 3
        assert topo.cost("a", "b") == 1.0

    def test_full_mesh_jitter_requires_stream(self):
        with pytest.raises(NetworkError):
            Topology.full_mesh(["a", "b"], jitter=0.5)

    def test_full_mesh_jitter(self, stream):
        topo = Topology.full_mesh(["a", "b", "c"], cost=2.0, jitter=0.5,
                                  stream=stream)
        costs = [cost for _u, _v, cost in topo.links]
        assert all(1.5 <= c <= 2.5 for c in costs)

    def test_star(self):
        topo = Topology.star("hub", ["l1", "l2"], cost=2.0)
        assert topo.cost("l1", "l2") == 4.0  # via the hub

    def test_ring(self):
        topo = Topology.ring(["a", "b", "c", "d"])
        assert topo.cost("a", "c") == 2.0  # two hops around

    def test_ring_too_small(self):
        with pytest.raises(NetworkError):
            Topology.ring(["a", "b"])

    def test_random_costs_in_range(self, stream):
        topo = Topology.random_costs(["a", "b", "c"], stream, low=0.5, high=2.0)
        costs = [cost for _u, _v, cost in topo.links]
        assert all(0.5 <= c <= 2.0 for c in costs)

    def test_empty_graph_rejected(self):
        with pytest.raises(NetworkError):
            Topology([])

    def test_nonpositive_cost_rejected(self):
        with pytest.raises(NetworkError):
            Topology(["a", "b"], [("a", "b", 0)])

    @pytest.mark.parametrize("link", [("a", "b"), ("a", "b", None)])
    def test_link_without_a_cost_rejected(self, link):
        with pytest.raises(NetworkError):
            Topology(["a", "b"], [link])

    def test_constructor_copies_its_input(self):
        hosts, links = ["a", "b"], [("a", "b", 2)]
        topo = Topology(hosts, links)
        topo.set_cost("a", "b", 5.0)
        hosts.append("c")
        assert (hosts, links) == (["a", "b", "c"], [("a", "b", 2)])
        assert topo.hosts == ["a", "b"]
        assert topo.links == [("a", "b", 5.0)]

    def test_hosts_keep_insertion_order_and_links_name_new_ones(self):
        topo = Topology(["z", "a"], [("a", "m", 1.0)])
        assert topo.hosts == ["z", "a", "m"]
        assert Topology(topo.hosts, topo.links).links == topo.links


class TestRouting:
    def test_routing_table_contains_all_reachable(self):
        topo = Topology.full_mesh(["a", "b", "c"])
        table = topo.routing_table("a")
        assert set(table) == {"a", "b", "c"}
        assert table["a"] == 0.0

    def test_routing_table_unknown_host(self):
        topo = Topology.full_mesh(["a", "b"])
        with pytest.raises(HostUnreachable):
            topo.routing_table("zz")

    def test_cost_shortest_path(self):
        topo = Topology(
            [], [("a", "b", 10.0), ("a", "c", 1.0), ("c", "b", 1.0)]
        )
        assert topo.cost("a", "b") == 2.0  # via c

    def test_cost_unreachable(self):
        topo = Topology(["island"], [("a", "b", 1.0)])
        with pytest.raises(HostUnreachable):
            topo.cost("a", "island")

    def test_neighbors_by_cost_sorted(self):
        topo = Topology(
            [], [("src", "near", 1.0), ("src", "far", 5.0), ("src", "mid", 2.0)]
        )
        assert topo.neighbors_by_cost("src", ["far", "near", "mid"]) == [
            "near", "mid", "far",
        ]

    def test_neighbors_by_cost_deterministic_ties(self):
        topo = Topology.full_mesh(["a", "b", "c", "d"])
        assert topo.neighbors_by_cost("a", ["d", "c", "b"]) == ["b", "c", "d"]

    def test_nearest_is_the_head_of_the_sort_on_name_ties(self):
        topo = Topology.full_mesh(["a", "b", "c", "d"])
        for candidates in (["d", "c", "b"], ["c", "d"], ["d"], ("b", "a")):
            assert topo.nearest("a", candidates) == (
                topo.neighbors_by_cost("a", candidates)[0]
            )
        assert topo.nearest("a", ["d", "c"]) == "c"

    def test_nearest_follows_a_repriced_link(self):
        topo = Topology(
            [], [("src", "near", 1.0), ("src", "far", 5.0), ("src", "mid", 2.0)]
        )
        assert topo.nearest("src", ["far", "mid", "near"]) == "near"
        topo.set_cost("src", "far", 0.5)  # drops the cached ranks too
        assert topo.nearest("src", ["far", "mid", "near"]) == "far"
        assert topo.nearest("near", ["far", "mid"]) == (
            topo.neighbors_by_cost("near", ["far", "mid"])[0]
        )

    def test_nearest_with_an_unrouted_candidate_falls_back_to_the_sort(self):
        topo = Topology(["island", "atoll"], [("a", "b", 1.0), ("a", "c", 2.0)])
        # an unreachable host sorts after every routed one, by name among
        # its kind — whatever position it is offered in
        assert topo.nearest("a", ["island", "c", "b"]) == "b"
        assert topo.nearest("a", ["island"]) == "island"
        assert topo.nearest("a", ["island", "atoll"]) == "atoll"
        assert topo.nearest("a", ["nowhere", "c"]) == "c"

    def test_contains(self):
        topo = Topology.full_mesh(["a", "b"])
        assert "a" in topo
        assert "zz" not in topo

    def test_invalidate_routes_recomputes(self):
        topo = Topology.full_mesh(["a", "b"], cost=1.0)
        assert topo.cost("a", "b") == 1.0
        topo.set_cost("a", "b", 3.0)
        assert topo.cost("a", "b") == 3.0
        assert topo.cost("b", "a") == 3.0

    def test_set_cost_validates(self):
        topo = Topology.full_mesh(["a", "b"])
        with pytest.raises(NetworkError):
            topo.set_cost("a", "b", -1.0)
        with pytest.raises(NetworkError):
            topo.set_cost("a", "zz", 1.0)
        assert topo.cost("a", "b") == 1.0

    def test_hosts_property(self):
        topo = Topology.full_mesh(["b", "a"])
        assert sorted(topo.hosts) == ["a", "b"]


def reference_routes(topo, src):
    """Textbook Dijkstra over ``topo.links``: settles the cheapest
    tentative host next (name breaking ties), sums source-outward."""
    links = {}
    for u, v, cost in topo.links:
        links.setdefault(u, {})[v] = cost
        links.setdefault(v, {})[u] = cost
    dist, tentative = {}, {src: 0.0}
    while tentative:
        host = min(tentative, key=lambda h: (tentative[h], h))
        dist[host] = tentative.pop(host)
        for peer, cost in links.get(host, {}).items():
            through = dist[host] + cost
            if peer not in dist and through < tentative.get(peer, float("inf")):
                tentative[peer] = through
    return dist


def _topologies(stream):
    hosts = [f"s{i}" for i in range(1, 9)]
    return {
        "full_mesh": Topology.full_mesh(hosts),
        "jittered": Topology.full_mesh(hosts, jitter=0.4, stream=stream),
        # some sources route around a direct link
        "random_costs": Topology.random_costs(hosts, stream),
        "ring": Topology.ring(hosts[:6]),
        "star": Topology.star("hub", hosts[:5], cost=2.0),
    }


@pytest.mark.parametrize(
    "name", ["full_mesh", "jittered", "random_costs", "ring", "star"]
)
def test_routing_tables_are_a_textbook_dijkstras(name, stream):
    """Every source's table is the reference's, float for float and in
    settling order — before and after re-pricing a link."""
    topo = _topologies(stream)[name]

    def check():
        for src in topo.hosts:
            expected = reference_routes(topo, src)
            assert list(topo.routing_table(src).items()) == list(
                expected.items()
            )

    check()
    u, v, cost = topo.links[0]
    topo.set_cost(u, v, cost / 3.0)  # a new cheapest link
    check()
    topo.set_cost(u, v, cost * 5.0)  # a dear one: a detour beats it
    check()


def test_random_costs_routing_table_is_pinned_to_the_digit(stream):
    """The six-host ``random_costs`` table networkx's Dijkstra produced
    at 564554c, float for float. s1-s4, s1-s5, s2-s4 and s5-s6 are
    two-hop routes (the direct links cost 1.67, 1.96, 1.71 and 1.93), so
    the sums pin the order a path's links are added in."""
    hosts = ["s1", "s2", "s3", "s4", "s5", "s6"]
    topo = Topology.random_costs(hosts, stream)
    assert ("s1", "s4", 1.6719815293621332) in topo.links  # not the route
    assert {host: topo.routing_table(host) for host in hosts} == {
        "s1": {"s1": 0.0, "s2": 1.1997880203923235, "s3": 1.325394301949795,
               "s4": 1.448042711922977, "s5": 1.9210774120906948,
               "s6": 0.5846364246842172},
        "s2": {"s1": 1.1997880203923235, "s2": 0.0, "s3": 0.7124051595203886,
               "s4": 1.42545424032886, "s5": 0.7212893916983714,
               "s6": 1.5642224992329496},
        "s3": {"s1": 1.325394301949795, "s2": 0.7124051595203886, "s3": 0.0,
               "s4": 1.2935119887393718, "s5": 1.1992208691992596,
               "s6": 1.596038902690139},
        "s4": {"s1": 1.448042711922977, "s2": 1.42545424032886,
               "s3": 1.2935119887393718, "s4": 0.0, "s5": 0.7041648486304886,
               "s6": 0.8634062872387599},
        "s5": {"s1": 1.9210774120906948, "s2": 0.7212893916983714,
               "s3": 1.1992208691992596, "s4": 0.7041648486304886, "s5": 0.0,
               "s6": 1.5675711358692483},
        "s6": {"s1": 0.5846364246842172, "s2": 1.5642224992329496,
               "s3": 1.596038902690139, "s4": 0.8634062872387599,
               "s5": 1.5675711358692483, "s6": 0.0},
    }
    # The ranked choice a cost-sorted itinerary makes is the head of the
    # full sort, from every host, for every set of places left to visit.
    for src in hosts:
        others = [host for host in hosts if host != src]
        for size in range(1, len(others) + 1):
            for candidates in combinations(others, size):
                assert topo.nearest(src, candidates) == (
                    topo.neighbors_by_cost(src, candidates)[0]
                )

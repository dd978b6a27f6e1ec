"""Network topology: hosts, link costs, and routing tables.

The paper assumes "each server has a routing table containing the cost of
transferring a mobile agent from the local server to another server";
visiting agents sort their Un-visited Server List by this cost. A
:class:`Topology` provides exactly that: host names, undirected links
with a positive cost, and shortest-path costs between hosts.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import HostUnreachable, NetworkError
from repro.sim.rng import Stream

__all__ = ["Topology"]

#: One undirected link: ``(host, peer, cost)``.
Link = Tuple[str, str, float]

_INF = float("inf")


class Topology:
    """Hosts and weighted undirected links, with cached routing tables.

    Parameters
    ----------
    hosts:
        Host names, kept in the order given. A host named only by a link
        is added after them.
    links:
        ``(host, peer, cost)`` triples; the cost must be positive. The
        input is copied, never kept.
    """

    def __init__(self, hosts: Iterable[str], links: Iterable[Link] = ()) -> None:
        self._links: Dict[str, Dict[str, float]] = {host: {} for host in hosts}
        self._routes: Dict[str, Dict[str, float]] = {}
        #: per source, each reachable host's position in (cost, name) order
        self._ranks: Dict[str, Dict[str, int]] = {}
        for link in links:
            try:
                u, v, cost = link
            except (TypeError, ValueError):
                raise NetworkError(
                    f"a link is (host, peer, cost): {link!r}"
                ) from None
            self._links.setdefault(u, {})
            self._links.setdefault(v, {})
            self.set_cost(u, v, cost)
        if not self._links:
            raise NetworkError("topology must contain at least one host")

    # -- constructors -----------------------------------------------------

    @classmethod
    def full_mesh(
        cls,
        hosts: Sequence[str],
        cost: float = 1.0,
        jitter: float = 0.0,
        stream: Optional[Stream] = None,
    ) -> "Topology":
        """Complete graph; optional uniform cost jitter in ``±jitter``.

        This is the paper's implicit topology: every replicated server can
        reach every other directly.
        """
        if jitter and stream is None:
            raise NetworkError("cost jitter requires a random stream")
        def link_cost() -> float:
            if not jitter:
                return cost
            return max(1e-9, cost + stream.uniform(-jitter, jitter))

        hosts = list(hosts)
        return cls(hosts, [(u, v, link_cost()) for u, v in combinations(hosts, 2)])

    @classmethod
    def star(cls, center: str, leaves: Sequence[str], cost: float = 1.0) -> "Topology":
        return cls([center], [(center, leaf, cost) for leaf in leaves])

    @classmethod
    def ring(cls, hosts: Sequence[str], cost: float = 1.0) -> "Topology":
        if len(hosts) < 3:
            raise NetworkError("a ring needs at least 3 hosts")
        hosts = list(hosts)
        return cls(hosts, [
            (u, hosts[(i + 1) % len(hosts)], cost) for i, u in enumerate(hosts)
        ])

    @classmethod
    def random_costs(
        cls,
        hosts: Sequence[str],
        stream: Stream,
        low: float = 0.5,
        high: float = 2.0,
    ) -> "Topology":
        """Full mesh with uniformly random link costs in ``[low, high]``.

        Models geographically scattered Internet replicas where some pairs
        are much "closer" than others — the setting in which cost-sorted
        itineraries matter.
        """
        hosts = list(hosts)
        return cls(hosts, [
            (u, v, stream.uniform(low, high)) for u, v in combinations(hosts, 2)
        ])

    # -- queries -----------------------------------------------------------

    @property
    def hosts(self) -> List[str]:
        return list(self._links)

    @property
    def links(self) -> List[Link]:
        """Every link once, as ``(host, peer, cost)`` in insertion order."""
        rank = {host: index for index, host in enumerate(self._links)}
        return [
            (u, v, cost)
            for u, peers in self._links.items()
            for v, cost in peers.items() if rank[u] < rank[v]
        ]

    def __contains__(self, host: str) -> bool:
        return host in self._links

    def set_cost(self, u: str, v: str, cost: float) -> None:
        """Create or re-price the link between two known hosts.

        Routing tables computed before the edit are dropped.
        """
        if u not in self._links or v not in self._links or u == v:
            raise NetworkError(f"no such pair of hosts: {u!r}, {v!r}")
        if cost is None or not cost > 0:
            raise NetworkError(f"link cost must be > 0: {u}-{v} ({cost!r})")
        self._links[u][v] = self._links[v][u] = float(cost)
        self._routes.clear()
        self._ranks.clear()

    def routing_table(self, src: str) -> Dict[str, float]:
        """Cost from ``src`` to every reachable host (the paper's table)."""
        return dict(self._routes_from(src))

    def cost(self, src: str, dst: str) -> float:
        """Shortest-path cost between two hosts.

        Raises :class:`HostUnreachable` if no path exists.
        """
        try:
            return self._routes_from(src)[dst]
        except KeyError:
            raise HostUnreachable(f"no route from {src!r} to {dst!r}") from None

    def neighbors_by_cost(
        self, src: str, candidates: Iterable[str]
    ) -> List[str]:
        """``candidates`` sorted by ascending cost from ``src``.

        Ties are broken by host name so the ordering is deterministic.
        """
        table = self._routes_from(src)
        return sorted(candidates, key=lambda h: (table.get(h, _INF), h))

    def nearest(self, src: str, candidates: Iterable[str]) -> str:
        """The first of :meth:`neighbors_by_cost`, without the sort."""
        rank = self._ranks.get(src)
        if rank is None:
            routed = self.neighbors_by_cost(src, self._routes_from(src))
            rank = self._ranks[src] = {
                host: index for index, host in enumerate(routed)
            }
        try:
            return min(candidates, key=rank.__getitem__)
        except KeyError:
            # A candidate with no route ranks after every routed one.
            return self.neighbors_by_cost(src, candidates)[0]

    def _routes_from(self, src: str) -> Dict[str, float]:
        """Dijkstra from ``src``, cached until the next :meth:`set_cost`.

        A path's cost is summed source-outward (``dist[v] + cost``), so a
        multi-hop route adds its links in the order an agent crosses them.
        """
        dist = self._routes.get(src)
        if dist is not None:
            return dist
        if src not in self._links:
            raise HostUnreachable(f"unknown host {src!r}")
        dist = self._routes[src] = {}
        best = {src: 0.0}  # cheapest cost pushed so far, per host
        fringe = [(0.0, src)]
        while fringe:
            d, v = heappop(fringe)
            if v in dist:
                continue
            dist[v] = d
            for u, cost in self._links[v].items():
                through = d + cost
                if u not in dist and through < best.get(u, _INF):
                    best[u] = through
                    heappush(fringe, (through, u))
        return dist

    def __repr__(self) -> str:
        return f"<Topology hosts={len(self._links)} links={len(self.links)}>"

"""The producer/consumer channel of the network substrate.

:class:`RoutedStore` files every item under a route computed once at
``put`` and lets each consumer stand on its own route — the mailbox of
the network substrate's endpoints. ``consume`` stands a callback on a
route (``put`` calls it with the item, inside the step that put it) and
``pop`` hands it the backlog: no event either way.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Hashable, List, Optional, Tuple

from repro.errors import SimulationError

__all__ = ["RoutedStore"]


class RoutedStore:
    """An unbounded store that files each item under a *route*.

    ``route_of(item)`` is evaluated once, when the item is put, and
    names the queue the item joins; ``pop(route)`` takes the oldest
    item of that queue. A consumer that knows what it is waiting for (a
    message kind, a reply's correlation key) therefore pops its own
    queue head in O(1) and never looks at items filed for anybody else,
    however many of those have piled up. An item is offered first to
    the standing consumer of its route (:meth:`consume`); one it does
    not take joins the route's queue. Empty queues are dropped at once.
    """

    def __init__(self, route_of: Callable[[Any], Hashable]) -> None:
        self._route_of = route_of
        #: route -> (arrival number, item), oldest first
        self._queues: Dict[Hashable, Deque[Tuple[int, Any]]] = {}
        #: route -> its standing consumer
        self._consumers: Dict[Hashable, Callable[[Any], bool]] = {}
        self._arrivals = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def items(self) -> List[Any]:
        """Every queued item in arrival order (a copy, for inspection)."""
        entries = sorted(
            (entry for queue in self._queues.values() for entry in queue),
            key=_arrival,
        )
        return [item for _number, item in entries]

    # -- public API ------------------------------------------------------

    def put(self, item: Any) -> None:
        """File ``item``, unless the consumer of its route takes it now."""
        route = self._route_of(item)
        consumer = self._consumers.get(route)
        if consumer is not None and consumer(item):
            return
        self._arrivals += 1
        queue = self._queues.get(route)
        if queue is None:
            queue = self._queues[route] = deque()
        queue.append((self._arrivals, item))
        self._size += 1

    def consume(
        self, route: Hashable, consumer: Optional[Callable[[Any], bool]]
    ) -> None:
        """Stand ``consumer`` on ``route`` (``None`` withdraws it).

        ``put`` calls ``consumer(item)`` before filing an item of the
        route: true means the consumer took it, false that the item
        waits in the route's queue until the consumer comes for it
        with :meth:`pop`. A route has at most one.
        """
        if consumer is None:
            self._consumers.pop(route, None)
        elif route in self._consumers:
            raise SimulationError(f"route {route!r} already has a consumer")
        else:
            self._consumers[route] = consumer

    def pop(self, route: Hashable) -> Any:
        """The oldest queued item of ``route``, or ``None`` — now, with
        no event."""
        queue = self._queues.get(route)
        if queue is None:
            return None
        item = queue.popleft()[1]
        if not queue:
            del self._queues[route]
        self._size -= 1
        return item

    def discard(self, unwanted: Callable[[Any], bool]) -> int:
        """Drop every queued item ``unwanted`` accepts; returns how many."""
        dropped = 0
        for route in list(self._queues):
            queue = self._queues[route]
            kept = deque(entry for entry in queue if not unwanted(entry[1]))
            if len(kept) == len(queue):
                continue
            dropped += len(queue) - len(kept)
            if kept:
                self._queues[route] = kept
            else:
                del self._queues[route]
        self._size -= dropped
        return dropped


def _arrival(entry: Tuple[int, Any]) -> int:
    return entry[0]

"""The producer/consumer channel of the network substrate.

:class:`RoutedStore` files every item under a route computed once at
``put`` and lets each consumer wait on its own route — the mailbox of
the network substrate's endpoints. A consumer either *pulls* (``get``
returns an event a process yields on) or *stands* on its route
(``consume``: ``put`` calls it with the item, inside the step that put
it, and ``pop`` hands it the backlog — no event either way).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Hashable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.events import PENDING, Event

__all__ = ["RoutedStore"]


class RoutedGet(Event):
    """Event returned by :meth:`RoutedStore.get`; fires with the item."""

    __slots__ = ("store", "route", "match")

    def __init__(
        self,
        store: "RoutedStore",
        route: Optional[Hashable],
        match: Optional[Callable[[Any], bool]],
    ) -> None:
        super().__init__(store.env)
        self.store = store
        self.route = route
        self.match = match

    def cancel(self) -> None:
        """Withdraw a get that has not fired: it can no longer take an
        item meant for a later getter of the same route, and the store
        forgets it. Fires the event with ``None``."""
        if self._value is PENDING:
            self.store._forget(self)
            self.succeed(None)


class RoutedStore:
    """An unbounded store that files each item under a *route*.

    ``route_of(item)`` is evaluated once, when the item is put, and
    names the queue the item joins; ``get(route)`` fires with the
    oldest item of that queue. A consumer that knows what it is
    waiting for (a message kind, a reply's correlation key) therefore
    pops its own queue head in O(1) and never looks at items filed for
    anybody else, however many of those have piled up.

    * ``get(route, match=pred)`` takes the oldest item of that route
      satisfying ``pred`` — the scan stays inside the one queue.
    * ``get()`` with no route takes the oldest item of the whole store
      (it compares the queue heads, so it costs O(queues)).
    * An item is offered first to the standing consumer of its route
      (:meth:`consume`), then to the pending getters of that route in
      the order they asked, then to the route-less getters.

    Empty queues and served or cancelled getters are dropped at once:
    the store holds nothing for a route that has neither. ``None`` is
    not a route (it files the route-less getters).
    """

    def __init__(self, env, route_of: Callable[[Any], Hashable]) -> None:
        self.env = env
        self._route_of = route_of
        #: route -> (arrival number, item), oldest first
        self._queues: Dict[Hashable, Deque[Tuple[int, Any]]] = {}
        #: route -> getters still waiting, in the order they asked;
        #: the route-less ones under None
        self._getters: Dict[Optional[Hashable], List[RoutedGet]] = {}
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
        """File ``item``; a consumer that takes it or a waiting getter
        it satisfies has it now."""
        route = self._route_of(item)
        consumer = self._consumers.get(route)
        if consumer is not None and consumer(item):
            return
        if self._getters and (
            self._offer(route, item) or self._offer(None, item)
        ):
            return
        self._arrivals += 1
        queue = self._queues.get(route)
        if queue is None:
            queue = self._queues[route] = deque()
        queue.append((self._arrivals, item))
        self._size += 1

    def get(
        self,
        route: Optional[Hashable] = None,
        match: Optional[Callable[[Any], bool]] = None,
    ) -> RoutedGet:
        """Request the oldest item of ``route`` (of the whole store when
        ``route`` is None) that satisfies ``match``."""
        event = RoutedGet(self, route, match)
        source = self._oldest_route(match) if route is None else route
        queue = self._queues.get(source)
        index = None
        if queue is not None:
            index = 0 if match is None else next(
                (i for i, entry in enumerate(queue) if match(entry[1])), None
            )
        if index is None:
            self._getters.setdefault(route, []).append(event)
            return event
        item = queue[index][1]
        del queue[index]
        if not queue:
            del self._queues[source]
        self._size -= 1
        event.succeed(item)
        return event

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

    # -- internals ---------------------------------------------------------

    def _oldest_route(
        self, match: Optional[Callable[[Any], bool]]
    ) -> Optional[Hashable]:
        """Route holding the store's oldest item that ``match`` accepts."""
        best, best_number = None, None
        for route, queue in self._queues.items():
            for number, item in queue:
                if best_number is not None and number > best_number:
                    break
                if match is None or match(item):
                    best, best_number = route, number
                    break
        return best

    def _offer(self, route: Optional[Hashable], item: Any) -> bool:
        """Hand ``item`` to the first getter of ``route`` that accepts it."""
        getters = self._getters.get(route)
        if getters is None:
            return False
        for index, getter in enumerate(getters):
            if getter.match is None or getter.match(item):
                del getters[index]
                if not getters:
                    del self._getters[route]
                getter.succeed(item)
                return True
        return False

    def _forget(self, event: RoutedGet) -> None:
        getters = self._getters.get(event.route)
        if getters is not None and event in getters:
            getters.remove(event)
            if not getters:
                del self._getters[event.route]


def _arrival(entry: Tuple[int, Any]) -> int:
    return entry[0]

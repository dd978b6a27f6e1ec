"""Producer/consumer channels for processes.

:class:`Store` is an asynchronous FIFO buffer: ``put`` and ``get`` return
events a process yields on. :class:`PriorityStore` delivers items in
priority order. :class:`RoutedStore` files every item under a route
computed once at ``put`` and lets each consumer wait on its own route —
the mailbox of the network substrate's endpoints.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, Dict, Hashable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.events import PENDING, Event

__all__ = ["Store", "RoutedStore", "PriorityStore", "PriorityItem"]


class StorePut(Event):
    """Event returned by :meth:`Store.put`; fires when the item is stored."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.env)
        self.item = item


class StoreGet(Event):
    """Event returned by :meth:`Store.get`; fires with the retrieved item."""

    __slots__ = ()

    def __init__(self, store: "Store") -> None:
        super().__init__(store.env)


class Store:
    """Unbounded-or-bounded FIFO buffer with blocking put/get events."""

    def __init__(self, env, capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise SimulationError(f"store capacity must be positive: {capacity}")
        self.env = env
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._put_waiters: Deque[StorePut] = deque()
        self._get_waiters: Deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    # -- public API ------------------------------------------------------

    def put(self, item: Any) -> StorePut:
        """Request to add ``item``; the returned event fires when stored."""
        event = StorePut(self, item)
        self._put_waiters.append(event)
        self._dispatch()
        return event

    def get(self) -> StoreGet:
        """Request to remove the oldest item; the event fires with it."""
        event = StoreGet(self)
        self._get_waiters.append(event)
        self._dispatch()
        return event

    # -- matching machinery ------------------------------------------------

    def _do_put(self, event: StorePut) -> bool:
        if len(self.items) < self.capacity:
            self._insert(event.item)
            event.succeed()
            return True
        return False

    def _do_get(self, event: StoreGet) -> bool:
        item = self._extract(event)
        if item is not _NO_ITEM:
            event.succeed(item)
            return True
        return False

    def _insert(self, item: Any) -> None:
        self.items.append(item)

    def _extract(self, event: StoreGet) -> Any:
        if self.items:
            return self.items.popleft()
        return _NO_ITEM

    def _dispatch(self) -> None:
        """Run the put/get matching loop until no more progress is made."""
        progress = True
        while progress:
            progress = False
            while self._put_waiters:
                put_event = self._put_waiters[0]
                if put_event.triggered:  # cancelled externally
                    self._put_waiters.popleft()
                    continue
                if self._do_put(put_event):
                    self._put_waiters.popleft()
                    progress = True
                else:
                    break
            # Gets are served in FIFO order; one that cannot be served
            # must not block later gets, so scan the queue (the spill
            # deque is only built once a get blocks).
            remaining: Optional[Deque[StoreGet]] = None
            while self._get_waiters:
                get_event = self._get_waiters.popleft()
                if get_event.triggered:
                    continue
                if self._do_get(get_event):
                    progress = True
                else:
                    if remaining is None:
                        remaining = deque()
                    remaining.append(get_event)
            if remaining is not None:
                self._get_waiters = remaining


class _NoItem:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<NO_ITEM>"


_NO_ITEM = _NoItem()


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
    * An item is offered first to the pending getters of its route in
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
        """File ``item``; a waiting getter it satisfies fires now."""
        route = self._route_of(item)
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


class PriorityItem:
    """Wrapper pairing a sortable priority with an arbitrary payload.

    Lower priority values are delivered first; ties are FIFO (stable via a
    monotone sequence number assigned at insertion).
    """

    __slots__ = ("priority", "item", "_seq")

    def __init__(self, priority: Any, item: Any) -> None:
        self.priority = priority
        self.item = item
        self._seq = 0

    def __lt__(self, other: "PriorityItem") -> bool:
        if self.priority != other.priority:
            return self.priority < other.priority
        return self._seq < other._seq

    def __repr__(self) -> str:
        return f"PriorityItem({self.priority!r}, {self.item!r})"


class PriorityStore(Store):
    """A store that releases the lowest-priority item first.

    Items must be :class:`PriorityItem` instances (or anything mutually
    orderable).
    """

    def __init__(self, env, capacity: float = float("inf")) -> None:
        super().__init__(env, capacity)
        self.items: List[Any] = []  # heap
        self._insert_seq = 0

    def _insert(self, item: Any) -> None:
        if isinstance(item, PriorityItem):
            self._insert_seq += 1
            item._seq = self._insert_seq
        heapq.heappush(self.items, item)

    def _extract(self, event: StoreGet) -> Any:
        if self.items:
            return heapq.heappop(self.items)
        return _NO_ITEM

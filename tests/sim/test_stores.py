"""Unit tests for RoutedStore."""

import pytest

from repro.errors import SimulationError
from repro.sim.stores import RoutedStore


def _parity(item):
    return "even" if item % 2 == 0 else "odd"


class TestRoutedStore:
    def test_routed_get_pops_its_own_queue_head(self):
        store = RoutedStore(_parity)
        for item in (2, 1, 4, 3):
            store.put(item)
        assert [store.pop(route) for route in ("odd", "odd", "even")] == [
            1, 3, 2,
        ]
        assert store.items == [4]
        assert store.pop("odd") is None

    def test_items_lists_every_queue_in_arrival_order(self):
        store = RoutedStore(_parity)
        for item in (2, 1, 4):
            store.put(item)
        assert store.items == [2, 1, 4]
        assert len(store) == 3

    def test_a_consumer_takes_its_route_in_the_putting_step(self):
        store = RoutedStore(_parity)
        taken = []
        store.consume("even", lambda item: taken.append(item) or True)
        for item in (1, 2, 3, 4):
            store.put(item)
        assert taken == [2, 4]
        assert store.items == [1, 3]

    def test_an_item_the_consumer_declines_is_queued_for_pop(self):
        store = RoutedStore(_parity)
        offered = []

        def busy(item):
            offered.append(item)
            return False

        store.consume("even", busy)
        store.put(2)
        store.put(4)
        assert offered == [2, 4]
        assert store.pop("even") == 2 and store.pop("even") == 4

    def test_one_consumer_per_route_and_withdrawal(self):
        store = RoutedStore(_parity)
        store.consume("even", lambda item: True)
        with pytest.raises(SimulationError):
            store.consume("even", lambda item: True)
        store.consume("even", None)
        store.consume("even", None)  # withdrawing twice is harmless
        store.put(2)
        assert store.items == [2]

    def test_discard_sweeps_every_queue(self):
        store = RoutedStore(_parity)
        for item in range(10):
            store.put(item)
        assert store.discard(lambda x: x < 7) == 7
        assert store.items == [7, 8, 9]
        assert len(store) == 3
        assert store.discard(lambda x: True) == 3
        assert store._queues == {}

"""Unit tests for RoutedStore."""

from repro.sim.stores import RoutedStore


def _parity(item):
    return "even" if item % 2 == 0 else "odd"


class TestRoutedStore:
    def test_filtered_get_skips_non_matching(self, env):
        store = RoutedStore(env, _parity)
        out = []

        def consumer(env):
            item = yield store.get("even", match=lambda x: x > 2)
            out.append(item)

        env.process(consumer(env))
        for item in (1, 2, 3, 4):
            store.put(item)
        env.run()
        assert out == [4]
        assert store.items == [1, 2, 3]
        assert len(store) == 3

    def test_blocked_filter_does_not_starve_other_getters(self, env):
        store = RoutedStore(env, type)
        out = []

        def never(env):
            yield store.get(str, match=lambda x: x == "unicorn")
            out.append("never")

        def eager(env):
            item = yield store.get()
            out.append(item)

        def producer(env):
            yield env.timeout(1)
            store.put("plain")

        env.process(never(env))
        env.process(eager(env))
        env.process(producer(env))
        env.run()
        assert out == ["plain"]

    def test_unfiltered_get_is_fifo(self, env):
        """A route-less get takes the oldest item of the whole store,
        whichever queue holds it."""
        store = RoutedStore(env, _parity)
        out = []

        def consumer(env):
            for _ in range(3):
                item = yield store.get()
                out.append(item)

        for item in (2, 1, 4):
            store.put(item)
        env.process(consumer(env))
        env.run()
        assert out == [2, 1, 4]

    def test_routed_get_pops_its_own_queue_head(self, env):
        store = RoutedStore(env, _parity)
        out = []

        def consumer(env):
            for route in ("odd", "odd", "even"):
                item = yield store.get(route)
                out.append(item)

        for item in (2, 1, 4, 3):
            store.put(item)
        env.process(consumer(env))
        env.run()
        assert out == [1, 3, 2]
        assert store.items == [4]

    def test_waiting_getters_are_served_in_the_order_they_asked(self, env):
        store = RoutedStore(env, _parity)
        served = []

        def consumer(env, name):
            item = yield store.get("even")
            served.append((name, item))

        env.process(consumer(env, "c1"))
        env.process(consumer(env, "c2"))
        env.run()
        store.put(1)  # nobody asked for an odd item
        store.put(2)
        store.put(4)
        env.run()
        assert served == [("c1", 2), ("c2", 4)]
        assert store.items == [1]

    def test_cancelled_get_takes_nothing_and_is_forgotten(self, env):
        store = RoutedStore(env, _parity)
        got = []

        def impatient(env):
            get = store.get("even")
            yield get | env.timeout(5)
            assert not get.processed
            get.cancel()
            get.cancel()  # idempotent
            yield env.timeout(5)
            store.put(2)
            item = yield store.get("even")
            got.append(item)

        env.process(impatient(env))
        env.run()
        assert got == [2]
        assert store._getters == {} and store._queues == {}

    def test_discard_sweeps_every_queue(self, env):
        store = RoutedStore(env, _parity)
        for item in range(10):
            store.put(item)
        assert store.discard(lambda x: x < 7) == 7
        assert store.items == [7, 8, 9]
        assert len(store) == 3
        assert store.discard(lambda x: True) == 3
        assert store._queues == {}

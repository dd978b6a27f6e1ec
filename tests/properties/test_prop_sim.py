"""Property tests for the simulation kernel's ordering guarantees."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.core import Environment
from repro.sim.stores import RoutedStore


@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=60, deadline=None)
def test_timeouts_fire_in_nondecreasing_time_order(delays):
    env = Environment()
    fired = []

    def waiter(env, delay):
        yield env.timeout(delay)
        fired.append(env.now)

    for delay in delays:
        env.process(waiter(env, delay))
    env.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(
    delays=st.lists(
        st.sampled_from([0.0, 1.0, 2.0]), min_size=2, max_size=30
    )
)
@settings(max_examples=60, deadline=None)
def test_equal_time_events_fifo_by_creation(delays):
    env = Environment()
    fired = []

    def waiter(env, index, delay):
        yield env.timeout(delay)
        fired.append((env.now, index))

    for index, delay in enumerate(delays):
        env.process(waiter(env, index, delay))
    env.run()
    # Among events at the same instant, creation order is preserved.
    for time_value in set(t for t, _ in fired):
        indices = [i for t, i in fired if t == time_value]
        assert indices == sorted(indices)


@given(
    items=st.lists(st.integers(), min_size=1, max_size=50),
    consumer_first=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_store_preserves_fifo(items, consumer_first):
    """Each route of a RoutedStore is FIFO, whether its consumer asked
    before the items came or after, and a route-less get sees arrival
    order across the routes."""
    env = Environment()
    store = RoutedStore(env, lambda item: item % 3)
    out = {0: [], 1: [], 2: []}

    def producer(env):
        for item in items:
            store.put(item)
            yield env.timeout(0.5)

    def consumer(env, route):
        for _ in range(sum(item % 3 == route for item in items)):
            value = yield store.get(route)
            out[route].append(value)

    procs = [consumer(env, route) for route in out]
    if consumer_first:
        procs.append(producer(env))
    else:
        procs.insert(0, producer(env))
    for proc in procs:
        env.process(proc)
    env.run()
    assert out == {r: [i for i in items if i % 3 == r] for r in out}
    assert len(store) == 0

    for item in items:
        store.put(item)
    drained = []

    def drain(env):
        for _ in items:
            drained.append((yield store.get()))

    env.process(drain(env))
    env.run()
    assert drained == items


@given(
    structure=st.recursive(
        st.one_of(st.integers(), st.floats(allow_nan=False), st.text(),
                  st.booleans(), st.none()),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.dictionaries(st.text(max_size=5), children, max_size=4),
        ),
        max_leaves=20,
    )
)
@settings(max_examples=100, deadline=None)
def test_estimate_size_total_and_nonnegative(structure):
    from repro.net.message import estimate_size

    size = estimate_size(structure)
    assert isinstance(size, int)
    assert size >= 0

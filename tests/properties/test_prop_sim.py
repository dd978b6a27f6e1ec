"""Property tests for the simulation kernel's ordering guarantees."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.core import Environment


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
    for delay in delays:
        env.call_in(delay, lambda _arg: fired.append(env.now))
    env.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(
    entries=st.lists(
        st.tuples(st.sampled_from([0.0, 1.0, 2.0]), st.booleans()),
        min_size=2, max_size=30,
    )
)
@settings(max_examples=60, deadline=None)
def test_equal_time_events_fifo_by_creation(entries):
    """Entries of one instant run in creation order, and an urgent entry
    pushed by one of them runs before the next normal one."""
    env = Environment()
    fired = []

    def record(index):
        fired.append((env.now, index))

    for index, (delay, urgent) in enumerate(entries):
        if urgent:
            env.call_in(delay, lambda i: env.call_urgent(record, i), index)
        else:
            env.call_in(delay, record, index)
    env.run()
    assert fired == sorted(fired)
    assert len(fired) == len(entries)


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

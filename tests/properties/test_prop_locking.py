"""Property tests for the locking structures and the versioned store."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.machines.identity import AgentId
from repro.core.machines.structures import (
    LockEntry,
    LockingList,
    UpdatedList,
    VersionedStore,
)


agent_numbers = st.lists(
    st.integers(min_value=0, max_value=30), min_size=1, max_size=30,
    unique=True,
)


def aid(n: int) -> AgentId:
    return AgentId("h", float(n), 0)


@given(numbers=agent_numbers, removals=st.data())
@settings(max_examples=80, deadline=None)
def test_locking_list_top_is_first_surviving_entry(numbers, removals):
    ll = LockingList("s1")
    for at, n in enumerate(numbers):
        ll.append(LockEntry(aid(n), n, float(at)))
    to_remove = removals.draw(
        st.lists(st.sampled_from(numbers), max_size=len(numbers),
                 unique=True)
    )
    survivors = [n for n in numbers if n not in set(to_remove)]
    for n in to_remove:
        assert ll.remove(aid(n))
    assert ll.view() == tuple(aid(n) for n in survivors)
    assert ll.top() == (aid(survivors[0]) if survivors else None)


@given(
    first=st.lists(st.integers(0, 20), max_size=15),
    second=st.lists(st.integers(0, 20), max_size=15),
)
@settings(max_examples=80, deadline=None)
def test_updated_list_merge_is_idempotent_and_commutative_as_sets(
    first, second
):
    a = UpdatedList(retention=15.0)
    for n in first + second + second:  # second twice: idempotent
        a.add(aid(n))

    b = UpdatedList(retention=15.0)
    for n in second + first:
        b.add(aid(n))

    assert a.as_set() == b.as_set()
    assert len(a.as_set()) == len(set(first) | set(second))


@given(
    versions=st.lists(
        st.integers(min_value=1, max_value=50), min_size=1, max_size=30,
        unique=True,
    ),
    permutation_seed=st.randoms(use_true_random=False),
)
@settings(max_examples=80, deadline=None)
def test_versioned_store_convergence_is_order_independent(
    versions, permutation_seed
):
    """Applying the same set of versioned writes in any order yields the
    same final state: the value of the max version."""
    shuffled = list(versions)
    permutation_seed.shuffle(shuffled)

    store = VersionedStore()
    for at, version in enumerate(shuffled):
        store.apply("x", f"value-{version}", version, float(at))

    top = max(versions)
    assert store.version_of("x") == top
    assert store.read("x").value == f"value-{top}"


@given(
    versions=st.lists(
        st.integers(min_value=1, max_value=50), min_size=1, max_size=30,
    )
)
@settings(max_examples=80, deadline=None)
def test_versioned_store_applied_log_strictly_increases(versions):
    store = VersionedStore()
    for at, version in enumerate(versions):
        store.apply("x", version, version, float(at))
    logged = [v for _k, v, _t in store.applied_log]
    assert logged == sorted(set(logged))


@given(numbers=agent_numbers)
@settings(max_examples=50, deadline=None)
def test_agent_id_total_order(numbers):
    ids = [aid(n) for n in numbers]
    ordered = sorted(ids)
    # trichotomy + transitivity via sorted stability
    for left, right in zip(ordered, ordered[1:]):
        assert left < right or left == right
    assert sorted(ids, reverse=True) == list(reversed(ordered))

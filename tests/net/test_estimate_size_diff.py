"""Differential property: the inlined ``estimate_size`` ≡ the recursive
reference (``tests/net/estimate_size_reference.py``).

Message sizes feed the latency model, so a payload sized one byte
differently moves every simulated number after it. Nested payloads mix
the member types sized inline (int, float, str, None) with those that
still cost a call: bools, bytes, non-ASCII text, ``str``/``int``
subclasses, objects with ``wire_size()``, dataclass-like objects and
opaque ones.
"""

from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.message import estimate_size
from tests.net.estimate_size_reference import estimate_size_reference


class Sized:
    def __init__(self, size: int) -> None:
        self.size = size

    def wire_size(self) -> int:
        return self.size


class Name(str):
    pass


class Count(int):
    pass


@dataclass
class Record:
    value: object
    _hidden: object = None


class Slotted:
    __slots__ = ("value", "_hidden")

    def __init__(self, value) -> None:
        self.value = value


class Opaque:
    __slots__ = ()


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(),  # ASCII and non-ASCII
    st.text(alphabet="abcxyz019_:."),
    st.binary(max_size=8),
    st.text().map(Name),
    st.integers().map(Count),
    st.integers(0, 1 << 16).map(Sized),
    st.just(Opaque()),
)

HASHABLE = st.one_of(
    st.integers(), st.text(), st.booleans(), st.none(), st.floats(allow_nan=False)
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.sets(HASHABLE, max_size=5),
        st.frozensets(HASHABLE, max_size=5),
        st.dictionaries(HASHABLE, children, max_size=5),
        children.map(Record),
        children.map(Slotted),
    )


PAYLOADS = st.recursive(SCALARS, _containers, max_leaves=40)


@given(payload=PAYLOADS)
@settings(max_examples=500, deadline=None)
def test_inlined_sizes_equal_the_recursive_reference(payload):
    assert estimate_size(payload) == estimate_size_reference(payload)


def test_a_protocol_shaped_payload():
    payload = {
        "batch_id": 17, "agent_id": "s3:1234.5:7", "origin": "s3",
        "epoch": 2, "reply": None, "ok": True, "note": "naïve",
        "writes": [(f"k{i}", i, float(i)) for i in range(8)],
        "versions": {f"k{i}": i for i in range(32)},
        "sized": Sized(40),
    }
    assert estimate_size(payload) == estimate_size_reference(payload)

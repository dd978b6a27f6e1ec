"""Property tests for the network substrate."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.latency import ConstantLatency, UniformLatency
from repro.net.message import HEADER_BYTES, Message, estimate_size
from repro.net.network import Network
from repro.net.topology import Topology
from repro.sim.core import Environment
from repro.sim.rng import RandomStreams


def build(seed: int, latency=None, hosts=("a", "b")):
    env = Environment()
    topo = Topology.full_mesh(list(hosts))
    network = Network(
        env, topo, latency=latency or UniformLatency(1.0, 20.0),
        streams=RandomStreams(seed),
    )
    endpoints = {h: network.register(h) for h in hosts}
    return env, network, endpoints


@given(
    count=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=60, deadline=None)
def test_reliable_channels_deliver_exactly_once(count, seed):
    """Without faults, every message is delivered exactly once."""
    env, network, eps = build(seed)
    received = []

    eps["b"].serve(("SEQ",), None, lambda msg: received.append(msg.payload))
    for index in range(count):
        eps["a"].send("b", "SEQ", index)
    env.run()
    assert sorted(received) == list(range(count))
    assert network.stats.total_messages() == count
    assert network.stats.total_dropped() == 0


@given(
    seed=st.integers(min_value=0, max_value=1000),
    sizes=st.lists(
        st.integers(min_value=0, max_value=100_000), min_size=1,
        max_size=20,
    ),
)
@settings(max_examples=60, deadline=None)
def test_byte_accounting_is_exact(seed, sizes):
    env, network, eps = build(seed)
    total = 0
    for size in sizes:
        eps["a"].send("b", "DATA", size_bytes=size or 1)
        total += size or 1
    env.run()
    assert network.stats.total_bytes() == total


@given(
    items=st.lists(
        st.integers(min_value=0, max_value=5), min_size=1, max_size=50,
    ),
    spaced=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_serve_preserves_fifo(items, spaced):
    """One serve over three kinds takes its messages in arrival order
    across the kinds, whether a message found the server idle or queued
    behind a service (``item % 3`` ms, so some take none)."""
    env, _network, eps = build(0, latency=ConstantLatency(1.0))
    kinds = ("K0", "K1", "K2")
    handled = []
    eps["b"].serve(
        kinds,
        lambda msg: float(msg.payload[1] % 3),
        lambda msg: handled.append(msg.payload),
    )
    for index, item in enumerate(items):
        payload = (index, item)
        env.call_in(
            index if spaced else 0.0,
            lambda p: eps["a"].send("b", kinds[p[1] % 3], p),
            payload,
        )
    env.run()
    assert handled == list(enumerate(items))
    assert eps["b"].pending == 0


@given(
    count=st.integers(min_value=0, max_value=30),
    self_sends=st.integers(min_value=0, max_value=5),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=60, deadline=None)
def test_every_message_is_one_scheduled_event(count, self_sends, seed):
    env, network, eps = build(seed)
    for index in range(count):
        eps["a"].send("b", "SEQ", index)
    for index in range(self_sends):
        eps["b"].send("b", "SEQ", index)
    steps = 0
    while env.peek() != float("inf"):
        env.step()
        steps += 1
    assert steps == count + self_sends
    # nobody serves SEQ: each arrival is dropped and counted
    assert network.stats.expired == count + self_sends


_payloads = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


@given(payload=_payloads, include_self=st.booleans())
@settings(max_examples=60, deadline=None)
def test_broadcast_bytes_equal_per_destination_sizing(payload, include_self):
    hosts = ("a", "b", "c", "d")
    env, network, eps = build(0, hosts=hosts)
    sent = eps["a"].broadcast("DATA", payload, include_self=include_self)
    assert len(sent) == len(hosts) - (0 if include_self else 1)
    assert all(
        m.size_bytes == HEADER_BYTES + estimate_size(payload) for m in sent
    )
    assert network.stats.total_bytes() == sum(
        Message("a", m.dst, "DATA", payload).size_bytes for m in sent
    )

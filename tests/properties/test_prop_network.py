"""Property tests for the network substrate."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.latency import UniformLatency
from repro.net.network import Network
from repro.net.topology import Topology
from repro.sim.core import Environment
from repro.sim.rng import RandomStreams


def build(seed: int, fifo: bool):
    env = Environment()
    topo = Topology.full_mesh(["a", "b"])
    network = Network(
        env, topo, latency=UniformLatency(1.0, 20.0),
        streams=RandomStreams(seed), fifo_links=fifo, inbox_ttl=20_000.0,
    )
    endpoints = {h: network.register(h) for h in ("a", "b")}
    return env, network, endpoints


@given(
    count=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=1000),
    fifo=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_reliable_channels_deliver_exactly_once(count, seed, fifo):
    """Without faults, every message is delivered exactly once."""
    env, network, eps = build(seed, fifo)
    received = []

    def receiver(env):
        for _ in range(count):
            msg = yield eps["b"].receive()
            received.append(msg.payload)

    for index in range(count):
        eps["a"].send("b", "SEQ", index)
    env.process(receiver(env))
    env.run()
    assert sorted(received) == list(range(count))
    assert network.stats.total_messages() == count
    assert network.stats.total_dropped() == 0


@given(
    count=st.integers(min_value=2, max_value=40),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=60, deadline=None)
def test_fifo_links_never_reorder(count, seed):
    env, _network, eps = build(seed, fifo=True)
    received = []

    def receiver(env):
        for _ in range(count):
            msg = yield eps["b"].receive()
            received.append(msg.payload)

    for index in range(count):
        eps["a"].send("b", "SEQ", index)
    env.process(receiver(env))
    env.run()
    assert received == list(range(count))


@given(
    seed=st.integers(min_value=0, max_value=1000),
    sizes=st.lists(
        st.integers(min_value=0, max_value=100_000), min_size=1,
        max_size=20,
    ),
)
@settings(max_examples=60, deadline=None)
def test_byte_accounting_is_exact(seed, sizes):
    env, network, eps = build(seed, fifo=False)
    total = 0
    for size in sizes:
        eps["a"].send("b", "DATA", size_bytes=size or 1)
        total += size or 1
    env.run()
    assert network.stats.total_bytes() == total

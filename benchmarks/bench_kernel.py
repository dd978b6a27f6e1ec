"""Microbenchmarks of substrate paths marpbench has no micro for.

``benchmarks/marpbench/micro.py`` times ``decide`` (its event-loop
micro still yields ``env.timeout`` and reports null), and its workloads
time ``run_once``; what is left here is ``rank_queue`` over wide
tables, the packed-priority callback heap and the
``LockingTable`` merge fold (marpbench's two merge micros still pass the
deleted ``delta_views`` argument and report null). Needs the
``benchmark`` fixture of pytest-benchmark, which is not in the ``dev``
extra: ``pytest benchmarks/bench_kernel.py`` where it is installed;
nothing in CI runs this file.
"""

import pytest

from repro.core.machines.identity import AgentId
from repro.core.machines.priority import decide
from repro.core.machines.table import LockingTable
from repro.core.machines.wire import SharedView
from repro.sim.core import Environment


@pytest.mark.benchmark(group="kernel")
@pytest.mark.parametrize("n_servers", [5, 25, 100])
def test_decide_scales_with_table_width(benchmark, n_servers):
    """The priority rule over wide tables (the ROADMAP's
    hundreds-of-replicas sweeps) — exercises the packed top scan and
    the mutation-counter memo."""
    from repro.core.machines.priority import rank_queue

    table = LockingTable()
    agents = [AgentId("h", float(n), 0) for n in range(20)]
    for index in range(n_servers):
        table.update(
            SharedView(
                host=f"s{index + 1}",
                as_of=1.0,
                view=tuple(agents[index % 5:] + agents[:index % 5]),
            )
        )

    def evaluate():
        decision = decide(table, n_servers, agents[5])
        order = rank_queue(table, n_servers, limit=3)
        return decision, order

    decision, order = benchmark(evaluate)
    assert decision.outcome is not None
    assert len(order) <= 3


@pytest.mark.benchmark(group="kernel")
def test_table_merge_throughput(benchmark):
    """The flattened LL/UL->LT merge: fold a tour's worth of fresh
    views (interning, reference counts, packed adoption)."""
    agents = [AgentId("h", float(n), 0) for n in range(30)]
    tour = [
        SharedView(
            host=f"s{index + 1}",
            as_of=float(round_ + 1),
            view=tuple(agents[(index + round_) % 10:]),
        )
        for round_ in range(10)
        for index in range(10)
    ]

    def merge_tour():
        table = LockingTable()
        for view in tour:
            table.update(view)
        return len(table.known_hosts)

    assert benchmark(merge_tour) == 10


@pytest.mark.benchmark(group="kernel")
def test_packed_priority_schedule_throughput(benchmark):
    """The packed heap entry under mixed priorities: ``call_in`` /
    ``call_urgent`` fold ``(priority, seq)`` into one int key, so the
    heap compares ``(when, key)`` scalars and never reaches the callback
    — this pins the cost and the ordering contract (priority beats
    insertion order at equal time)."""

    def churn():
        env = Environment()
        fired = []
        append = fired.append
        for index in range(1500):
            if index % 3 == 0:  # a third through the urgent tier
                env.call_urgent(append, index)
            else:
                env.call_in(float(index % 11), append, index)
        env.run()
        return len(fired)

    assert benchmark(churn) == 1500

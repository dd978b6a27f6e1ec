"""Micro-benchmarks: one public call per layer, timed around that call.

Each micro does a *fixed* amount of work (sized to about 0.1 s on the
2-core reference host), three times, and reports the median rate. They
import from the canonical modules (``repro.core.machines.*``), never the
re-export shims, and each does its imports itself: when a refactor
removes a symbol the micro reports ``None`` with the reason and every
other number still comes out.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["MICROS", "run_micros"]

_REPEATS = 3
_clock = time.perf_counter


def _timeout_events() -> float:
    from repro.sim.core import Environment

    count = 150_000
    env = Environment()

    def ticker(env):
        for _ in range(count):
            yield env.timeout(1)

    env.process(ticker(env))
    started = _clock()
    env.run()
    return count / (_clock() - started)


def _decide_table():
    """A 5-server table over 20 queued agents, three of them finished."""
    from repro.agents.identity import AgentId
    from repro.core.machines.table import LockingTable
    from repro.core.machines.wire import SharedView

    agents = [AgentId("h", float(n), 0) for n in range(20)]

    def view(index: int, as_of: float) -> SharedView:
        return SharedView(
            host=f"s{index + 1}", as_of=as_of,
            view=tuple(agents[index:] + agents[:index]),
            updated=frozenset(agents[:3]), versions={"x": index},
        )

    table = LockingTable()
    for index in range(5):
        table.update(view(index, 1.0))
    return table, agents, view


def _decide_memo() -> float:
    from repro.core.machines.priority import decide

    table, agents, _view = _decide_table()
    calls = 80_000
    me = agents[5]
    started = _clock()
    for _ in range(calls):
        decide(table, 5, me)
    return calls / (_clock() - started)


def _decide_cold() -> float:
    """``decide`` after the table changed: a fresher view of one server
    is merged (untimed) before every call, so no memo can answer."""
    from repro.core.machines.priority import decide

    table, agents, view = _decide_table()
    calls = 15_000
    me = agents[5]
    spent = 0.0
    for call in range(calls):
        table.update(view(call % 5, 2.0 + call))
        started = _clock()
        decide(table, 5, me)
        spent += _clock() - started
    return calls / spent


def _merge(delta: bool, rounds: int) -> float:
    """One agent's table re-merging a 200-host bulletin, 4 hosts changed
    per round: the full plane re-merges every view, the delta plane skips
    unchanged hosts by sequence number and patches the rest. Only
    ``LockingTable.update`` / ``apply_delta`` are inside the timer."""
    from repro.agents.identity import AgentId
    from repro.core.machines.delta import DeltaJournal
    from repro.core.machines.table import LockingTable
    from repro.core.machines.wire import SharedView

    n_hosts, queue_len, ual_len, n_keys, churn = 200, 30, 50, 64, 4
    ids = [AgentId("h", float(n), 0) for n in range(queue_len + ual_len)]
    hosts: Dict[str, Dict[str, Any]] = {
        f"s{index + 1}": {
            "queue": list(ids[:queue_len]),
            "updated": set(ids[queue_len:]),
            "versions": {f"k{k}": 1 for k in range(n_keys)},
            "journal": DeltaJournal(f"s{index + 1}"),
        }
        for index in range(n_hosts)
    }

    def snapshot(host: str, now: float) -> SharedView:
        state = hosts[host]
        return SharedView(
            host=host, as_of=now, view=tuple(state["queue"]),
            updated=frozenset(state["updated"]), versions=dict(state["versions"]),
            seq=state["journal"].seq if delta else -1,
        )

    table = LockingTable(delta_views=delta)
    views = {host: snapshot(host, 1.0) for host in hosts}
    for view in views.values():
        table.update(view)

    merges, spent, now = 0, 0.0, 1.0
    for rnd in range(rounds):
        now += 1.0
        changed = {f"s{(rnd * churn + i) % n_hosts + 1}" for i in range(churn)}
        for host in changed:
            state = hosts[host]
            moved = state["queue"].pop(0)  # a requeue: head to tail
            state["queue"].append(moved)
            state["journal"].bump("deq", moved)
            state["journal"].bump("enq", moved)
            key = f"k{(rnd + len(host)) % n_keys}"
            state["versions"][key] += 1
            state["journal"].bump("ver", (key, state["versions"][key]))
            if delta:
                views[host] = state["journal"].delta_since(table.acked_seq(host), now)
            else:
                views[host] = snapshot(host, now)
        started = _clock()
        for host, view in views.items():
            if delta and host in changed:
                table.apply_delta(view)
            else:
                table.update(view)
        spent += _clock() - started
        merges += len(views)
        if delta:
            # A delta is valid once; later rounds present the full view again.
            for host in changed:
                views[host] = snapshot(host, now)
    return merges / spent


def _merge_full() -> float:
    return _merge(delta=False, rounds=30)


def _merge_delta() -> float:
    return _merge(delta=True, rounds=800)


def _harness_commits() -> float:
    """The kernel alone: no DES, no network model, fixed latencies."""
    from repro.core.machines.replay import KernelHarness

    hosts = [f"s{i}" for i in range(1, 6)]
    submits = 200
    started = _clock()
    harness = KernelHarness(hosts)
    for index in range(submits):
        harness.submit(
            hosts[index % 5], index + 1, f"k{index % 4}", index,
            at=index * 10.0, created_seq=index,
        )
    harness.run(max_events=10_000_000)
    spent = _clock() - started
    committed = sum(1 for s in harness.statuses().values() if s == "committed")
    if committed != submits:
        raise RuntimeError(f"harness committed {committed} of {submits}")
    return committed / spent


def _estimate_size() -> float:
    from repro.net.message import estimate_size

    payload = {
        "batch_id": 17, "agent_id": "s3:1234.5:7", "origin": "s3", "epoch": 2,
        "writes": [(f"k{i}", i, float(i)) for i in range(8)],
        "versions": {f"k{i}": i for i in range(32)},
    }
    calls = 5_000
    started = _clock()
    for _ in range(calls):
        estimate_size(payload)
    return calls / (_clock() - started)


def _latency_samples() -> float:
    from repro.net.latency import lan_profile
    from repro.sim.rng import RandomStreams

    model = lan_profile()
    stream = RandomStreams(0).stream("latency")
    samples = 60_000
    started = _clock()
    for _ in range(samples):
        model.sample("s1", "s2", 2048, stream)
    return samples / (_clock() - started)


def _suitcase():
    """A live agent that has visited all of a 5-host cluster."""
    from repro.agents.identity import AgentId
    from repro.core.machines.wire import SharedView
    from repro.runtime.shipping import LiveAgentState

    hosts = [f"h{i}" for i in range(1, 6)]
    agents = [AgentId(hosts[n % 5], float(n), n) for n in range(12)]
    state = LiveAgentState(
        agent_id=agents[4], home="h5", batch_id=5,
        requests=[(5, "k1", 5, 0.0)], tour_remaining=set(), location="h5",
    )
    for index, host in enumerate(hosts):
        state.table.update(SharedView(
            host=host, as_of=1.0 + index,
            view=tuple(agents[index:index + 6]), updated=frozenset(agents[:index]),
            versions={f"k{k}": k + index for k in range(4)},
        ))
        state.visited.add(host)
    return state


def _ship_roundtrips() -> float:
    from repro.runtime.shipping import ship, unship

    state = _suitcase()
    trips = 1_200
    started = _clock()
    for _ in range(trips):
        state = unship(ship(state))
    return trips / (_clock() - started)


def _suitcase_bytes() -> float:
    from repro.runtime.shipping import ship

    return float(len(ship(_suitcase())))


def _observe_records() -> float:
    from repro.analysis.metrics import StreamingMetrics
    from repro.replication.requests import WRITE, RequestRecord

    records = [
        RequestRecord(
            request_id=n, home="s1", op=WRITE, key="k", value=n,
            created_at=float(n), dispatched_at=float(n),
            lock_acquired_at=n + 20.0 + n % 7, completed_at=n + 25.0 + n % 11,
            visits_to_lock=3 + n % 3, status="committed",
        )
        for n in range(1000)
    ]
    metrics = StreamingMetrics()
    observe = metrics.observe
    laps = 15
    started = _clock()
    for _ in range(laps):
        for record in records:
            observe(record)
    return laps * len(records) / (_clock() - started)


def _requests_generated() -> float:
    """What one client draws per chunk: gaps, then (op, key, value)."""
    from repro.sim.rng import RandomStreams
    from repro.workload.arrivals import ExponentialArrivals
    from repro.workload.mix import OperationMix

    streams = RandomStreams(0)
    gaps, ops, keys = (streams.stream(n) for n in ("gaps", "ops", "keys"))
    arrivals = ExponentialArrivals(50.0)
    mix = OperationMix(
        write_fraction=0.5, keys=[f"k{i}" for i in range(256)], key_skew=0.9
    )
    chunk, chunks = 1024, 400
    started = _clock()
    for _ in range(chunks):
        arrivals.gaps(gaps, chunk)
        mix.sample_batch(chunk, ops, keys)
    return chunk * chunks / (_clock() - started)


def _hub_overhead() -> float:
    """Wall of a small contended run with a hub installed over without."""
    from repro import obs
    from repro.experiments.runner import run_once

    from workloads import WORKLOADS

    build = WORKLOADS["marp_contended_n5"].build
    walls: Dict[bool, List[float]] = {False: [], True: []}
    previous = obs.get_hub()
    run_once(build(1, 0.25))  # warm-up: the first run in a process pays lazy set-up
    try:
        for _ in range(_REPEATS):
            for enabled in (False, True):
                obs.set_hub(obs.ObservabilityHub() if enabled else None)
                config = build(1, 0.25)
                started = _clock()
                run_once(config)
                walls[enabled].append(_clock() - started)
    finally:
        obs.set_hub(previous)
    return statistics.median(walls[True]) / statistics.median(walls[False])


#: name -> (unit, function, repeats). The hub ratio repeats inside itself
#: because its two sides must alternate.
MICROS: Dict[str, Tuple[str, Callable[[], float], int]] = {
    "sim.timeout_events_per_s": ("1/s", _timeout_events, _REPEATS),
    "machines.decide_memo_calls_per_s": ("1/s", _decide_memo, _REPEATS),
    "machines.decide_cold_calls_per_s": ("1/s", _decide_cold, _REPEATS),
    "machines.merge_full_views_per_s": ("1/s", _merge_full, _REPEATS),
    "machines.merge_delta_views_per_s": ("1/s", _merge_delta, _REPEATS),
    "harness.commits_per_s": ("1/s", _harness_commits, _REPEATS),
    "net.estimate_size_calls_per_s": ("1/s", _estimate_size, _REPEATS),
    "net.latency_samples_per_s": ("1/s", _latency_samples, _REPEATS),
    "live_runtime.ship_roundtrips_per_s": ("1/s", _ship_roundtrips, _REPEATS),
    "live_runtime.suitcase_bytes": ("B", _suitcase_bytes, 1),
    "analysis.observe_records_per_s": ("1/s", _observe_records, _REPEATS),
    "workload.requests_generated_per_s": ("1/s", _requests_generated, _REPEATS),
    "obs.hub_overhead_ratio": ("ratio", _hub_overhead, 1),
}


def run_micros() -> Dict[str, Dict[str, Any]]:
    """Every micro: ``{"value", "unit", "reason"}``, value None if it is gone."""
    out: Dict[str, Dict[str, Any]] = {}
    for name, (unit, fn, repeats) in MICROS.items():
        value: Optional[float]
        reason: Optional[str] = None
        try:
            value = statistics.median(fn() for _ in range(repeats))
        except (ImportError, AttributeError, TypeError) as gone:
            # The symbol this micro times was removed or its signature
            # changed; the run goes on without it.
            value, reason = None, f"{type(gone).__name__}: {gone}"
        out[name] = {"value": value, "unit": unit, "reason": reason}
    return out

"""Overhead guard: observability must be free when disabled.

The zero-cost contract (docs/observability.md): with no hub installed —
or a *disabled* hub installed — every instrumented component resolves
its hub reference to ``None`` at construction and the simulator runs
the exact pre-obs code paths (``Environment.step`` is not even
wrapped). This bench measures that claim on a real MARP run and fails
if the disabled-hub configuration costs more than 3% wall time against
the no-hub baseline. The *enabled*-hub cost is reported for
information only; it buys the full metric/span stream and has no
budget.

The same contract covers the **cross-hop trace propagation** path in
the live runtime: the trace id / phase timestamps ride in the pickled
agent state whether or not a hub exists, but span recording at each
host must vanish when no hub is installed. The live measurement gets a
far looser budget — its wall time is dominated by injected link
latency and thread scheduling, so the signal is coarse — plus a
functional check that the *enabled* configuration actually yields
linked whole-journey traces (otherwise a silently-dead span path would
look like a 0% overhead win).

Runs standalone (``python benchmarks/bench_obs_overhead.py``) and under
pytest; CI's tier-1 suite does not include benchmarks, so wall-clock
noise here can never break the build — the 3% assertion uses min-of-N
timing to stay stable anyway.
"""

import time

import pytest

from repro.experiments.runner import RunConfig, run_once
from repro.obs.hub import ObservabilityHub, set_hub
from repro.obs.journeys import reconstruct_journeys
from repro.runtime import LiveCluster

#: generous vs the expected ~0% — the disabled path is identical code.
MAX_DISABLED_OVERHEAD = 0.03
REPEATS = 7

#: the live runtime sleeps on injected latencies, so overhead there is
#: measured against a noise floor; the budget reflects that.
MAX_LIVE_DISABLED_OVERHEAD = 0.20
LIVE_REPEATS = 3
LIVE_WRITES = 9

OVERHEAD_CONFIG = RunConfig(
    protocol="marp",
    n_replicas=5,
    mean_interarrival=20.0,
    requests_per_client=15,
    seed=3,
)


def _timed_run(hub):
    """Wall seconds for one run under the given process-wide hub."""
    previous = set_hub(hub)
    try:
        start = time.perf_counter()
        result = run_once(OVERHEAD_CONFIG)
        elapsed = time.perf_counter() - start
    finally:
        set_hub(previous)
    assert result.committed > 0
    return elapsed


def measure(repeats: int = REPEATS):
    """Min-of-N wall time for no-hub / disabled-hub / enabled-hub."""
    timings = {"none": [], "disabled": [], "enabled": []}
    for _ in range(repeats):
        timings["none"].append(_timed_run(None))
        timings["disabled"].append(
            _timed_run(ObservabilityHub(enabled=False))
        )
        timings["enabled"].append(_timed_run(ObservabilityHub()))
    return {name: min(times) for name, times in timings.items()}


def _timed_live(hub):
    """Wall seconds for one contended live-cluster run under ``hub``."""
    previous = set_hub(hub)
    try:
        start = time.perf_counter()
        with LiveCluster(n_replicas=3, backend="thread", seed=5) as cluster:
            for index in range(LIVE_WRITES):
                cluster.submit_write(
                    cluster.hosts[index % len(cluster.hosts)], "x", index
                )
            records = cluster.wait_for(LIVE_WRITES, timeout=60.0)
        elapsed = time.perf_counter() - start
    finally:
        set_hub(previous)
    assert len(records) == LIVE_WRITES
    return elapsed


def measure_live(repeats: int = LIVE_REPEATS):
    """Min-of-N live wall time for no-hub / disabled-hub / enabled-hub."""
    timings = {"none": [], "disabled": [], "enabled": []}
    for _ in range(repeats):
        timings["none"].append(_timed_live(None))
        timings["disabled"].append(
            _timed_live(ObservabilityHub(enabled=False))
        )
        timings["enabled"].append(_timed_live(ObservabilityHub()))
    return {name: min(times) for name, times in timings.items()}


def test_disabled_hub_is_free():
    best = measure()
    overhead = best["disabled"] / best["none"] - 1.0
    assert overhead < MAX_DISABLED_OVERHEAD, (
        f"disabled-hub overhead {overhead:+.1%} exceeds "
        f"{MAX_DISABLED_OVERHEAD:.0%} "
        f"(none={best['none'] * 1e3:.1f}ms, "
        f"disabled={best['disabled'] * 1e3:.1f}ms)"
    )


def test_live_disabled_hub_overhead():
    best = measure_live()
    overhead = best["disabled"] / best["none"] - 1.0
    assert overhead < MAX_LIVE_DISABLED_OVERHEAD, (
        f"live disabled-hub overhead {overhead:+.1%} exceeds "
        f"{MAX_LIVE_DISABLED_OVERHEAD:.0%} "
        f"(none={best['none'] * 1e3:.1f}ms, "
        f"disabled={best['disabled'] * 1e3:.1f}ms)"
    )


def test_live_enabled_run_records_cross_hop_journeys():
    """The overhead being paid must buy linked whole-journey traces."""
    hub = ObservabilityHub()
    _timed_live(hub)
    journeys = reconstruct_journeys(hub)
    assert len(journeys) == LIVE_WRITES
    assert all(journey.complete for journey in journeys)
    assert any(len(journey.hops) >= 1 for journey in journeys)
    for journey in journeys:
        path = journey.path
        assert abs(path.alt_ms + path.commit_ms + path.tail_ms
                   - path.att_ms) < 1e-6


@pytest.mark.benchmark(group="obs")
def test_enabled_hub_run(benchmark):
    def run_instrumented():
        return _timed_run(ObservabilityHub())

    benchmark(run_instrumented)


def main() -> int:
    best = measure()
    disabled = best["disabled"] / best["none"] - 1.0
    enabled = best["enabled"] / best["none"] - 1.0
    print(f"baseline (no hub):   {best['none'] * 1e3:8.1f} ms")
    print(f"disabled hub:        {best['disabled'] * 1e3:8.1f} ms "
          f"({disabled:+.1%})")
    print(f"enabled hub:         {best['enabled'] * 1e3:8.1f} ms "
          f"({enabled:+.1%}, for information)")
    ok = disabled < MAX_DISABLED_OVERHEAD
    print(f"disabled-overhead budget {MAX_DISABLED_OVERHEAD:.0%}: "
          f"{'PASS' if ok else 'FAIL'}")

    live = measure_live()
    live_disabled = live["disabled"] / live["none"] - 1.0
    live_enabled = live["enabled"] / live["none"] - 1.0
    print(f"live baseline:       {live['none'] * 1e3:8.1f} ms")
    print(f"live disabled hub:   {live['disabled'] * 1e3:8.1f} ms "
          f"({live_disabled:+.1%})")
    print(f"live enabled hub:    {live['enabled'] * 1e3:8.1f} ms "
          f"({live_enabled:+.1%}, for information)")
    live_ok = live_disabled < MAX_LIVE_DISABLED_OVERHEAD
    print(f"live disabled-overhead budget "
          f"{MAX_LIVE_DISABLED_OVERHEAD:.0%}: "
          f"{'PASS' if live_ok else 'FAIL'}")
    return 0 if ok and live_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

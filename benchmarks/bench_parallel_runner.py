"""Parallel experiment engine: speedup and byte-equivalence guard.

Runs a 20-point sweep (5 interarrival gaps × 2 cluster sizes × 2
repeats) two ways and compares:

* **serial** — the baseline engine, exactly ``run_once`` in a loop;
* **pool** — ``ParallelRunner(jobs=4)`` over a fresh process pool.

Two claims are enforced:

1. **Byte-equivalence** (always): both executions produce identical
   :func:`result_fingerprint` sequences — parallelism may only change
   wall-clock time, never a measured number.
2. **Speedup ≥ 2.5×** at ``-j 4``: asserted only when the machine
   actually has ≥ 4 usable cores (a single-core container cannot
   parallelise anything).

Runs standalone (``python benchmarks/bench_parallel_runner.py``) and
under pytest; benchmarks are outside the tier-1 suite.
"""

import os
import time

from repro.experiments.parallel import ParallelRunner
from repro.experiments.runner import (
    RunConfig, repeat_configs, result_fingerprint,
)

JOBS = 4
MIN_SPEEDUP = 2.5

#: 5 gaps × 2 sizes × 2 repeats = 20 runs, a realistic sweep shape.
GAPS = (20.0, 35.0, 50.0, 80.0, 120.0)
SIZES = (3, 5)
REPEATS = 2


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def sweep_configs():
    """The 20-run batch, repeat seeds derived by stream splitting."""
    return [
        child
        for n in SIZES
        for gap in GAPS
        for child in repeat_configs(
            RunConfig(
                n_replicas=n,
                mean_interarrival=gap,
                requests_per_client=6,
                seed=11,
            ),
            REPEATS,
        )
    ]


def _timed(runner, configs):
    start = time.perf_counter()
    results = runner.run_many(configs)
    return time.perf_counter() - start, [
        result_fingerprint(r) for r in results
    ]


def measure(jobs: int = JOBS):
    """Wall seconds + fingerprints for serial / pool."""
    configs = sweep_configs()
    out = {"runs": len(configs), "cores": _usable_cores(), "jobs": jobs}
    with ParallelRunner() as serial:
        out["serial_s"], out["serial_fp"] = _timed(serial, configs)
    with ParallelRunner(jobs=jobs) as pool:
        out["pool_s"], out["pool_fp"] = _timed(pool, configs)
    out["pool_speedup"] = out["serial_s"] / out["pool_s"]
    return out


def check(best) -> bool:
    """Apply both claims; returns True when the speedup one applies."""
    assert best["pool_fp"] == best["serial_fp"], (
        "pool execution changed measured results"
    )
    if best["cores"] >= JOBS:
        assert best["pool_speedup"] >= MIN_SPEEDUP, (
            f"-j {JOBS} speedup {best['pool_speedup']:.1f}x below "
            f"{MIN_SPEEDUP}x on {best['cores']} cores"
        )
        return True
    return False  # pool claim not applicable on this machine


def test_parallel_runner_speedup_and_equivalence():
    check(measure())


def main() -> int:
    best = measure()
    pool_checked = check(best)
    print(f"sweep: {best['runs']} runs, -j {best['jobs']} "
          f"on {best['cores']} usable core(s)")
    print(f"serial:        {best['serial_s'] * 1e3:8.1f} ms")
    print(f"pool:          {best['pool_s'] * 1e3:8.1f} ms "
          f"({best['pool_speedup']:.2f}x)")
    print("fingerprints: serial == pool "
          f"({best['runs']} runs, byte-identical)")
    if pool_checked:
        print(f"-j {JOBS} pool speedup >= {MIN_SPEEDUP}x: PASS")
    else:
        print(f"-j {JOBS} pool speedup >= {MIN_SPEEDUP}x: skipped "
              f"(only {best['cores']} usable core(s))")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

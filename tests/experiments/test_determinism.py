"""Determinism regression: one config + seed ⇒ one result, everywhere.

``run_once`` must produce an identical *measured surface* (the
``result_fingerprint``) no matter where it executes:

* twice in the same interpreter (process-global request-id counters
  advance between runs — the fingerprint normalizes them away);
* in a ``ProcessPoolExecutor`` worker via :class:`ParallelRunner`;
* in a fresh interpreter (``python -c``), the way a cold CI shard would
  see it.

This is the contract the parallel engine stands on: ``-j N`` is only
sound if a worker-produced result is byte-equivalent to the serial one.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.experiments.parallel import ParallelRunner
from repro.experiments.runner import (
    RunConfig, result_fingerprint, run_once, run_repeats,
)

CONFIG = RunConfig(
    n_replicas=5, seed=42, mean_interarrival=40.0, requests_per_client=5
)

#: Reconstructs CONFIG in a fresh interpreter and prints its fingerprint.
_FRESH_SCRIPT = """
from repro.experiments.runner import RunConfig, result_fingerprint, run_once

config = RunConfig(
    n_replicas=5, seed=42, mean_interarrival=40.0, requests_per_client=5
)
print(result_fingerprint(run_once(config)))
"""


def test_same_interpreter_rerun_identical():
    first = result_fingerprint(run_once(CONFIG))
    second = result_fingerprint(run_once(CONFIG))
    assert first == second


def test_pool_worker_matches_serial():
    serial = result_fingerprint(run_once(CONFIG))
    with ParallelRunner(jobs=2) as runner:
        pooled = runner.run_one(CONFIG)
    assert result_fingerprint(pooled) == serial
    # workers ship results back pickled, without the live deployment
    assert pooled.deployment is None


def test_fresh_interpreter_matches_serial():
    serial = result_fingerprint(run_once(CONFIG))
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_SCRIPT],
        capture_output=True, text=True, check=True, env=env,
    )
    assert proc.stdout.strip() == serial


def test_run_order_does_not_matter():
    """Sharding contract: results line up with configs by index."""
    configs = [CONFIG.with_(seed=s) for s in (1, 2, 3, 4)]
    serial = [result_fingerprint(run_once(c)) for c in configs]
    with ParallelRunner(jobs=2) as runner:
        pooled = [result_fingerprint(r) for r in runner.run_many(configs)]
        reversed_back = [
            result_fingerprint(r)
            for r in reversed(runner.run_many(list(reversed(configs))))
        ]
    assert pooled == serial
    assert reversed_back == serial


def test_run_repeats_serial_vs_parallel():
    serial = run_repeats(CONFIG, repeats=3)
    with ParallelRunner(jobs=2) as runner:
        pooled = run_repeats(CONFIG, repeats=3, runner=runner)
    assert [result_fingerprint(r) for r in serial] == [
        result_fingerprint(r) for r in pooled
    ]


def test_fingerprint_distinguishes_seeds():
    """Sanity: the fingerprint is not insensitive to actual behaviour."""
    a = result_fingerprint(run_once(CONFIG))
    b = result_fingerprint(run_once(CONFIG.with_(seed=43)))
    assert a != b


@pytest.mark.parametrize("protocol", ["marp", "primary-copy"])
def test_protocols_deterministic_through_engine(engine_runner, protocol):
    config = CONFIG.with_(protocol=protocol)
    assert result_fingerprint(engine_runner.run_one(config)) == (
        result_fingerprint(run_once(config))
    )

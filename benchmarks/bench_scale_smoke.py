"""CI scale-smoke: the million-request data plane at 100k requests.

Five checks under explicit budgets, the runs each in its own subprocess so
``ru_maxrss`` measures that run alone:

1. **Bulk streaming run** — a 100k-request Zipf scenario (the canonical
   ``scale_config``: 5 replicas x 20k requests, 256 keys, skew 0.99,
   hygiene windows) must finish consistent within
   the wall-clock and peak-RSS budgets below. This is the shape of the
   acceptance 1M run at a CI-compatible size; throughput is linear in
   request count past ~10k, so a 100k pass predicts the 1M behaviour.
2. **Memory ratio** — the same scenario with ``streaming=False``
   (full-record accounting) must cost at least
   :data:`MIN_MEMORY_RATIO` x more *incremental* memory (RSS over an
   interpreter/workload-free baseline child) than the streaming run:
   streaming accounting is O(1) in request count, full-record is O(N).
3. **Saturation artifact** — a miniature ``run_scale`` sweep (MARP vs
   a quorum baseline) writes the ``repro-scale/v1`` saturation-curve
   JSON that CI uploads as an artifact, and sanity-checks its schema.
4. **Hundreds-of-replicas tour** — a fixed-seed N=150 MARP run (every
   agent tours all 150 replicas, exchanging O(Δ) view deltas) must
   finish consistent, fully committed, and within its own wall/RSS
   budgets.
5. **Full-record MARP memory** — a fixed-seed full-record MARP run
   (N=5, 16 Zipf-0.9 keys, 60 ms gaps, 2,400 writes) must finish
   consistent, fully committed, under a peak-RSS budget: memory is
   what the run records plus the agents in flight, never every Locking
   Table ever built.

Runs standalone (``python benchmarks/bench_scale_smoke.py [OUT.json]``)
and under pytest. Budgets are generous vs the measured values (on the
2-core reference host the bulk run takes ~19 s and ~56 MB) to absorb
shared-runner noise without letting a quadratic regression through:
the pre-hygiene data plane blew the wall budget at this size by an
order of magnitude.
"""

import json
import resource
import subprocess
import sys
import time

#: wall-clock budget (s) for the 100k-request streaming run: about 22x
#: the ~11.8 s it takes on the 2-core reference host (four alternated
#: runs: 10.6, 10.9, 12.0, 13.1 s, against 13.7, 15.5, 15.6, 18.6 s
#: while every server loop, client and write coordinator was a
#: generator process) — the headroom ratio the earlier 420 s and 900 s
#: budgets were set at.
WALL_BUDGET_S = 260.0
#: peak-RSS budget (MB) for the 100k-request streaming run.
RSS_BUDGET_MB = 500.0
#: full-record accounting must cost at least this many times the
#: streaming run's incremental memory at 100k requests.
MIN_MEMORY_RATIO = 5.0

REQUESTS_PER_CLIENT = 20_000  # x5 replicas = 100k requests
SMOKE_PROTOCOL = "primary-copy"  # the fast bulk plane; MARP-rate runs
                                 # of this size belong to `repro scale`

#: wall-clock budget (s) for the fixed-seed N=150 delta-view tour:
#: about 10.7x the ~12.8 s it takes on the 2-core reference host (two
#: alternated pairs: 12.0 and 13.6 s, against 16.5 and 18.5 s before a
#: visit stopped re-merging the board, rescanning every queue and
#: re-encoding the suitcase) — the headroom ratio the earlier 220 s
#: budget was set at.
DELTA_WALL_BUDGET_S = 140.0
#: peak-RSS budget (MB) for the fixed-seed N=150 delta-view tour: about
#: 2.4x the ~106 MB it peaks at on the 2-core reference host (118 MB
#: while every delta-patched view copied its base's finished set).
DELTA_RSS_BUDGET_MB = 250.0
DELTA_REPLICAS = 150
DELTA_REQUESTS = 1  # per client; one client per replica

#: writes per client (x5 replicas) of the full-record MARP run, in
#: marp_contended_n5's regime: 16 Zipf-0.9 keys, 60 ms gaps, seed 3.
MARP_FULL_REQUESTS = 480
#: peak-RSS budget (MB) for that run: about 2x the ~59 MB it peaks at.
#: A run holds its records, its replica histories and the agents in
#: flight; while every delta-patched view copied its base's finished set
#: this run peaked at ~81 MB, and while it also kept every finished
#: agent's Locking Table, at ~609 MB.
MARP_FULL_RSS_BUDGET_MB = 120.0

_CHILD = """\
import json
import resource
import sys

from repro.experiments.runner import run_once
from repro.experiments.scale import ScaleVariant, scale_config

streaming = sys.argv[1] == "1"
requests = int(sys.argv[2])
protocol = sys.argv[3]
n_replicas = int(sys.argv[4])
gap = float(sys.argv[5])
n_keys = int(sys.argv[6])
key_skew = float(sys.argv[7])
config = scale_config(
    protocol,
    ScaleVariant(label="smoke", n_replicas=n_replicas, n_keys=n_keys,
                 key_skew=key_skew),
    gap,
    requests,
    seed=3,
)
if not streaming:
    config = config.with_(streaming=False)
result = run_once(config)
print(json.dumps({
    "committed": result.committed,
    "consistent": result.audit.consistent,
    "att_p99": result.att_p99,
    "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
}))
"""


def _child_run(streaming: bool, requests: int,
               protocol: str = SMOKE_PROTOCOL, n_replicas: int = 5,
               gap: float = 100.0, n_keys: int = 256,
               key_skew: float = 0.99):
    """One isolated run; returns (doc, wall_seconds)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, "1" if streaming else "0",
         str(requests), protocol, str(n_replicas), str(gap), str(n_keys),
         str(key_skew)],
        capture_output=True, text=True,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise AssertionError(
            f"smoke child failed: {proc.stderr.strip()[-800:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def test_bulk_streaming_run_within_budgets():
    doc, wall = _child_run(True, REQUESTS_PER_CLIENT)
    print(f"bulk streaming 100k: wall {wall:.1f}s "
          f"rss {doc['rss_mb']:.1f}MB p99 {doc['att_p99']:.1f}ms")
    assert doc["committed"] == REQUESTS_PER_CLIENT * 5
    assert doc["consistent"]
    assert wall < WALL_BUDGET_S, f"wall {wall:.1f}s over {WALL_BUDGET_S}s"
    assert doc["rss_mb"] < RSS_BUDGET_MB, (
        f"peak RSS {doc['rss_mb']:.1f}MB over {RSS_BUDGET_MB}MB"
    )


def test_streaming_memory_at_least_5x_below_full_record():
    base, _ = _child_run(True, 10)  # interpreter + imports floor
    stream, _ = _child_run(True, REQUESTS_PER_CLIENT)
    full, _ = _child_run(False, REQUESTS_PER_CLIENT)
    stream_mb = max(stream["rss_mb"] - base["rss_mb"], 1.0)
    full_mb = full["rss_mb"] - base["rss_mb"]
    ratio = full_mb / stream_mb
    print(f"incremental RSS: streaming {stream_mb:.1f}MB, "
          f"full-record {full_mb:.1f}MB ({ratio:.1f}x)")
    assert stream["committed"] == full["committed"]
    assert ratio >= MIN_MEMORY_RATIO, (
        f"full-record/streaming memory ratio {ratio:.1f}x "
        f"< {MIN_MEMORY_RATIO}x"
    )


def test_saturation_artifact(out_path="output/scale_smoke.json"):
    from repro.experiments.scale import (
        QUICK_INTERARRIVALS, ScaleVariant, run_scale,
    )

    family = run_scale(
        protocols=("marp", "mcv"),
        interarrivals=QUICK_INTERARRIVALS,
        variants=[ScaleVariant(label="smoke", n_keys=16, key_skew=0.99)],
        requests_per_client=30,
        seed=7,
    )
    doc = family.payload()
    assert doc["schema"] == "repro-scale/v1"
    assert {c["protocol"] for c in doc["curves"]} == {"marp", "mcv"}
    for curve in doc["curves"]:
        assert len(curve["points"]) == len(QUICK_INTERARRIVALS)
        assert all(p["consistent"] for p in curve["points"])
    import os

    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote saturation artifact: {out_path}")


def test_delta_view_tour_at_150_replicas():
    doc, wall = _child_run(
        True, DELTA_REQUESTS, protocol="marp",
        n_replicas=DELTA_REPLICAS, gap=500.0,
    )
    print(f"delta tour N={DELTA_REPLICAS}: wall {wall:.1f}s "
          f"rss {doc['rss_mb']:.1f}MB p99 {doc['att_p99']:.1f}ms")
    assert doc["committed"] == DELTA_REQUESTS * DELTA_REPLICAS
    assert doc["consistent"]
    assert wall < DELTA_WALL_BUDGET_S, (
        f"wall {wall:.1f}s over {DELTA_WALL_BUDGET_S}s"
    )
    assert doc["rss_mb"] < DELTA_RSS_BUDGET_MB, (
        f"peak RSS {doc['rss_mb']:.1f}MB over {DELTA_RSS_BUDGET_MB}MB"
    )


def test_full_record_marp_memory_within_budget():
    doc, wall = _child_run(
        False, MARP_FULL_REQUESTS, protocol="marp", gap=60.0, n_keys=16,
        key_skew=0.9,
    )
    print(f"full-record MARP {MARP_FULL_REQUESTS * 5}: wall {wall:.1f}s "
          f"rss {doc['rss_mb']:.1f}MB p99 {doc['att_p99']:.1f}ms")
    assert doc["committed"] == MARP_FULL_REQUESTS * 5
    assert doc["consistent"]
    assert doc["rss_mb"] < MARP_FULL_RSS_BUDGET_MB, (
        f"peak RSS {doc['rss_mb']:.1f}MB over {MARP_FULL_RSS_BUDGET_MB}MB"
    )


def main() -> int:
    out_path = sys.argv[1] if len(sys.argv) > 1 else "output/scale_smoke.json"
    test_bulk_streaming_run_within_budgets()
    test_streaming_memory_at_least_5x_below_full_record()
    test_saturation_artifact(out_path)
    test_delta_view_tour_at_150_replicas()
    test_full_record_marp_memory_within_budget()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"scale smoke OK (driver RSS {rss:.1f}MB)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

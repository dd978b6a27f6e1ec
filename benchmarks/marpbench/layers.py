"""Per-layer attribution: which package of ``src/repro`` the time went to.

A *layer* is one package of this repository (plus ``python`` for
everything outside it). The traced pass runs a workload once under
``cProfile`` with a private ``ObservabilityHub`` installed; this module
folds the profile by file path into layers and reads the hub's counters.
Nothing here is used by an untraced pass, so end-to-end numbers never
carry this cost.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import threading
import time
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "LAYERS",
    "layer_of",
    "fold_profile",
    "ThreadedProfile",
    "hub_counts",
]

#: Every layer a run can be charged to, in report order.
LAYERS: Tuple[str, ...] = (
    "sim", "machines", "harness", "des_driver", "live_runtime", "net",
    "workload", "analysis", "obs", "baselines", "experiments", "python",
)

#: The two kernel files that are a test harness, not the protocol.
_HARNESS_FILES = ("core/machines/replay.py", "core/machines/adversary.py")

#: Package directory (relative to ``repro/``) -> layer, first match wins.
_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("core/machines/", "machines"),
    ("sim/", "sim"),
    ("core/", "des_driver"),
    ("replication/", "des_driver"),
    ("agents/", "des_driver"),
    ("runtime/", "live_runtime"),
    ("net/", "net"),
    ("workload/", "workload"),
    ("analysis/", "analysis"),
    ("obs/", "obs"),
    ("baselines/", "baselines"),
    ("experiments/", "experiments"),
)


def layer_of(relpath: str) -> Optional[str]:
    """Layer of a file given its path relative to ``src/repro/``.

    ``None`` means the map does not know the file: a package added after
    this benchmark was written. Its time is reported as
    ``trace.unmapped_share`` instead of being hidden in another layer.
    """
    relpath = relpath.replace(os.sep, "/")
    if relpath in _HARNESS_FILES:
        return "harness"
    for prefix, layer in _PREFIXES:
        if relpath.startswith(prefix):
            return layer
    if "/" not in relpath:
        # repro/cli.py, repro/errors.py, ...: glue beside the entry points.
        return "experiments"
    return None


def fold_profile(stats: Dict[Any, Any], package_root: str) -> Dict[str, Any]:
    """Fold a ``pstats`` table into per-layer self time and call counts.

    A function's self time goes to the layer of its file. The profiles
    are taken with ``builtins=False``, so a C builtin (``list.append``,
    ``heapq.heappush``, ``pickle.dumps``) is not an entry of its own: its
    time stays in the self time of the Python function that called it,
    and so lands in that caller's layer — an optimisation that removes
    the call removes the builtin's time with it.
    """
    package_root = os.path.join(os.path.abspath(package_root), "")
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for (filename, _line, _name), (_cc, ncalls, tottime, _ct, _callers) in stats.items():
        if filename.startswith(package_root):
            layer = layer_of(os.path.relpath(filename, package_root)) or "unmapped"
        else:
            layer = "python"
        self_s[layer] += tottime
        calls[layer] += ncalls
    total = sum(self_s.values())
    # A layer's seconds are its share of the total. They are not reported
    # one by one: most layers are idle on most workloads, and a time that
    # reads 0 on every run is what the driver takes for a constant.
    metrics: Dict[str, Any] = {"trace.self_total_s": total}
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = self_s.get(layer, 0.0) / total if total else 0.0
        metrics[f"{layer}.calls"] = calls.get(layer, 0)
    metrics["trace.unmapped_share"] = (
        self_s.get("unmapped", 0.0) / total if total else 0.0
    )
    return metrics


class ThreadedProfile:
    """``cProfile`` over the calling thread and every thread it starts.

    ``cProfile`` only sees the thread that enabled it, and the live
    backend does its work in one thread per host. ``threading.setprofile``
    installs a bootstrap hook in each new thread which swaps itself for a
    profile of that thread; the per-thread tables are merged on exit.
    Worker threads are timed on their own CPU clock so that time blocked
    in a queue wait is not counted as work; ``cpu_clock`` does the same
    for the calling thread (the live load generator, which mostly waits).
    The single-threaded DES keeps the default wall clock, whose reads are
    an order of magnitude cheaper.
    """

    def __init__(self, cpu_clock: bool = False) -> None:
        self._main = (
            cProfile.Profile(time.thread_time, builtins=False) if cpu_clock
            else cProfile.Profile(builtins=False)
        )
        self._workers: List[cProfile.Profile] = []
        self.stats: Dict[Any, Any] = {}

    def _bootstrap(self, _frame, _event, _arg) -> None:
        profile = cProfile.Profile(time.thread_time, builtins=False)
        self._workers.append(profile)
        profile.enable()

    def __enter__(self) -> "ThreadedProfile":
        threading.setprofile(self._bootstrap)
        self._main.enable()
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self._main.disable()
        threading.setprofile(None)
        merged = pstats.Stats(self._main)
        for profile in self._workers:
            merged.add(profile)
        self.stats = merged.stats


def _counter_total(hub, name: str, **labels: str) -> float:
    """Sum of a hub counter's series whose labels include ``labels``."""
    instrument = hub.registry.get(name)
    if instrument is None:
        return 0.0
    return sum(
        sample.value
        for sample in instrument.samples()
        if all(sample.labels.get(k) == v for k, v in labels.items())
    )


def hub_counts(hub) -> Dict[str, float]:
    """The protocol counters the per-layer ratios are built from."""
    return {
        "sim_events": _counter_total(hub, "sim_events_total"),
        "parks": _counter_total(hub, "marp_parks_total"),
        "claims": _counter_total(hub, "marp_claims_total"),
        "claims_won": _counter_total(hub, "marp_claims_total", outcome="committed"),
        "grants": _counter_total(hub, "replica_grants_total"),
        "grants_ack": _counter_total(hub, "replica_grants_total", outcome="ack"),
        "net_expired": _counter_total(hub, "net_expired_total"),
    }

"""End-to-end metric table, sample summaries and ``--compare``.

The bounds here are this benchmark's own, for two documents made with
the *same seed*: on the DES workloads the simulated numbers repeat to the
last digit, so they get a tight bound. ``BENCHMARK.json`` carries looser
bounds for the driver, which varies the seed between runs.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

__all__ = ["Metric", "END_TO_END", "summarize", "verdict", "compare_documents"]


@dataclass(frozen=True)
class Metric:
    unit: str
    better: str  # "higher" | "lower"
    #: clock on a DES workload; on the live workload every number is host time
    des_clock: str  # "sim" | "host"
    des_bound: float
    live_bound: float


#: The seven end-to-end metrics. A bound is the share of A's value by
#: which B's value may be worse before the pair counts as a regression.
END_TO_END: Dict[str, Metric] = {
    "ops_per_s": Metric("1/s", "higher", "host", 0.10, 0.10),
    "att_ms_p50": Metric("ms", "lower", "sim", 0.02, 0.15),
    "att_ms_tail": Metric("ms", "lower", "sim", 0.02, 0.15),
    "alt_ms_mean": Metric("ms", "lower", "sim", 0.02, 0.15),
    "peak_rss_mb": Metric("MB", "lower", "host", 0.10, 0.10),
    "setup_s": Metric("s", "lower", "host", 0.20, 0.20),
    "failed_share": Metric("share", "lower", "sim", 0.0, 0.0),
}


def summarize(name: str, values: Sequence[float], live: bool = False) -> Dict[str, Any]:
    """The run's value of metric ``name``: the median over its passes, with
    quartiles, count and the samples themselves."""
    metric = END_TO_END[name]
    values = list(values)
    if len(values) >= 2:
        q1, _median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
        "values": values, "unit": metric.unit,
        "clock": "host" if live else metric.des_clock,
    }


def verdict(metric: Metric, bound: float, a: Dict[str, Any], b: Dict[str, Any]) -> str:
    """``ok`` | ``regression`` | ``unresolved`` for one workload x metric.

    Pass *i* of both documents ran the same inputs, so the noise of the
    comparison is the spread of the pass-by-pass ratios B/A, not of the
    raw values (passes of one run differ by design). Unresolved means that
    spread is wider than the bound, so equal values prove nothing — unless
    every pass of B reads better than its pass of A.
    """
    sign = 1.0 if metric.better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"])
    if worse_by > bound * abs(a["value"]) + 1e-12:
        return "regression"
    pairs = list(zip(a["values"], b["values"]))
    ratios = [y / x for x, y in pairs if x]
    noise = 0.0
    if len(ratios) >= 2:
        q1, _median, q3 = statistics.quantiles(ratios, n=4)
        noise = q3 - q1
    if bound > 0.0 and noise > bound:
        all_better = all(sign * (y - x) < 0 for x, y in pairs)
        return "ok" if all_better else "unresolved"
    return "ok"


class MalformedDocument(Exception):
    pass


def _load(path: str) -> Dict[str, Any]:
    try:
        with open(path) as handle:
            document = json.load(handle)
    except (OSError, ValueError) as bad:
        raise MalformedDocument(f"{path}: {bad}") from bad
    if not isinstance(document, dict) or document.get("schema") != "marpbench/v1":
        raise MalformedDocument(f"{path}: not a marpbench/v1 document")
    if not isinstance(document.get("workloads"), dict):
        raise MalformedDocument(f"{path}: no workloads")
    return document


def _rows(a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[List[str], List[str]]:
    """(report lines, regressions). One row per workload."""
    lines: List[str] = []
    regressions: List[str] = []
    for name in sorted(set(a["workloads"]) | set(b["workloads"])):
        in_a, in_b = a["workloads"].get(name), b["workloads"].get(name)
        if in_a is None or in_b is None:
            raise MalformedDocument(f"workload {name} is in one document only")
        cells = []
        for metric_name, metric in END_TO_END.items():
            try:
                side_a = in_a["end_to_end"].get(metric_name)
                side_b = in_b["end_to_end"].get(metric_name)
                if side_a is None and side_b is None:
                    continue  # not defined on this workload (ALT on primary-copy)
                if side_a["n"] != side_b["n"]:
                    raise MalformedDocument(
                        f"{name}.{metric_name}: {side_a['n']} passes against "
                        f"{side_b['n']}; make both documents with the same flags"
                    )
                live = side_a["clock"] == "host" and metric.des_clock == "sim"
                bound = metric.live_bound if live else metric.des_bound
                result = verdict(metric, bound, side_a, side_b)
                change = (
                    (side_b["value"] - side_a["value"]) / abs(side_a["value"])
                    if side_a["value"] else 0.0
                )
            except (KeyError, TypeError, ValueError) as bad:
                raise MalformedDocument(f"{name}.{metric_name}: {bad!r}") from bad
            cells.append(f"{metric_name} {change:+.1%} {result}")
            if result == "regression":
                regressions.append(f"{name}.{metric_name}")
        lines.append(f"{name}: " + " | ".join(cells))
        if in_a.get("sim_fingerprint") != in_b.get("sim_fingerprint"):
            lines.append(f"  sim_fingerprint moved: {in_a.get('sim_fingerprint')} -> "
                         f"{in_b.get('sim_fingerprint')} (simulated results changed)")
        layers_a, layers_b = in_a.get("per_layer"), in_b.get("per_layer")
        if layers_a and layers_b:
            # Printed for attribution, never gated.
            moved = [
                f"{key} {layers_a[key]:.4g}->{layers_b[key]:.4g}"
                for key in sorted(set(layers_a) & set(layers_b))
                if layers_a[key] != layers_b[key]
            ]
            lines.append("  per-layer: " + ("; ".join(moved) if moved else "no change"))
    return lines, regressions


def compare_documents(path_a: str, path_b: str) -> int:
    """Print the comparison; 0 ok, 1 regression, 2 malformed input."""
    try:
        lines, regressions = _rows(_load(path_a), _load(path_b))
    except MalformedDocument as bad:
        print(f"marpbench --compare: {bad}")
        return 2
    print(f"marpbench --compare {path_a} (A) -> {path_b} (B); change is B against A")
    for line in lines:
        print(line)
    if regressions:
        print("REGRESSION: " + ", ".join(regressions))
        return 1
    return 0

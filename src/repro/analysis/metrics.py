"""The paper's evaluation metrics (§4).

* **ALT** — "the average time required by a mobile agent to obtain the
  lock" (dispatch → lock acquisition).
* **ATT** — "the average total time required by a mobile agent to process
  an update request", including the UPDATE/COMMIT messaging (dispatch →
  completion).
* **PRK** — "the percentage of requests whose lock is obtained by
  visiting K number of servers".

All metrics are pure functions over lists of
:class:`~repro.replication.requests.RequestRecord`, so they apply to any
protocol (for the baselines, ALT is the quorum-assembly time and PRK is
undefined). Aggregation is vectorised with numpy.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.analysis.stats import P2Quantile, Welford
from repro.replication.requests import RequestRecord

__all__ = [
    "committed_writes",
    "alt",
    "att",
    "prk",
    "visit_counts",
    "response_times",
    "throughput",
    "arrival_rate",
    "StreamingMetrics",
]


def committed_writes(records: Iterable[RequestRecord]) -> List[RequestRecord]:
    """The records that contribute to the paper's update metrics."""
    return [r for r in records if r.is_write and r.status == "committed"]


def _mean(values: List[float]) -> float:
    if not values:
        return float("nan")
    return float(np.mean(values))


def alt(records: Iterable[RequestRecord]) -> float:
    """Average Lock Time in ms (nan when no commits)."""
    return _mean(
        [r.lock_time for r in committed_writes(records) if r.lock_time is not None]
    )


def att(records: Iterable[RequestRecord]) -> float:
    """Average Total Time in ms (nan when no commits)."""
    return _mean(
        [r.total_time for r in committed_writes(records) if r.total_time is not None]
    )


def visit_counts(records: Iterable[RequestRecord]) -> np.ndarray:
    """Distinct-server visit counts at lock acquisition, one per commit."""
    return np.asarray(
        [
            r.visits_to_lock
            for r in committed_writes(records)
            if r.visits_to_lock is not None
        ],
        dtype=int,
    )


def prk(
    records: Iterable[RequestRecord], n_replicas: Optional[int] = None
) -> Dict[int, float]:
    """Fraction of committed updates whose lock needed K server visits.

    Returns ``{K: fraction}``; when ``n_replicas`` is given, every K from
    the theoretical minimum ⌈(N+1)/2⌉ to N appears (possibly 0.0), which
    is the shape of the paper's Figure 4 series.
    """
    counts = visit_counts(records)
    out: Dict[int, float] = {}
    if n_replicas is not None:
        for k in range(n_replicas // 2 + 1, n_replicas + 1):
            out[k] = 0.0
    if counts.size == 0:
        return out
    values, freq = np.unique(counts, return_counts=True)
    total = counts.size
    for value, count in zip(values, freq):
        out[int(value)] = float(count) / total
    return out


def response_times(records: Iterable[RequestRecord]) -> np.ndarray:
    """Client-perceived latencies of all completed requests."""
    return np.asarray(
        [
            r.response_time
            for r in records
            if r.response_time is not None and r.status in ("committed", "read-done")
        ],
        dtype=float,
    )


def _per_second(count: int, span_ms: float) -> float:
    """``count`` events over ``span_ms`` as ``(count-1)/span`` per second
    (0 when fewer than two, or no time between them)."""
    if count < 2 or span_ms <= 0:
        return 0.0
    return (count - 1) / (span_ms / 1000.0)


def throughput(records: Iterable[RequestRecord]) -> float:
    """Committed updates per second of simulated time (0 when < 2)."""
    commits = committed_writes(records)
    if len(commits) < 2:
        return 0.0
    times = np.asarray([r.completed_at for r in commits], dtype=float)
    return _per_second(len(commits), float(times.max() - times.min()))


def arrival_rate(records: Iterable[RequestRecord]) -> float:
    """Update arrivals per second of simulated time (0 when < 2).

    Measured as :func:`throughput` measures commits, ``(n-1)/span``
    over the writes' creation times, so a run that serves every update
    as it arrives has a throughput equal to it, up to latency jitter.
    """
    times = [r.created_at for r in records if r.is_write]
    if len(times) < 2:
        return 0.0
    return _per_second(len(times), max(times) - min(times))


class StreamingMetrics:
    """O(1)-memory accumulator over terminal :class:`RequestRecord`\\ s.

    The streaming counterpart of the batch functions above: feed every
    record exactly once when it reaches a terminal status (the protocol
    sweep does this) and read the same metrics without ever holding the
    record list. Exactness contract, pinned by the parity tests:

    * :meth:`alt` / :meth:`att` / mean response time — exact (Welford);
    * :meth:`prk` / counts / :meth:`throughput` / :meth:`arrival_rate`
      — exact (counters and the identical ``(n-1)/span`` formulas; the
      arrivals are those of the writes that reached a terminal status);
    * ATT / response-time p50 and p99 — P² estimates, within the
      documented error bounds of the batch percentiles.
    """

    def __init__(self) -> None:
        self._alt = Welford()
        self._att = Welford()
        self._response = Welford()
        self.att_p50 = P2Quantile(0.5)
        self.att_p99 = P2Quantile(0.99)
        self.response_p50 = P2Quantile(0.5)
        self.response_p99 = P2Quantile(0.99)
        self._visit_counts: Dict[int, int] = {}
        self.observed = 0
        self.committed = 0
        self.failed = 0
        self.reads_done = 0
        self._first_commit_at = float("inf")
        self._last_commit_at = float("-inf")
        self._writes = 0
        self._first_write_at = float("inf")
        self._last_write_at = float("-inf")

    def observe(self, record: RequestRecord) -> None:
        """Fold one *terminal* record into the accumulators."""
        self.observed += 1
        if record.is_write:
            self._writes += 1
            created_at = record.created_at
            if created_at < self._first_write_at:
                self._first_write_at = created_at
            if created_at > self._last_write_at:
                self._last_write_at = created_at
        status = record.status
        if status == "failed":
            self.failed += 1
            return
        if status == "read-done":
            self.reads_done += 1
            response = record.response_time
            if response is not None:
                self._response.observe(response)
                self.response_p50.observe(response)
                self.response_p99.observe(response)
            return
        if status != "committed" or not record.is_write:
            return
        self.committed += 1
        lock_time = record.lock_time
        if lock_time is not None:
            self._alt.observe(lock_time)
        total_time = record.total_time
        if total_time is not None:
            self._att.observe(total_time)
            self.att_p50.observe(total_time)
            self.att_p99.observe(total_time)
        response = record.response_time
        if response is not None:
            self._response.observe(response)
            self.response_p50.observe(response)
            self.response_p99.observe(response)
        visits = record.visits_to_lock
        if visits is not None:
            self._visit_counts[visits] = self._visit_counts.get(visits, 0) + 1
        completed_at = record.completed_at
        if completed_at is not None:
            if completed_at < self._first_commit_at:
                self._first_commit_at = completed_at
            if completed_at > self._last_commit_at:
                self._last_commit_at = completed_at

    # -- the paper's metrics, streaming form ---------------------------

    def alt(self) -> float:
        return self._alt.result()

    def att(self) -> float:
        return self._att.result()

    def response_mean(self) -> float:
        return self._response.result()

    def prk(self, n_replicas: Optional[int] = None) -> Dict[int, float]:
        out: Dict[int, float] = {}
        if n_replicas is not None:
            for k in range(n_replicas // 2 + 1, n_replicas + 1):
                out[k] = 0.0
        total = sum(self._visit_counts.values())
        if total == 0:
            return out
        for visits in sorted(self._visit_counts):
            out[int(visits)] = self._visit_counts[visits] / total
        return out

    def throughput(self) -> float:
        """Committed updates per second (same formula as the batch fn)."""
        return _per_second(
            self.committed, self._last_commit_at - self._first_commit_at
        )

    def arrival_rate(self) -> float:
        """Update arrivals per second (same formula as the batch fn)."""
        return _per_second(
            self._writes, self._last_write_at - self._first_write_at
        )

    def __repr__(self) -> str:
        return (
            f"<StreamingMetrics observed={self.observed} "
            f"committed={self.committed} failed={self.failed}>"
        )

"""Summary statistics for experiment aggregation.

Replicated simulation runs (different seeds) are summarised with means
and Student-t confidence intervals — the standard reporting discipline
for stochastic discrete-event experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Summary", "summarize", "confidence_interval",
    "Welford", "P2Quantile",
]


class Welford:
    """Streaming mean/variance accumulator (Welford's algorithm).

    The running mean is exact (up to float rounding), so streaming-mode
    ALT/ATT means match the batch ``np.mean`` to ~1e-12 relative — the
    differential parity tests pin this. O(1) memory.
    """

    __slots__ = ("count", "mean", "_m2", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def variance(self) -> float:
        """Sample variance (ddof=1); nan below two observations."""
        if self.count < 2:
            return float("nan")
        return self._m2 / (self.count - 1)

    @property
    def std(self) -> float:
        if self.count < 2:
            return 0.0 if self.count == 1 else float("nan")
        return float(np.sqrt(self._m2 / (self.count - 1)))

    def result(self) -> float:
        """The running mean (nan when nothing was observed)."""
        return self.mean if self.count else float("nan")

    def __repr__(self) -> str:
        return f"<Welford n={self.count} mean={self.mean:.6g}>"


class P2Quantile:
    """Streaming quantile estimator (Jain & Chlamtac's P² algorithm).

    Five markers track the target quantile with O(1) memory and no
    sorting. Exact for the first five observations; beyond that the
    estimate is approximate — on well-behaved unimodal latency samples
    the relative error is typically well under 5%, which is the bound
    the parity property tests document and enforce.
    """

    __slots__ = ("q", "count", "_initial", "_heights", "_pos", "_desired",
                 "_incr")

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1): {q}")
        self.q = float(q)
        self.count = 0
        self._initial: list = []
        self._heights: Optional[list] = None
        self._pos: Optional[list] = None
        self._desired: Optional[list] = None
        self._incr: Optional[tuple] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        heights = self._heights
        if heights is None:
            self._initial.append(value)
            if len(self._initial) == 5:
                self._initial.sort()
                q = self.q
                self._heights = self._initial
                self._initial = []
                self._pos = [0.0, 1.0, 2.0, 3.0, 4.0]
                self._desired = [0.0, 2 * q, 4 * q, 2 + 2 * q, 4.0]
                self._incr = (0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0)
            return

        # P² marker update (runs once the first five values are in).
        pos = self._pos
        desired = self._desired
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            cell = 0
            while cell < 3 and value >= heights[cell + 1]:
                cell += 1
        for index in range(cell + 1, 5):
            pos[index] += 1.0
        incr = self._incr
        for index in range(5):
            desired[index] += incr[index]
        for index in (1, 2, 3):
            diff = desired[index] - pos[index]
            below = pos[index] - pos[index - 1]
            above = pos[index + 1] - pos[index]
            if (diff >= 1.0 and above > 1.0) or (diff <= -1.0 and below > 1.0):
                step = 1.0 if diff >= 0 else -1.0
                candidate = self._parabolic(index, step)
                if not heights[index - 1] < candidate < heights[index + 1]:
                    candidate = self._linear(index, step)
                heights[index] = candidate
                pos[index] += step

    def _parabolic(self, index: int, step: float) -> float:
        heights = self._heights
        pos = self._pos
        return heights[index] + step / (pos[index + 1] - pos[index - 1]) * (
            (pos[index] - pos[index - 1] + step)
            * (heights[index + 1] - heights[index])
            / (pos[index + 1] - pos[index])
            + (pos[index + 1] - pos[index] - step)
            * (heights[index] - heights[index - 1])
            / (pos[index] - pos[index - 1])
        )

    def _linear(self, index: int, step: float) -> float:
        heights = self._heights
        pos = self._pos
        other = index + int(step)
        return heights[index] + step * (
            (heights[other] - heights[index]) / (pos[other] - pos[index])
        )

    def result(self) -> float:
        """Current quantile estimate (exact below six observations)."""
        if self._heights is not None:
            return float(self._heights[2])
        if not self._initial:
            return float("nan")
        return float(np.percentile(self._initial, self.q * 100.0))

    def __repr__(self) -> str:
        return f"<P2Quantile q={self.q} n={self.count}>"


@dataclass(frozen=True)
class Summary:
    """Point and spread statistics of one metric across repeats."""

    n: int
    mean: float
    std: float
    minimum: float
    maximum: float
    p50: float
    p95: float
    ci_low: float
    ci_high: float

    def __repr__(self) -> str:
        return (
            f"Summary(n={self.n}, mean={self.mean:.3g} "
            f"[{self.ci_low:.3g}, {self.ci_high:.3g}])"
        )


def _t_critical(df: int, confidence: float) -> float:
    # scipy.stats costs ~0.8 s and ~60 MB to import and only cross-run
    # confidence intervals need it, so a single run never pays for it.
    try:  # scipy is an optional dependency of the analysis layer
        from scipy import stats as scipy_stats
    except ImportError:  # pragma: no cover - scipy is installed in CI
        # Normal approximation fallback (df large enough in practice).
        return {0.90: 1.645, 0.95: 1.96, 0.99: 2.576}.get(confidence, 1.96)
    return float(scipy_stats.t.ppf(0.5 + confidence / 2.0, df))


def confidence_interval(
    values: Sequence[float], confidence: float = 0.95
) -> Tuple[float, float]:
    """Student-t CI for the mean; degenerate interval for n < 2."""
    data = np.asarray([v for v in values if not np.isnan(v)], dtype=float)
    if data.size == 0:
        return (float("nan"), float("nan"))
    mean = float(data.mean())
    if data.size == 1:
        return (mean, mean)
    sem = float(data.std(ddof=1)) / np.sqrt(data.size)
    half = _t_critical(data.size - 1, confidence) * sem
    return (mean - half, mean + half)


def summarize(values: Sequence[float], confidence: float = 0.95) -> Summary:
    """Full summary of a metric sample (nan-filtering)."""
    data = np.asarray([v for v in values if not np.isnan(v)], dtype=float)
    if data.size == 0:
        nan = float("nan")
        return Summary(0, nan, nan, nan, nan, nan, nan, nan, nan)
    low, high = confidence_interval(data, confidence)
    return Summary(
        n=int(data.size),
        mean=float(data.mean()),
        std=float(data.std(ddof=1)) if data.size > 1 else 0.0,
        minimum=float(data.min()),
        maximum=float(data.max()),
        p50=float(np.percentile(data, 50)),
        p95=float(np.percentile(data, 95)),
        ci_low=low,
        ci_high=high,
    )

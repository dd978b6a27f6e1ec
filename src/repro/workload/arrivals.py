"""Request arrival processes.

The paper drives each server with "an exponential random number
generator ... requests were generated at different rates"; the evaluation
sweeps the **mean inter-arrival time** (x-axis of Figs 2–4). All arrival
processes here produce successive inter-arrival gaps in milliseconds.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.sim.rng import Stream

__all__ = [
    "ArrivalProcess",
    "ExponentialArrivals",
    "UniformArrivals",
    "DeterministicArrivals",
    "make_arrivals",
]


class ArrivalProcess:
    """Generates successive inter-arrival gaps."""

    name = "abstract"

    def gaps(
        self, stream: Stream, count: int
    ) -> np.ndarray:  # pragma: no cover - abstract
        """``count`` successive gaps as a float64 array.

        The built-in processes make one vectorized draw, element-wise
        equal to ``count`` scalar draws from the same stream.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class ExponentialArrivals(ArrivalProcess):
    """Poisson arrivals: exponential gaps with the given mean (ms)."""

    name = "exponential"

    def __init__(self, mean: float) -> None:
        if mean <= 0:
            raise WorkloadError(f"mean inter-arrival must be > 0: {mean}")
        self.mean = mean

    def gaps(self, stream: Stream, count: int) -> np.ndarray:
        return stream.exponential_batch(self.mean, count)

    def __repr__(self) -> str:
        return f"ExponentialArrivals(mean={self.mean})"


class UniformArrivals(ArrivalProcess):
    """Gaps uniform in ``[low, high]``."""

    name = "uniform"

    def __init__(self, low: float, high: float) -> None:
        if not 0 < low <= high:
            raise WorkloadError(f"invalid uniform gap range [{low}, {high}]")
        self.low = low
        self.high = high

    def gaps(self, stream: Stream, count: int) -> np.ndarray:
        return stream.uniform_batch(self.low, self.high, count)

    def __repr__(self) -> str:
        return f"UniformArrivals({self.low}, {self.high})"


class DeterministicArrivals(ArrivalProcess):
    """Fixed gap (useful for worst-case synchronised contention tests)."""

    name = "deterministic"

    def __init__(self, interval: float) -> None:
        if interval <= 0:
            raise WorkloadError(f"interval must be > 0: {interval}")
        self.interval = interval

    def gaps(self, stream: Stream, count: int) -> np.ndarray:
        return np.full(int(count), self.interval, dtype=np.float64)

    def __repr__(self) -> str:
        return f"DeterministicArrivals({self.interval})"


def make_arrivals(name: str, **params) -> ArrivalProcess:
    """Factory by process name (CLI/experiment configuration)."""
    if name == ExponentialArrivals.name:
        return ExponentialArrivals(**params)
    if name == UniformArrivals.name:
        return UniformArrivals(**params)
    if name == DeterministicArrivals.name:
        return DeterministicArrivals(**params)
    raise WorkloadError(f"unknown arrival process {name!r}")

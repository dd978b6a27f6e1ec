"""Link latency models.

The simulation clock is in **milliseconds** throughout the library (the
paper's evaluation axes are milliseconds). A latency model answers "how
long does a transmission of ``size_bytes`` from ``src`` to ``dst`` take",
optionally scaled by the topology's per-link cost.

Two calibrated profiles bracket the paper's settings:

* :func:`lan_profile` — the prototype's testbed: a LAN of SUN
  workstations; small jittery per-hop delays, high bandwidth.
* :func:`wan_profile` — the Internet environment the paper argues MARP is
  designed for: long heavy-tailed latency (lognormal), lower bandwidth.
"""

from __future__ import annotations

import math

from repro.errors import NetworkError
from repro.sim.rng import Stream

__all__ = [
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "LogNormalLatency",
    "BandwidthLatency",
    "lan_profile",
    "wan_profile",
]


class LatencyModel:
    """Base class: maps a transmission to a delay in milliseconds."""

    def sample(
        self, src: str, dst: str, size_bytes: int, stream: Stream
    ) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def __add__(self, other: "LatencyModel") -> "LatencyModel":
        return _SumLatency(self, other)


class _SumLatency(LatencyModel):
    """Sum of two latency components (e.g. propagation + transfer)."""

    def __init__(self, first: LatencyModel, second: LatencyModel) -> None:
        self.first = first
        self.second = second

    def sample(self, src, dst, size_bytes, stream) -> float:
        return self.first.sample(src, dst, size_bytes, stream) + (
            self.second.sample(src, dst, size_bytes, stream)
        )

    def __repr__(self) -> str:
        return f"({self.first!r} + {self.second!r})"


class ConstantLatency(LatencyModel):
    """Fixed one-way delay, independent of size."""

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise NetworkError(f"latency must be >= 0: {delay}")
        self.delay = delay

    def sample(self, src, dst, size_bytes, stream) -> float:
        return self.delay

    def __repr__(self) -> str:
        return f"ConstantLatency({self.delay})"


class UniformLatency(LatencyModel):
    """Delay drawn uniformly from ``[low, high]``."""

    def __init__(self, low: float, high: float) -> None:
        if not 0 <= low <= high:
            raise NetworkError(f"invalid uniform range: [{low}, {high}]")
        self.low = low
        self.high = high

    def sample(self, src, dst, size_bytes, stream) -> float:
        return stream.uniform(self.low, self.high)

    def __repr__(self) -> str:
        return f"UniformLatency({self.low}, {self.high})"


class LogNormalLatency(LatencyModel):
    """Heavy-tailed delay typical of wide-area paths.

    Parameterised by the *median* delay and the log-space ``sigma``; the
    underlying normal mean is ``ln(median)``.
    """

    def __init__(
        self, median: float, sigma: float = 0.5, minimum: float = 0.0
    ) -> None:
        if median <= 0 or sigma < 0 or minimum < 0:
            raise NetworkError("invalid lognormal latency parameters")
        self.median = median
        self.sigma = sigma
        self.minimum = minimum

    def sample(self, src, dst, size_bytes, stream) -> float:
        return self.minimum + stream.lognormal(math.log(self.median), self.sigma)

    def __repr__(self) -> str:
        return (
            f"LogNormalLatency(median={self.median}, sigma={self.sigma}, "
            f"min={self.minimum})"
        )


class BandwidthLatency(LatencyModel):
    """Size-dependent transfer time: ``size_bytes / bandwidth``.

    ``bandwidth`` is in bytes per millisecond (so 1e4 = 10 MB/s).
    Typically composed with a propagation model via ``+``.
    """

    def __init__(self, bandwidth: float) -> None:
        if bandwidth <= 0:
            raise NetworkError(f"bandwidth must be > 0: {bandwidth}")
        self.bandwidth = bandwidth

    def sample(self, src, dst, size_bytes, stream) -> float:
        return size_bytes / self.bandwidth

    def __repr__(self) -> str:
        return f"BandwidthLatency({self.bandwidth} B/ms)"


def lan_profile() -> LatencyModel:
    """Calibrated LAN: ~1–3 ms propagation + 10 MB/s transfer.

    Matches the character of the paper's testbed (Solaris workstations on
    a local network): a small agent (~2 KB) hop costs ≈ 2–4 ms, a control
    message ≈ 1–3 ms.
    """
    return UniformLatency(1.0, 3.0) + BandwidthLatency(1e4)


def wan_profile() -> LatencyModel:
    """Calibrated WAN: heavy-tailed ~40 ms median + 1 MB/s transfer.

    Matches the Internet characteristics the paper cites (long, variable
    communication latency).
    """
    return LogNormalLatency(median=40.0, sigma=0.5, minimum=5.0) + (
        BandwidthLatency(1e3)
    )

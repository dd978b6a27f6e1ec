"""Deterministic, named random-number streams.

Every stochastic component of a simulation (each client's arrival process,
each latency model, the fault injector, ...) draws from its own named
stream derived from a single master seed. This gives two properties the
experiment harness depends on:

* **Reproducibility** — the same master seed always reproduces the same
  run, regardless of module import order.
* **Common random numbers** — when two protocol variants are compared
  under the same seed, they see *identical* workloads and latencies, so
  observed differences are attributable to the protocols (a standard
  variance-reduction technique for simulation studies).

Streams are derived by hashing the stream name into a child
``numpy.random.SeedSequence``, so adding a new stream never perturbs
existing ones.
"""

from __future__ import annotations

import zlib
from typing import Dict, Optional, Sequence

import numpy as np

__all__ = ["RandomStreams", "Stream", "spawn_seed"]

#: Cached Zipf CDFs keyed by (population size, theta). The CDF is a pure
#: function of its key, so the cache is safe to share across streams and
#: processes; it is bounded because a run touches a handful of
#: (n, theta) combinations.
_ZIPF_CDF_CACHE: Dict[tuple, np.ndarray] = {}
_ZIPF_CDF_CACHE_MAX = 64


def _zipf_cdf(n: int, theta: float) -> np.ndarray:
    """CDF of the Zipf(theta) distribution over ranks ``1..n``."""
    key = (int(n), float(theta))
    cdf = _ZIPF_CDF_CACHE.get(key)
    if cdf is None:
        ranks = np.arange(1, n + 1, dtype=np.float64)
        weights = ranks**-theta
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        if len(_ZIPF_CDF_CACHE) >= _ZIPF_CDF_CACHE_MAX:
            _ZIPF_CDF_CACHE.clear()
        _ZIPF_CDF_CACHE[key] = cdf
    return cdf


def spawn_seed(master_seed: int, label: str, index: int = 0) -> int:
    """Derive an independent child seed from ``(master_seed, label, index)``.

    Uses the same construction as :meth:`RandomStreams.stream` — the
    label is hashed into a ``SeedSequence`` spawn key — so child seeds
    are statistically independent of each other *and* of every named
    stream a run derives from its master seed. Unlike additive schemes
    (``seed + index``), two different master seeds never share a child:
    consecutive base seeds produce disjoint child-seed sets, which the
    experiment engine relies on when fanning out repeats.
    """
    name_key = zlib.crc32(label.encode("utf-8"))
    seq = np.random.SeedSequence(
        entropy=int(master_seed), spawn_key=(name_key, int(index))
    )
    return int(seq.generate_state(1, dtype=np.uint64)[0])


class Stream:
    """A thin convenience wrapper over :class:`numpy.random.Generator`."""

    __slots__ = ("name", "generator")

    def __init__(self, name: str, generator: np.random.Generator) -> None:
        self.name = name
        self.generator = generator

    # Distribution helpers used across the library -------------------------

    def exponential(self, mean: float) -> float:
        """One draw from Exp(mean). ``mean == 0`` returns 0.0 exactly."""
        if mean < 0:
            raise ValueError(f"exponential mean must be >= 0: {mean}")
        if mean == 0:
            return 0.0
        return float(self.generator.exponential(mean))

    def uniform(self, low: float, high: float) -> float:
        """One draw from U[low, high): numpy's own formula over one
        double, ``low + (high - low) * random()``, so the value and the
        stream position equal ``generator.uniform(low, high)``'s —
        without the argument broadcasting of a numpy call."""
        if high < low:
            raise ValueError(f"uniform needs low <= high: [{low}, {high}]")
        return low + (high - low) * self.generator.random()

    def lognormal(self, mean: float, sigma: float) -> float:
        return float(self.generator.lognormal(mean, sigma))

    def normal(self, loc: float, scale: float) -> float:
        return float(self.generator.normal(loc, scale))

    def integers(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high)``."""
        return int(self.generator.integers(low, high))

    def random(self) -> float:
        return float(self.generator.random())

    def choice(self, seq: Sequence):
        """Uniform choice from a non-empty sequence."""
        if len(seq) == 0:
            raise ValueError("choice from an empty sequence")
        return seq[int(self.generator.integers(0, len(seq)))]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        self.generator.shuffle(items)

    def zipf_index(self, n: int, theta: float) -> int:
        """Zipf-distributed index in ``[0, n)`` with skew ``theta``.

        ``theta == 0`` degenerates to uniform. Inverse-CDF sampling over
        a cached CDF (one uniform draw + binary search), so the scalar
        and batch samplers consume the stream identically: one
        :meth:`zipf_index` call advances the generator exactly like one
        element of :meth:`zipf_indices`.
        """
        if n <= 0:
            raise ValueError(f"zipf domain must be positive: {n}")
        if theta == 0:
            return self.integers(0, n)
        cdf = _zipf_cdf(n, theta)
        return int(np.searchsorted(cdf, self.generator.random(), side="right"))

    # Batch draws ----------------------------------------------------------
    #
    # numpy Generators produce element-wise identical sequences whether
    # values are drawn one at a time or in a block, so each helper below
    # is chunk-size invariant: drawing 10_000 values as 10 blocks of
    # 1_000 or 157 blocks of 64 yields the same sequence. The vectorized
    # workload path depends on this.

    def exponential_batch(self, mean: float, count: int) -> np.ndarray:
        """``count`` draws from Exp(mean) as a float64 array."""
        if mean < 0:
            raise ValueError(f"exponential mean must be >= 0: {mean}")
        if mean == 0:
            return np.zeros(int(count), dtype=np.float64)
        return self.generator.exponential(mean, size=int(count))

    def uniform_batch(self, low: float, high: float, count: int) -> np.ndarray:
        return self.generator.uniform(low, high, size=int(count))

    def random_batch(self, count: int) -> np.ndarray:
        """``count`` uniforms in ``[0, 1)``."""
        return self.generator.random(int(count))

    def zipf_indices(self, n: int, theta: float, count: int) -> np.ndarray:
        """``count`` Zipf(theta) indices in ``[0, n)`` (uniform when 0)."""
        if n <= 0:
            raise ValueError(f"zipf domain must be positive: {n}")
        if theta == 0:
            return self.generator.integers(0, n, size=int(count))
        cdf = _zipf_cdf(n, theta)
        u = self.generator.random(int(count))
        return np.searchsorted(cdf, u, side="right")

    def __repr__(self) -> str:
        return f"<Stream {self.name!r}>"


class RandomStreams:
    """Factory of independent named streams from one master seed."""

    def __init__(self, seed: Optional[int] = 0) -> None:
        self.seed = 0 if seed is None else int(seed)
        self._streams: Dict[str, Stream] = {}

    def stream(self, name: str) -> Stream:
        """Return the (memoised) stream for ``name``."""
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        # Stable 32-bit hash of the name; combined with the master seed in
        # a SeedSequence spawn key so streams are statistically independent.
        name_key = zlib.crc32(name.encode("utf-8"))
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(name_key,))
        stream = Stream(name, np.random.default_rng(seq))
        self._streams[name] = stream
        return stream

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __repr__(self) -> str:
        return f"<RandomStreams seed={self.seed} streams={len(self._streams)}>"

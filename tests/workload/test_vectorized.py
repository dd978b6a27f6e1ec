"""Vectorized workload generation: determinism and distribution shape.

Batch draws are element-wise identical to scalar draws from an
equally-seeded stream, the chunk size never leaks into what a client
submits, and the serial and process-pool engines agree bit-for-bit.

The scalar samplers below are the reference: one draw at a time from
the scalar ``Stream`` methods, the oracle for ``ArrivalProcess.gaps``
and ``OperationMix.sample_batch`` (clients only ever draw
``WORKLOAD_CHUNK`` requests at a time).
"""

import numpy as np

from repro.experiments.parallel import ParallelRunner
from repro.experiments.runner import RunConfig, result_fingerprint, run_once
from repro.replication import client as client_module
from repro.sim.rng import RandomStreams
from repro.workload.arrivals import ExponentialArrivals, UniformArrivals
from repro.workload.mix import OperationMix


def _stream(name="vec-tests", seed=7):
    return RandomStreams(seed).stream(name)


def scalar_gap(arrivals, stream):
    """One inter-arrival gap from one scalar draw."""
    if isinstance(arrivals, ExponentialArrivals):
        return stream.exponential(arrivals.mean)
    if isinstance(arrivals, UniformArrivals):
        return stream.uniform(arrivals.low, arrivals.high)
    return arrivals.interval


class ScalarMix:
    """``OperationMix`` one (op, key, value) at a time: a uniform for
    the operation, a Zipf index for the key, a counter for the value."""

    def __init__(self, write_fraction, keys, key_skew):
        self.write_fraction = write_fraction
        self.keys = list(keys)
        self.key_skew = key_skew
        self.writes = 0

    def sample(self, op_stream, key_stream):
        write = op_stream.random() < self.write_fraction
        key = self.keys[0]
        if len(self.keys) > 1:
            key = self.keys[
                key_stream.zipf_index(len(self.keys), self.key_skew)
            ]
        if not write:
            return "read", key, None
        self.writes += 1
        return "write", key, self.writes


class TestBatchScalarEquivalence:
    def test_exponential_batch_matches_scalar(self):
        arrivals = ExponentialArrivals(20.0)
        batch = arrivals.gaps(_stream(), 500)
        twin = _stream()
        expected = np.array([scalar_gap(arrivals, twin) for _ in range(500)])
        np.testing.assert_array_equal(batch, expected)

    def test_uniform_batch_matches_scalar(self):
        arrivals = UniformArrivals(5.0, 9.0)
        batch = arrivals.gaps(_stream(), 300)
        twin = _stream()
        expected = np.array([scalar_gap(arrivals, twin) for _ in range(300)])
        np.testing.assert_array_equal(batch, expected)

    def test_zipf_batch_matches_scalar(self):
        batch = _stream().zipf_indices(64, 0.95, 400)
        twin = _stream()
        expected = np.array([twin.zipf_index(64, 0.95) for _ in range(400)])
        np.testing.assert_array_equal(batch, expected)

    def test_uniform_key_batch_matches_scalar(self):
        # theta == 0 short-circuits to generator.integers; still must
        # consume the generator identically to scalar zipf_index calls.
        batch = _stream().zipf_indices(16, 0.0, 200)
        twin = _stream()
        expected = np.array([twin.zipf_index(16, 0.0) for _ in range(200)])
        np.testing.assert_array_equal(batch, expected)

    def test_mix_sample_batch_matches_scalar(self):
        population = tuple(f"k{i}" for i in range(32))
        mix = OperationMix(write_fraction=0.7, keys=population, key_skew=0.9)
        ops, keys = _stream("ops"), _stream("keys")
        # two chunks: the write counter carries over
        batch = mix.sample_batch(200, ops, keys) + mix.sample_batch(50, ops, keys)
        twin = ScalarMix(0.7, population, 0.9)
        twin_ops, twin_keys = _stream("ops"), _stream("keys")
        assert batch == [twin.sample(twin_ops, twin_keys) for _ in range(250)]

    def test_single_key_mix_draws_no_key(self):
        mix = OperationMix(write_fraction=0.5)
        keys = _stream("keys")
        batch = mix.sample_batch(100, _stream("ops"), keys)
        twin = ScalarMix(0.5, ["x"], 0.0)
        twin_ops, twin_keys = _stream("ops"), _stream("keys")
        assert batch == [twin.sample(twin_ops, twin_keys) for _ in range(100)]
        assert keys.random() == twin_keys.random()  # both left it untouched


class TestZipfShape:
    def test_rank_frequency_slope(self):
        """log(freq) vs log(rank) slope ≈ -theta for a Zipf sample."""
        theta = 0.9
        sample = _stream().zipf_indices(512, theta, 200_000)
        counts = np.bincount(sample, minlength=512).astype(float)
        # fit over the well-populated head (top 64 ranks)
        ranks = np.arange(1, 65)
        freqs = np.sort(counts)[::-1][:64]
        slope = np.polyfit(np.log(ranks), np.log(freqs), 1)[0]
        assert -theta - 0.08 < slope < -theta + 0.08

    def test_theta_zero_is_uniform(self):
        sample = _stream().zipf_indices(32, 0.0, 100_000)
        counts = np.bincount(sample, minlength=32)
        assert counts.min() > 0.8 * (100_000 / 32)

    def test_cdf_cache_reused(self):
        from repro.sim import rng

        rng._ZIPF_CDF_CACHE.clear()
        s = _stream()
        s.zipf_indices(100, 0.8, 10)
        s.zipf_indices(100, 0.8, 10)
        assert len(rng._ZIPF_CDF_CACHE) == 1


class TestChunkInvariance:
    BASE = RunConfig(
        n_replicas=3, seed=21, mean_interarrival=40.0,
        requests_per_client=12, n_keys=8, key_skew=0.9,
    )

    def test_chunk_size_never_changes_the_run(self, monkeypatch):
        # Clients draw from dedicated per-field streams, so the chunk
        # size — a pure batching constant — never changes what a client
        # submits. chunk=1 is the reference.
        def surface(chunk):
            monkeypatch.setattr(client_module, "WORKLOAD_CHUNK", chunk)
            result = run_once(self.BASE)
            base = min(r.request_id for r in result.records)
            return [
                (r.request_id - base, r.home, r.op, r.key,
                 r.created_at, r.completed_at, r.status)
                for r in result.records
            ]

        reference = surface(1)
        for chunk in (5, 64, 4096):
            chunked = surface(chunk)
            assert chunked == reference, f"chunk={chunk} changed the run"

    def test_chunk_invariance_under_truncation(self, monkeypatch):
        # `until` cuts generation mid-chunk; the submitted prefix must
        # still be chunk-size-invariant.
        base = self.BASE.with_(horizon=400.0)
        monkeypatch.setattr(client_module, "WORKLOAD_CHUNK", 1)
        reference = run_once(base)
        monkeypatch.setattr(client_module, "WORKLOAD_CHUNK", 64)
        chunked = run_once(base)
        assert (
            [r.key for r in chunked.records]
            == [r.key for r in reference.records]
        )

    def test_serial_vs_pool_identical_for_chunked_runs(self):
        serial = run_once(self.BASE)
        with ParallelRunner(jobs=2) as runner:
            pooled = runner.run_one(self.BASE)
        assert result_fingerprint(pooled) == result_fingerprint(serial)

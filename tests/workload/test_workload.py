"""Unit tests for arrival processes and operation mixes."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.replication.requests import READ, WRITE
from repro.sim.rng import RandomStreams
from repro.workload.arrivals import (
    DeterministicArrivals,
    ExponentialArrivals,
    UniformArrivals,
    make_arrivals,
)
from repro.workload.mix import OperationMix


@pytest.fixture
def stream():
    return RandomStreams(5).stream("workload-tests")


@pytest.fixture
def key_stream():
    return RandomStreams(5).stream("workload-test-keys")


class TestArrivals:
    def test_exponential_mean(self, stream):
        arrivals = ExponentialArrivals(20.0)
        gaps = arrivals.gaps(stream, 4000)
        assert 18.0 < np.mean(gaps) < 22.0

    def test_exponential_validation(self):
        with pytest.raises(WorkloadError):
            ExponentialArrivals(0)

    def test_uniform_bounds(self, stream):
        arrivals = UniformArrivals(5.0, 10.0)
        assert all(5 <= gap <= 10 for gap in arrivals.gaps(stream, 200))

    def test_uniform_validation(self):
        with pytest.raises(WorkloadError):
            UniformArrivals(0, 10)
        with pytest.raises(WorkloadError):
            UniformArrivals(10, 5)

    def test_deterministic_fixed(self, stream):
        arrivals = DeterministicArrivals(7.0)
        assert list(arrivals.gaps(stream, 3)) == [7.0] * 3

    def test_deterministic_validation(self):
        with pytest.raises(WorkloadError):
            DeterministicArrivals(0)

    def test_factory(self):
        assert isinstance(
            make_arrivals("exponential", mean=5.0), ExponentialArrivals
        )
        assert isinstance(
            make_arrivals("uniform", low=1, high=2), UniformArrivals
        )
        assert isinstance(
            make_arrivals("deterministic", interval=1), DeterministicArrivals
        )
        with pytest.raises(WorkloadError):
            make_arrivals("bursty")


class TestOperationMix:
    def test_all_writes(self, stream, key_stream):
        mix = OperationMix(write_fraction=1.0)
        ops = {t[0] for t in mix.sample_batch(50, stream, key_stream)}
        assert ops == {WRITE}

    def test_all_reads(self, stream, key_stream):
        mix = OperationMix(write_fraction=0.0)
        ops = {t[0] for t in mix.sample_batch(50, stream, key_stream)}
        assert ops == {READ}

    def test_mixed_fraction(self, stream, key_stream):
        mix = OperationMix(write_fraction=0.5)
        ops = [t[0] for t in mix.sample_batch(1000, stream, key_stream)]
        write_rate = ops.count(WRITE) / len(ops)
        assert 0.4 < write_rate < 0.6

    def test_write_values_unique_increasing(self, stream, key_stream):
        mix = OperationMix(write_fraction=1.0)
        values = [t[2] for t in mix.sample_batch(5, stream, key_stream)]
        assert values == [1, 2, 3, 4, 5]

    def test_reads_have_no_value(self, stream, key_stream):
        mix = OperationMix(write_fraction=0.0)
        assert mix.sample_batch(1, stream, key_stream)[0][2] is None

    def test_default_single_key(self, stream, key_stream):
        mix = OperationMix()
        assert mix.sample_batch(1, stream, key_stream)[0][1] == "x"

    def test_multiple_keys_all_hit(self, stream, key_stream):
        mix = OperationMix(keys=["a", "b", "c"])
        keys = {t[1] for t in mix.sample_batch(200, stream, key_stream)}
        assert keys == {"a", "b", "c"}

    def test_zipf_skew_prefers_first_key(self, stream, key_stream):
        mix = OperationMix(keys=[f"k{i}" for i in range(10)], key_skew=1.5)
        keys = [t[1] for t in mix.sample_batch(1000, stream, key_stream)]
        assert keys.count("k0") > keys.count("k9")

    def test_validation(self):
        with pytest.raises(WorkloadError):
            OperationMix(write_fraction=1.5)
        with pytest.raises(WorkloadError):
            OperationMix(key_skew=-1)
        with pytest.raises(WorkloadError):
            OperationMix(keys=[])

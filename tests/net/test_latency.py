"""Unit tests for the latency models."""

import pytest

from repro.errors import NetworkError
from repro.net.latency import (
    BandwidthLatency,
    ConstantLatency,
    LogNormalLatency,
    UniformLatency,
    lan_profile,
    wan_profile,
)
from repro.sim.rng import RandomStreams


@pytest.fixture
def stream():
    return RandomStreams(1).stream("latency-tests")


class TestModels:
    def test_constant(self, stream):
        model = ConstantLatency(5.0)
        assert model.sample("a", "b", 100, stream) == 5.0

    def test_constant_negative_rejected(self):
        with pytest.raises(NetworkError):
            ConstantLatency(-1)

    def test_uniform_in_range(self, stream):
        model = UniformLatency(1.0, 3.0)
        for _ in range(100):
            assert 1.0 <= model.sample("a", "b", 0, stream) <= 3.0

    def test_uniform_invalid_range(self):
        with pytest.raises(NetworkError):
            UniformLatency(3.0, 1.0)

    def test_lognormal_positive(self, stream):
        model = LogNormalLatency(median=40.0, sigma=0.5, minimum=5.0)
        for _ in range(100):
            assert model.sample("a", "b", 0, stream) >= 5.0

    def test_lognormal_invalid(self):
        with pytest.raises(NetworkError):
            LogNormalLatency(median=0)

    def test_bandwidth_scales_with_size(self, stream):
        model = BandwidthLatency(100.0)  # 100 B/ms
        assert model.sample("a", "b", 1000, stream) == 10.0
        assert model.sample("a", "b", 0, stream) == 0.0

    def test_bandwidth_invalid(self):
        with pytest.raises(NetworkError):
            BandwidthLatency(0)


class TestComposition:
    def test_sum_adds_components(self, stream):
        model = ConstantLatency(2.0) + BandwidthLatency(10.0)
        assert model.sample("a", "b", 100, stream) == 2.0 + 10.0


class TestProfiles:
    def test_lan_profile_small_delays(self, stream):
        model = lan_profile()
        draws = [model.sample("a", "b", 2048, stream) for _ in range(200)]
        assert all(1.0 <= d <= 3.5 for d in draws)

    def test_wan_profile_much_slower_than_lan(self, stream):
        lan = lan_profile()
        wan = wan_profile()
        lan_mean = sum(lan.sample("a", "b", 256, stream) for _ in range(300)) / 300
        wan_mean = sum(wan.sample("a", "b", 256, stream) for _ in range(300)) / 300
        assert wan_mean > 5 * lan_mean

    def test_wan_profile_has_minimum(self, stream):
        wan = wan_profile()
        assert all(wan.sample("a", "b", 0, stream) >= 5.0 for _ in range(100))

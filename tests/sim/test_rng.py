"""Unit tests for the named random stream factory."""

import numpy as np
import pytest

from repro.sim.rng import RandomStreams


class TestReproducibility:
    def test_same_seed_same_draws(self):
        a = RandomStreams(42).stream("workload")
        b = RandomStreams(42).stream("workload")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_seeds_differ(self):
        a = RandomStreams(1).stream("workload")
        b = RandomStreams(2).stream("workload")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_streams_are_independent_by_name(self):
        streams = RandomStreams(0)
        a = streams.stream("alpha")
        b = streams.stream("beta")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_stream_memoised(self):
        streams = RandomStreams(0)
        assert streams.stream("x") is streams.stream("x")

    def test_adding_stream_does_not_perturb_existing(self):
        s1 = RandomStreams(7)
        first = s1.stream("main")
        baseline = [first.random() for _ in range(3)]

        s2 = RandomStreams(7)
        s2.stream("other")  # created before "main" this time
        second = s2.stream("main")
        assert [second.random() for _ in range(3)] == baseline

    def test_none_seed_means_zero(self):
        assert RandomStreams(None).seed == 0

    def test_contains(self):
        streams = RandomStreams(0)
        assert "x" not in streams
        streams.stream("x")
        assert "x" in streams


class TestDistributions:
    def test_exponential_mean(self):
        stream = RandomStreams(0).stream("exp")
        draws = [stream.exponential(10.0) for _ in range(4000)]
        assert 9.0 < np.mean(draws) < 11.0
        assert all(d >= 0 for d in draws)

    def test_exponential_zero_mean_is_zero(self):
        stream = RandomStreams(0).stream("exp")
        assert stream.exponential(0) == 0.0

    def test_exponential_negative_mean_raises(self):
        stream = RandomStreams(0).stream("exp")
        with pytest.raises(ValueError):
            stream.exponential(-1)

    def test_uniform_bounds(self):
        stream = RandomStreams(0).stream("uni")
        draws = [stream.uniform(2, 5) for _ in range(500)]
        assert all(2 <= d <= 5 for d in draws)

    def test_integers_half_open(self):
        stream = RandomStreams(0).stream("int")
        draws = {stream.integers(0, 3) for _ in range(200)}
        assert draws == {0, 1, 2}

    def test_choice_uniformish(self):
        stream = RandomStreams(0).stream("choice")
        options = ["a", "b", "c"]
        draws = [stream.choice(options) for _ in range(300)]
        assert set(draws) == set(options)

    def test_choice_empty_raises(self):
        stream = RandomStreams(0).stream("choice")
        with pytest.raises(ValueError):
            stream.choice([])

    def test_shuffle_permutes_in_place(self):
        stream = RandomStreams(0).stream("shuffle")
        items = list(range(20))
        original = list(items)
        stream.shuffle(items)
        assert sorted(items) == original

    def test_zipf_uniform_when_theta_zero(self):
        stream = RandomStreams(0).stream("zipf")
        draws = [stream.zipf_index(4, 0.0) for _ in range(400)]
        assert set(draws) <= {0, 1, 2, 3}

    def test_zipf_skews_to_low_indices(self):
        stream = RandomStreams(0).stream("zipf")
        draws = [stream.zipf_index(10, 1.5) for _ in range(1000)]
        assert draws.count(0) > draws.count(9)

    def test_zipf_invalid_domain(self):
        stream = RandomStreams(0).stream("zipf")
        with pytest.raises(ValueError):
            stream.zipf_index(0, 1.0)

    def test_lognormal_positive(self):
        stream = RandomStreams(0).stream("ln")
        assert all(stream.lognormal(1.0, 0.5) > 0 for _ in range(100))


class TestUniformIsNumpysFormula:
    """``Stream.uniform`` draws one double and applies numpy's formula,
    so a run's latency draws equal ``Generator.uniform``'s bit for bit
    and leave the stream where numpy would."""

    @pytest.mark.parametrize("low, high", [(1.0, 3.0), (0.5, 2.0), (0.0, 1e-3)])
    def test_bit_identical_to_generator_uniform(self, low, high):
        ours = RandomStreams(7).stream("uni")
        numpy_side = np.random.default_rng(ours.generator.bit_generator.seed_seq)
        draws = np.array([ours.uniform(low, high) for _ in range(100_000)])
        expected = np.array([
            numpy_side.uniform(low, high) for _ in range(100_000)
        ])
        assert np.array_equal(draws.view(np.uint64), expected.view(np.uint64))
        assert ours.generator.random() == numpy_side.random()

    def test_high_below_low_raises(self):
        stream = RandomStreams(0).stream("uni")
        with pytest.raises(ValueError):
            stream.uniform(3.0, 1.0)
        with pytest.raises(ValueError):
            np.random.default_rng(0).uniform(3.0, 1.0)

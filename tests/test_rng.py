"""Tests for repro.util.rng."""

import math

import numpy as np
import pytest

from repro.util.rng import DeterministicRng


class _ZeroGaps:
    """A stand-in numpy generator whose exponential gaps are all 0.

    Gives out a bounded number of chunks, so a stream that fails to
    notice the stalled clock fails the test instead of hanging it.
    """

    class bit_generator:
        state = None

    def __init__(self):
        self.chunks = 0

    def exponential(self, mean, size):
        self.chunks += 1
        if self.chunks > 100:
            raise RuntimeError("stalled clock went unnoticed")
        return np.zeros(size)


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = DeterministicRng(42)
        b = DeterministicRng(42)
        assert [a.uniform() for _ in range(10)] == [b.uniform() for _ in range(10)]

    def test_different_seeds_differ(self):
        assert DeterministicRng(1).uniform() != DeterministicRng(2).uniform()

    def test_fork_is_independent(self):
        root = DeterministicRng(7)
        child = root.fork(1)
        other = root.fork(2)
        assert child.uniform() != other.uniform()

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            DeterministicRng(-1)


class TestDistributions:
    def test_poisson_arrivals_sorted_and_bounded(self):
        rng = DeterministicRng(3)
        arrivals = rng.poisson_arrivals(rate_per_s=100, duration_s=5.0)
        assert all(0 <= t < 5.0 for t in arrivals)
        assert arrivals == sorted(arrivals)

    def test_poisson_rate_approximate(self):
        rng = DeterministicRng(5)
        arrivals = rng.poisson_arrivals(rate_per_s=200, duration_s=50.0)
        assert len(arrivals) == pytest.approx(10_000, rel=0.05)

    def test_poisson_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            DeterministicRng(0).poisson_arrivals(0, 1.0)

    @pytest.mark.parametrize("duration", [math.nan, math.inf, -1.0])
    def test_poisson_rejects_endless_duration(self, duration):
        with pytest.raises(ValueError, match=str(duration)):
            DeterministicRng(0).poisson_arrivals(100.0, duration)

    @pytest.mark.parametrize("horizon", [math.nan, math.inf, -1.0])
    def test_event_times_rejects_endless_horizon(self, horizon):
        with pytest.raises(ValueError, match=str(horizon)):
            DeterministicRng(0).event_times(1.0, horizon)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, 0.0, -5.0])
    def test_poisson_rejects_unusable_rate(self, rate):
        # inf once grew memory without bound and nan returned [].
        with pytest.raises(ValueError, match=f"got {rate}$"):
            DeterministicRng(0).poisson_arrivals(rate, 1.0)

    @pytest.mark.parametrize("mean", [math.nan, 0.0, -1.0])
    def test_event_times_rejects_unusable_mean(self, mean):
        with pytest.raises(ValueError, match=f"got {mean}$"):
            DeterministicRng(0).event_times(mean, 1.0)

    def test_rate_beyond_clock_resolution_is_refused(self):
        # 1e300 arrivals/s once ran until MemoryError.
        with pytest.raises(ValueError, match="rate 1e[+]300/s"):
            DeterministicRng(0).poisson_arrivals(1e300, 1.0)
        with pytest.raises(ValueError, match="mean interval 1e-300 s"):
            DeterministicRng(0).event_times(1e-300, 1.0)

    def test_stalled_clock_raises_instead_of_looping(self):
        # Gaps too small to move the clock: every chunk ends where it
        # started, so the stream would never reach its horizon.
        rng = DeterministicRng(0)
        rng._gen = _ZeroGaps()
        with pytest.raises(ValueError, match="stopped advancing at 0.0 s"):
            rng.poisson_arrivals(100.0, 1.0)

    def test_uniforms_are_the_scalar_stream(self):
        rng, ref = DeterministicRng(9), DeterministicRng(9)
        assert rng.uniforms(100).tolist() == [ref.uniform()
                                              for _ in range(100)]

    def test_zero_horizon_is_empty(self):
        assert DeterministicRng(0).poisson_arrivals(100.0, 0.0) == []
        assert DeterministicRng(0).event_times(1.0, 0.0) == []

    def test_exponential_mean(self):
        rng = DeterministicRng(11)
        samples = [rng.exponential(2.0) for _ in range(20_000)]
        assert sum(samples) / len(samples) == pytest.approx(2.0, rel=0.05)

    def test_lognormal_mean_is_linear_mean(self):
        rng = DeterministicRng(13)
        samples = [rng.lognormal(5.0) for _ in range(20_000)]
        assert sum(samples) / len(samples) == pytest.approx(5.0, rel=0.05)

    def test_lognormal_positive(self):
        rng = DeterministicRng(17)
        assert all(rng.lognormal(0.001) > 0 for _ in range(100))

    def test_choice_weighted_prefers_heavy(self):
        rng = DeterministicRng(19)
        picks = [rng.choice(["a", "b"], [0.99, 0.01]) for _ in range(500)]
        assert picks.count("a") > 400

    def test_choice_empty_raises(self):
        with pytest.raises(ValueError):
            DeterministicRng(0).choice([])

    def test_choice_weight_mismatch(self):
        with pytest.raises(ValueError):
            DeterministicRng(0).choice(["a"], [0.5, 0.5])

    def test_normal_array_shape_dtype(self):
        arr = DeterministicRng(23).normal_array((3, 4))
        assert arr.shape == (3, 4)
        assert arr.dtype.name == "float32"

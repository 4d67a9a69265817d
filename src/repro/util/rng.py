"""Deterministic random number generation for simulations.

Every stochastic component in the library (request generators, yield models,
serving simulators) draws from a :class:`DeterministicRng` seeded explicitly,
so simulation results are reproducible run to run and in tests.
"""

from __future__ import annotations

import math
from typing import List, Sequence, TypeVar

import numpy as np

T = TypeVar("T")

#: Most exponential gaps a Poisson stream draws at once.
_CHUNK = 16_384
#: Its first chunk; each later one is four times larger, up to _CHUNK.
_FIRST_CHUNK = 64


def _check_horizon(name: str, seconds: float) -> None:
    """Reject a NaN, infinite or negative horizon (NaN and inf never end)."""
    if not 0 <= seconds < math.inf:
        raise ValueError(
            f"{name} must be finite and non-negative, got {seconds}")


class DeterministicRng:
    """A seeded random source with the distributions the simulators need.

    Thin wrapper over :class:`numpy.random.Generator` that (a) forces an
    explicit seed and (b) exposes only the handful of named distributions
    used across the library, making stochastic call sites self-describing.
    """

    def __init__(self, seed: int) -> None:
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self.seed = seed
        self._gen = np.random.default_rng(seed)

    def fork(self, salt: int) -> "DeterministicRng":
        """Derive an independent stream; used to give subsystems their own RNG."""
        return DeterministicRng((self.seed * 1_000_003 + salt) % (2**63))

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """One sample from U[low, high)."""
        return float(self._gen.uniform(low, high))

    def exponential(self, mean: float) -> float:
        """One sample from Exp with the given mean (inter-arrival times)."""
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        return float(self._gen.exponential(mean))

    def uniforms(self, count: int) -> np.ndarray:
        """``count`` samples from U[0, 1): the same draws, in the same
        order, as ``count`` calls to :meth:`uniform`."""
        return self._gen.uniform(0.0, 1.0, count)

    def poisson_arrivals(self, rate_per_s: float, duration_s: float) -> List[float]:
        """Arrival timestamps of a Poisson process over [0, duration_s)."""
        return self.poisson_arrival_array(rate_per_s, duration_s).tolist()

    def poisson_arrival_array(self, rate_per_s: float,
                              duration_s: float) -> np.ndarray:
        """:meth:`poisson_arrivals` as a float64 array (same draws)."""
        if not 0 < rate_per_s < math.inf:
            raise ValueError(
                f"rate must be finite and positive, got {rate_per_s}")
        _check_horizon("duration", duration_s)
        return self._poisson_times(1.0 / rate_per_s, duration_s,
                                   f"rate {rate_per_s}/s")

    def event_times(self, mean_interval_s: float,
                    horizon_s: float) -> List[float]:
        """Timestamps of a Poisson event process over ``[0, horizon_s)``.

        Like :meth:`poisson_arrivals` but parameterized by the mean gap
        (an MTBF, say) instead of a rate, and tolerant of *no* events: an
        infinite mean interval — "this never fails" — returns an empty
        list without consuming any randomness.
        """
        if not mean_interval_s > 0:
            raise ValueError(
                f"mean interval must be positive, got {mean_interval_s}")
        _check_horizon("horizon", horizon_s)
        if math.isinf(mean_interval_s) or horizon_s <= 0:
            return []
        return self._poisson_times(mean_interval_s, horizon_s,
                                   f"mean interval {mean_interval_s} s"
                                   ).tolist()

    def _poisson_times(self, mean: float, horizon: float,
                       source: str) -> np.ndarray:
        """Event times of ``now += exponential(mean)`` until ``now >=
        horizon``, drawn in chunks but bit-identical to that scalar loop.

        numpy fills an array from the same stream element by element,
        and a running ``cumsum`` seeded with ``now`` performs the same
        float additions in the same order. When the terminating draw
        lands mid-chunk the generator state is rewound and exactly the
        draws the scalar loop would have consumed are re-drawn, so a
        later caller of this generator sees an unchanged stream. Chunks
        start small (short streams pay for a few draws) and grow.
        ``source`` names the caller's parameter in errors.
        """
        expected = horizon / mean
        if expected >= 2.0**53:
            raise ValueError(
                f"{source} over {horizon} s asks for ~{expected:.3g} "
                "events, more than a float64 clock can step through")
        gen = self._gen
        bit_gen = gen.bit_generator
        chunks: List[np.ndarray] = []
        now = 0.0
        size = _FIRST_CHUNK
        while True:
            state = bit_gen.state
            times = gen.exponential(mean, size)
            times[0] += now
            np.cumsum(times, out=times)
            stop = int(times.searchsorted(horizon))
            if stop < size:
                # The terminating draw is inside this chunk: rewind and
                # consume exactly stop+1 draws, as the scalar loop would.
                bit_gen.state = state
                gen.exponential(mean, stop + 1)
                chunks.append(times[:stop])
                return np.concatenate(chunks)
            if times[-1] == now:
                raise ValueError(
                    f"{source}: the clock stopped advancing at {now} s, "
                    "gaps fall below its float64 resolution")
            chunks.append(times)
            now = float(times[-1])
            size = min(4 * size, _CHUNK)

    def lognormal(self, mean: float, sigma: float = 0.25) -> float:
        """A positive sample with the given *linear-space* mean.

        Used for service-time jitter: the returned values average ``mean``.
        """
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        mu = np.log(mean) - 0.5 * sigma**2
        return float(self._gen.lognormal(mu, sigma))

    def choice(self, items: Sequence[T], weights: Sequence[float] = ()) -> T:
        """Pick one item, optionally with relative weights."""
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        if weights:
            if len(weights) != len(items):
                raise ValueError("weights must match items in length")
            total = float(sum(weights))
            probs = [w / total for w in weights]
            index = int(self._gen.choice(len(items), p=probs))
        else:
            index = int(self._gen.integers(0, len(items)))
        return items[index]

    def integers(self, low: int, high: int) -> int:
        """One integer in [low, high)."""
        return int(self._gen.integers(low, high))

    def normal_array(self, shape: Sequence[int], scale: float = 1.0) -> np.ndarray:
        """A float32 array of N(0, scale) samples (synthetic weights/inputs)."""
        return (self._gen.standard_normal(tuple(shape)) * scale).astype(np.float32)

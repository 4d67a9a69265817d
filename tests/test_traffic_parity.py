"""Chunked traffic generation vs the scalar loops it replaced.

``DeterministicRng.poisson_arrivals``, ``DeterministicRng.event_times``
and ``RequestGenerator.diurnal`` draw and thin in numpy chunks. The
scalar loops below are the reference: the chunked code must return the
same floats, bit for bit, and leave the generator at the same point in
its stream, so whatever draws next (a later sweep scenario, a repair
time) is unchanged too.
"""

from __future__ import annotations

import gc
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.util.rng import DeterministicRng
from repro.workloads.generator import (Request, RequestGenerator,
                                      _keep_ratio)


# ------------------------------------------------------------------ oracles

def reference_poisson_arrivals(rng, rate_per_s, duration_s):
    """The scalar Poisson loop: ``now += exp()``; stop at ``duration``."""
    mean = 1.0 / rate_per_s
    arrivals, now = [], 0.0
    while True:
        now += rng.exponential(mean)
        if now >= duration_s:
            return arrivals
        arrivals.append(now)


def reference_event_times(rng, mean_interval_s, horizon_s):
    """The scalar ``event_times`` loop, as it was before chunking."""
    if math.isinf(mean_interval_s) or horizon_s <= 0:
        return []
    times = []
    now = 0.0
    while True:
        now += float(rng._gen.exponential(mean_interval_s))
        if now >= horizon_s:
            return times
        times.append(now)


def reference_diurnal(rng, tenant, mean_rate_qps, duration_s,
                      peak_to_trough=3.0, period_s=86_400.0):
    """The scalar thinning loop ``diurnal`` ran before chunking."""
    amplitude = (peak_to_trough - 1.0) / (peak_to_trough + 1.0)
    peak_rate = mean_rate_qps * (1.0 + amplitude)
    candidates = reference_poisson_arrivals(rng, peak_rate, duration_s)
    accepted = []
    for t in candidates:
        rate = mean_rate_qps * (
            1.0 + amplitude * math.sin(2.0 * math.pi * t / period_s))
        if rng.uniform() < rate / peak_rate:
            accepted.append(Request(t, tenant))
    return accepted


def _fields(requests):
    return [(r.arrival_s, r.tenant) for r in requests]


# --------------------------------------------------------------- properties

seeds = st.integers(0, 2**32)
#: Empty streams (no candidate before the horizon) and non-empty ones.
durations = st.just(0.0) | st.floats(0.0, 1e-3) | st.floats(0.0, 5.0)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, rate=st.floats(0.1, 3000.0), duration=durations)
@example(seed=3, rate=8000.0, duration=4.0)  # ~32k draws: several chunks
def test_poisson_arrivals_match_scalar_loop(seed, rate, duration):
    rng, ref = DeterministicRng(seed), DeterministicRng(seed)
    assert rng.poisson_arrivals(rate, duration) == \
        reference_poisson_arrivals(ref, rate, duration)
    assert rng.uniform() == ref.uniform()


@settings(max_examples=60, deadline=None)
@given(seed=seeds, mean=st.just(math.inf) | st.floats(1e-3, 10.0),
       horizon=st.just(0.0) | st.floats(0.0, 10.0))
@example(seed=5, mean=2e-4, horizon=6.0)  # ~30k events: several chunks
def test_event_times_match_scalar_loop(seed, mean, horizon):
    rng, ref = DeterministicRng(seed), DeterministicRng(seed)
    assert rng.event_times(mean, horizon) == \
        reference_event_times(ref, mean, horizon)
    assert rng.uniform() == ref.uniform()


@settings(max_examples=60, deadline=None)
@given(seed=seeds, mean_rate=st.floats(0.1, 2000.0), duration=durations,
       peak_to_trough=st.just(1.0) | st.floats(1.0, 20.0),
       periods_per_trace=st.floats(0.01, 100.0))
@example(seed=11, mean_rate=5000.0, duration=8.0, peak_to_trough=3.0,
         periods_per_trace=1.0)  # ~60k candidates: several thinning chunks
def test_diurnal_matches_scalar_thinning(seed, mean_rate, duration,
                                         peak_to_trough, periods_per_trace):
    # Periods from a hundredth of the trace to a hundred traces long.
    period = max(duration, 1e-3) / periods_per_trace
    gen, ref = RequestGenerator(seed), DeterministicRng(seed)
    fast = gen.diurnal("t", mean_rate, duration, peak_to_trough, period)
    assert _fields(fast) == _fields(reference_diurnal(
        ref, "t", mean_rate, duration, peak_to_trough, period))
    assert gen.rng.uniform() == ref.uniform()


@settings(max_examples=30, deadline=None)
@given(seed=seeds, peak_to_trough=st.just(1.0) | st.floats(1.0, 20.0),
       period=st.floats(1e-3, 1e5))
def test_keep_ratio_is_the_scalar_expression(seed, peak_to_trough, period):
    # A last-ulp difference flips a draw only when it lands within that
    # ulp, so the stream properties above cannot see one: compare the
    # ratio itself over many candidate times.
    t = DeterministicRng(seed).poisson_arrival_array(2000.0, 5.0)
    mean_rate = 1000.0
    amplitude = (peak_to_trough - 1.0) / (peak_to_trough + 1.0)
    peak_rate = mean_rate * (1.0 + amplitude)
    scalar = [
        mean_rate * (1.0 + amplitude * math.sin(2.0 * math.pi * x / period))
        / peak_rate for x in t.tolist()]
    assert _keep_ratio(t, mean_rate, amplitude, peak_rate,
                       period).tolist() == scalar


def test_consecutive_diurnal_days_unchanged():
    # Two days drawn back to back from one generator split the stream
    # exactly as two scalar days would.
    gen, ref = RequestGenerator(29), DeterministicRng(29)
    for mean_rate in (400.0, 900.0):
        assert _fields(gen.diurnal("t", mean_rate, 2.0, period_s=2.0)) == \
            _fields(reference_diurnal(ref, "t", mean_rate, 2.0,
                                      period_s=2.0))


# ------------------------------------------------------ request construction

class TestBulkRequests:
    def test_objects_equal_normally_constructed_ones(self):
        requests = RequestGenerator(7).diurnal("cnn0", 500.0, 1.0,
                                               period_s=1.0)
        assert requests
        for r in requests:
            built = Request(r.arrival_s, "cnn0")
            assert type(r) is Request
            assert r == built and hash(r) == hash(built)
            assert repr(r) == repr(built)
            assert type(r.arrival_s) is float

    @pytest.mark.parametrize("collecting", [True, False])
    def test_collector_state_is_restored(self, collecting):
        # Construction pauses the cyclic collector; a caller's own
        # setting survives it.
        was = gc.isenabled()
        (gc.enable if collecting else gc.disable)()
        try:
            RequestGenerator(7).poisson("cnn0", 500.0, 1.0)
            assert gc.isenabled() is collecting
        finally:
            (gc.enable if was else gc.disable)()

    def test_objects_stay_frozen(self):
        r = RequestGenerator(7).poisson("cnn0", 500.0, 1.0)[0]
        with pytest.raises(AttributeError):
            r.arrival_s = 0.0

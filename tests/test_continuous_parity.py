"""Continuous batching: the shipped engine loop vs its reference.

``ContinuousBatchingSimulator`` runs identical decode steps as *decode
runs* and caches its fault-schedule answers between boundaries;
``ReferenceContinuousSimulator`` (``tests/oracle/continuous.py``) is the
original loop that takes one step per iteration and asks everything
afresh. Every :class:`ContinuousStats` must match bit for bit, so the
properties compare ``repr`` (floats print round-trip exact).

Times and latencies are drawn from one palette of multiples of 2^-10 s
plus a few values that are not, so float sums are often exact: step
completions land exactly on arrivals, on outage and slowdown
boundaries, and on each other, the ties where a batched loop would go
wrong first.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import TPUV3, TPUV4I
from repro.core.design_point import shared_design_point
from repro.faults.model import FaultModel, FaultSchedule
from repro.serving import (BatchPolicy, ContinuousBatchingSimulator,
                           RecoveryPolicy, llm_chaos_sweep)
from repro.workloads import GenRequest
from repro.workloads.generative import GenerativeSpec
from tests.oracle.continuous import ReferenceContinuousSimulator

#: Small buckets so decode runs cross KV buckets often; prompts past the
#: largest prompt bucket (8) and a max_decode_len past the spec's push
#: sequences beyond the largest KV bucket (24) as well.
TINY = GenerativeSpec("tiny", layers=1, hidden=8, heads=1, vocab=16,
                      prompt_buckets=(2, 4, 8), kv_buckets=(8, 12, 24),
                      max_decode_len=16, default_slots=4)

Q = 2.0 ** -10
#: Latencies and gaps share a palette, so a step often takes exactly one
#: inter-arrival gap; zero latencies are in it too.
PALETTE = (0.0, Q, 2 * Q, 3 * Q, 5 * Q, 8 * Q, 0.0013, 0.0027)


def latency_table(slots: int, seed: int) -> dict:
    """A seeded (phase, bucket, padded batch) -> latency table."""
    rng = random.Random(seed)
    table = {}
    for bucket in TINY.prompt_buckets:
        table[("prefill", bucket, 1)] = rng.choice(PALETTE)
    for bucket in TINY.kv_buckets:
        for step in BatchPolicy.batch_steps(slots):
            table[("decode", bucket, step)] = rng.choice(PALETTE)
            table[("snapshot", bucket, step)] = rng.choice(PALETTE)
    return table


def uniform_table(prefill_s, decode_s, snapshot_s, slots=1):
    """One latency per phase, whatever the bucket or batch."""
    table = {("prefill", b, 1): prefill_s for b in TINY.prompt_buckets}
    for bucket in TINY.kv_buckets:
        for step in BatchPolicy.batch_steps(slots):
            table[("decode", bucket, step)] = decode_s
            table[("snapshot", bucket, step)] = snapshot_s
    return table


def simulate_both(chip, slots, max_decode_len, recovery, table, requests,
                  faults=None, schedule=None):
    """Stats from the shipped loop and from the reference, in that order."""
    results = []
    for cls in (ContinuousBatchingSimulator, ReferenceContinuousSimulator):
        sim = cls(shared_design_point(chip), TINY, slots=slots,
                  max_decode_len=max_decode_len, recovery=recovery)
        sim.seed_latencies(table)
        results.append(sim.simulate(requests, faults=faults,
                                    schedule=schedule))
    return results


@st.composite
def request_streams(draw):
    count = draw(st.integers(min_value=0, max_value=40))
    now, requests = 0.0, []
    for _ in range(count):
        now += draw(st.sampled_from(PALETTE))
        requests.append(GenRequest(
            now, draw(st.integers(min_value=1, max_value=30)),
            draw(st.integers(min_value=1, max_value=24))))
    return requests


@st.composite
def recovery_policies(draw):
    if draw(st.booleans()):
        return None
    return RecoveryPolicy(
        checkpoint_every=draw(st.integers(min_value=1, max_value=16)),
        migrate=draw(st.booleans()))


@st.composite
def hand_built_schedules(draw, cores):
    """Kills, permanent deaths, slowdowns and overlapping outages.

    Starts and lengths are mostly palette multiples, so boundaries land
    exactly on step completions; half the schedules also get two
    partially overlapping outages on one core, the second outlasting
    the first.
    """
    tick = st.integers(min_value=0, max_value=120).map(lambda k: k * Q)
    length = st.sampled_from((Q, 3 * Q, 10 * Q, 0.0031, math.inf))
    down = [(draw(st.integers(0, cores - 1)), start, start + draw(length))
            for start in draw(st.lists(tick, max_size=4))]
    if draw(st.booleans()):
        core = draw(st.integers(0, cores - 1))
        start = draw(tick)
        down += [(core, start, start + 5 * Q), (core, start + 2 * Q,
                                                 start + 9 * Q)]
    slowdowns = [(draw(st.integers(0, cores - 1)), start,
                  start + draw(length),
                  draw(st.sampled_from((1.0, 1.5, 2.0, 3.0))))
                 for start in draw(st.lists(tick, max_size=3))]
    return FaultSchedule(cores, 1.0, down=down, slowdowns=slowdowns)


@st.composite
def fault_setups(draw, cores):
    """None, a seeded FaultModel, or a hand-built schedule plus budgets."""
    kind = draw(st.sampled_from(("none", "model", "schedule")))
    if kind == "none":
        return None, None
    budget = draw(st.integers(min_value=0, max_value=3))
    timeout = draw(st.sampled_from((math.inf, 0.01, 20 * Q)))
    if kind == "model":
        return FaultModel(
            seed=draw(st.integers(min_value=0, max_value=10_000)),
            core_mtbf_s=draw(st.sampled_from((0.005, 0.02, math.inf))),
            core_repair_s=draw(st.sampled_from((0.001, 0.004))),
            chip_mtbf_s=draw(st.sampled_from((0.03, math.inf))),
            chip_repair_s=0.002,
            slowdown_mtbf_s=draw(st.sampled_from((0.01, math.inf))),
            slowdown_s=0.004,
            retry_budget=budget, retry_timeout_s=timeout,
            horizon_pad_s=0.05), None
    return (FaultModel(retry_budget=budget, retry_timeout_s=timeout),
            draw(hand_built_schedules(cores)))


class TestDecodeRunParity:
    def test_the_oracle_is_a_different_loop(self):
        assert (ReferenceContinuousSimulator._run_core
                is not ContinuousBatchingSimulator._run_core)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(),
           chip=st.sampled_from((TPUV4I, TPUV3)),
           slots=st.integers(min_value=1, max_value=12),
           max_decode_len=st.integers(min_value=1, max_value=24),
           recovery=recovery_policies(),
           table_seed=st.integers(min_value=0, max_value=2 ** 32),
           requests=request_streams())
    def test_stats_identical(self, data, chip, slots, max_decode_len,
                             recovery, table_seed, requests):
        faults, schedule = data.draw(fault_setups(chip.cores))
        fast, reference = simulate_both(
            chip, slots, max_decode_len, recovery,
            latency_table(slots, table_seed), requests, faults, schedule)
        assert repr(fast) == repr(reference)

    @settings(max_examples=100, deadline=None)
    @given(prefill=st.sampled_from((Q, 3 * Q)),
           decode=st.sampled_from((Q, 2 * Q, 4 * Q)),
           decode_lens=st.lists(st.integers(min_value=2, max_value=20),
                                min_size=1, max_size=4),
           ticks=st.integers(min_value=0, max_value=12),
           first=st.integers(min_value=2, max_value=6),
           lag=st.integers(min_value=1, max_value=5),
           tail=st.integers(min_value=1, max_value=12))
    def test_launch_inside_a_second_outage(self, prefill, decode,
                                           decode_lens, ticks, first, lag,
                                           tail):
        """Outage 1 starts exactly at a step completion, so the engine
        waits it out instead of losing the step, and outage 2 starts
        inside it and outlasts it: the launch at outage 1's end runs on a
        down core (the known fault in the module docstring)."""
        lag = min(lag, first - 1)
        batch = len(decode_lens)
        start = batch * prefill + ticks * decode  # exact: all dyadic
        schedule = FaultSchedule(1, 1.0, down=(
            (0, start, start + first * Q),
            (0, start + lag * Q, start + (first + tail) * Q)))
        requests = [GenRequest(0.0, 2, n) for n in decode_lens]
        table = uniform_table(prefill, decode, Q, slots=batch)
        fast, reference = simulate_both(TPUV4I, batch, None, None, table,
                                        requests, FaultModel(), schedule)
        assert repr(fast) == repr(reference)


class TestNamedCases:
    def test_launch_inside_a_second_outage_is_kept(self):
        """After waiting out [1, 3) the engine launches at 3 without
        asking again, although [2, 10) still covers 3: the decode step
        3 -> 4 runs on a down core. This is a known fault, kept so
        results stay comparable; both loops must show it, and no decode
        run may extend from that step (the next one waits until 10)."""
        schedule = FaultSchedule(1, 20.0, down=((0, 1.0, 3.0),
                                                (0, 2.0, 10.0)))
        requests = [GenRequest(0.0, 2, 5)]
        fast, reference = simulate_both(
            TPUV4I, 1, None, None, uniform_table(1.0, 1.0, 0.5), requests,
            FaultModel(), schedule)
        assert repr(fast) == repr(reference)
        # Prefill 0 -> 1, decodes end at 4, 11, 12, 13: (13 - 1) / 4.
        # Re-asking at 3 would give decodes ending 11..14, i.e. 3.25.
        assert fast.per_token_p50_s == 3.0
        assert fast.lost_steps == 0 and fast.served_requests == 1

    def test_boundaries_on_step_completions(self):
        """An outage starting exactly at a step's completion does not
        kill it, and a slowdown starting there prices the next step."""
        schedule = FaultSchedule(
            1, 20.0, down=((0, 2.0, 4.0),),
            slowdowns=((0, 5.0, 7.0, 2.0),))
        requests = [GenRequest(0.0, 2, 8), GenRequest(1.0, 2, 3)]
        fast, reference = simulate_both(
            TPUV4I, 2, None, None, uniform_table(1.0, 1.0, 0.5, slots=2),
            requests, FaultModel(), schedule)
        assert repr(fast) == repr(reference)
        assert fast.lost_steps == 0 and fast.served_requests == 2

    def test_llm_chaos_rows(self, monkeypatch):
        """The benchmark's llm-chaos sweep at seed 80, whose kill
        schedules reach the launch-inside-a-second-outage path twice."""
        def sweep():
            return repr(llm_chaos_sweep(80, chips=(TPUV3, TPUV4I),
                                        duration_s=1.0))
        fast = sweep()
        monkeypatch.setattr(ContinuousBatchingSimulator, "_run_core",
                            ReferenceContinuousSimulator._run_core)
        assert sweep() == fast

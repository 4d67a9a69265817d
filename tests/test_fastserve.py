"""Fastserve replay kernels: bit-identity against the event loops.

The contract under test is absolute:
:func:`repro.serving.fastserve.replay_serving` and :func:`replay_cluster`
must reproduce the reference event loops (``tests/oracle/serving.py``,
``tests/oracle/cluster.py``) **byte for byte** — same floats, same
counters, same tracer spans — on every scenario the chaos sweep
exercises: faultless, replica kills, mid-batch kills, transient
slowdowns, overlapping outages, overload shedding, hedging, and dtype
degradation tiers, across all four chip generations. Plus the
satellites that ride along: the shared-compile regression for identical
replicas, float-typed latency stats, the bare-timestamp request API,
and the vectorized Poisson generator's parity with the scalar loop it
replaced.
"""

from __future__ import annotations

import math
import signal
from contextlib import contextmanager
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import GENERATIONS, TPUV1
from repro.cluster import ClusterPolicy, ClusterSimulator, DegradationTier
from repro.cluster.sweep import chaos_sweep
from repro.core.design_point import DesignPoint
from repro.engine.cache import EvalCache, set_cache
from repro.faults import FaultModel, FaultSchedule
from repro.obs.tracer import SpanTracer
from repro.serving import (BatchPolicy, ServingSimulator, Slo,
                           clear_fastserve, fastserve_stats)
from repro.util.rng import DeterministicRng
from repro.workloads import Request, RequestGenerator, app_by_name
from tests.oracle import use_reference_loops
from tests.oracle.cluster import ReferenceClusterSimulator
from tests.oracle.serving import ReferenceServingSimulator

FLAT_TABLE = {step: 0.001 for step in BatchPolicy.batch_steps(8)}


def make_sim(point, *, max_batch=8, max_wait_s=0.002, table=FLAT_TABLE,
             cls=ServingSimulator):
    spec = app_by_name("cnn0")
    sim = cls(point, spec, BatchPolicy(max_batch, max_wait_s),
              Slo(spec.slo_ms / 1e3))
    sim.seed_latencies(table)
    return sim


def make_replicas(point, count, **kwargs):
    return [make_sim(point, **kwargs) for _ in range(count)]


def kill_schedule(cores, horizon_s=10.0, start_s=0.0, end_s=math.inf):
    return FaultSchedule(cores, horizon_s,
                         down=[(core, start_s, end_s)
                               for core in range(cores)])


def slowdown_schedule(cores, horizon_s=10.0, factor=20.0):
    return FaultSchedule(cores, horizon_s,
                         slowdowns=[(core, 0.0, horizon_s, factor)
                                    for core in range(cores)])


@pytest.fixture(scope="module")
def points():
    """One design point per generation (latencies come from a table)."""
    return [DesignPoint(chip) for chip in GENERATIONS]


@pytest.fixture(scope="module")
def traffic():
    return RequestGenerator(7).poisson("cnn0", 2000.0, 0.5)


@st.composite
def cluster_policies(draw):
    """Any valid router: each protection independently on or off."""
    probe = draw(st.none() | st.floats(0.002, 0.05))
    tiers = ()
    if probe is not None and draw(st.booleans()):
        tiers = (DegradationTier("half", max_batch=4),
                 DegradationTier("quarter", max_batch=2))[
            :draw(st.integers(1, 2))]
    return ClusterPolicy(
        probe_interval_s=probe,
        unhealthy_after=draw(st.integers(1, 3)),
        ejection_s=draw(st.floats(0.0, 0.1)),
        admission_rate_qps=draw(st.none() | st.floats(500.0, 6000.0)),
        admission_burst=draw(st.floats(1.0, 64.0)),
        max_queue_depth=draw(st.none() | st.integers(1, 64)),
        hedge_delay_s=draw(st.none() | st.floats(0.0, 0.01)),
        tiers=tiers,
        degrade_below_healthy=draw(st.floats(0.0, 1.0)),
        degrade_above_queue=draw(st.none() | st.integers(1, 64)),
        degrade_after=draw(st.integers(1, 3)),
        recover_after=draw(st.integers(1, 4)))


_NEVER = st.just(math.inf)

#: Any valid fault model; ``None`` (no faults) is drawn too.
fault_models = st.none() | st.builds(
    FaultModel,
    seed=st.integers(0, 2**31),
    core_mtbf_s=_NEVER | st.floats(0.02, 0.5),
    core_repair_s=st.floats(0.0, 0.05),
    chip_mtbf_s=_NEVER | st.floats(0.05, 0.5),
    chip_repair_s=st.floats(0.0, 0.05),
    slowdown_mtbf_s=_NEVER | st.floats(0.02, 0.5),
    slowdown_s=st.floats(0.0, 0.1),
    slowdown_factor=st.floats(1.0, 10.0),
    retry_budget=st.integers(0, 3),
    retry_timeout_s=_NEVER | st.floats(0.005, 0.1))


#: Outage boundaries: whole milliseconds (where flat-table batches
#: complete, so boundaries meet completions) or any instant.
_instants = (st.integers(0, 150).map(lambda k: k * 0.001)
             | st.floats(0.0, 0.15))


@st.composite
def overlapping_outages(draw, cores):
    """On one or more cores, outage 2 opens inside outage 1 and
    outlasts it (possibly forever)."""
    down = []
    for core in sorted(draw(st.sets(st.integers(0, cores - 1),
                                    min_size=1))):
        t0, t1, t2, t3 = sorted(draw(st.lists(
            _instants, min_size=4, max_size=4, unique=True)))
        if draw(st.booleans()):
            t3 = math.inf
        down += [(core, t0, t2), (core, t1, t3)]
    return FaultSchedule(cores, 1.0, down=down)


def assert_no_launch_while_down(spans, schedules):
    """No ``batch`` span starts strictly inside an outage of its core.

    ``schedules`` maps a track prefix ("" or "replica<i>/") to the
    schedule of the cores on it.
    """
    for span in spans:
        if span.name != "batch":
            continue
        prefix, core = span.track.rsplit("core", 1)
        schedule = schedules.get(prefix)
        if schedule is None:
            continue
        for down_core, start, stop in schedule.down:
            if down_core == int(core):
                assert not start * 1e6 < span.ts_us < stop * 1e6, (
                    span, (start, stop))


@contextmanager
def deadline(seconds):
    """Fail, instead of hanging, if the block outlives ``seconds``."""
    def expire(*_):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except TimeoutError:
        # A fresh exception: the interrupted frame may be one pytest
        # cannot render.
        raise TimeoutError(f"did not finish within {seconds} s") from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def traced_both_ways(run, shipped, reference):
    """Run ``run(cls, tracer)`` on the shipped simulator class and on its
    oracle, each with its own tracer; the spans must match too."""
    fast_tracer, cold_tracer = SpanTracer(), SpanTracer()
    fast = run(shipped, fast_tracer)
    cold = run(reference, cold_tracer)
    assert fast_tracer.spans == cold_tracer.spans
    return fast, cold, fast_tracer.spans


def serving_both_ways(make, requests, **kwargs):
    """Run one serving scenario on ``make(cls=...)`` for the shipped
    simulator and the event-loop oracle, fresh simulators each."""
    fast = make(cls=ServingSimulator).simulate(requests, **kwargs)
    cold = make(cls=ReferenceServingSimulator).simulate(requests, **kwargs)
    return fast, cold


def cluster_both_ways(make, requests, **kwargs):
    """The cluster counterpart of :func:`serving_both_ways`."""
    fast = make(cls=ClusterSimulator).simulate(requests, **kwargs)
    cold = make(cls=ReferenceClusterSimulator).simulate(requests, **kwargs)
    return fast, cold


class TestServingIdentity:
    """replay_serving vs the single-simulator event loop."""

    @pytest.mark.parametrize("chip", GENERATIONS, ids=lambda c: c.name)
    def test_faultless_identity_per_generation(self, chip):
        point = DesignPoint(chip)
        requests = RequestGenerator(11).poisson("cnn0", 1500.0, 0.3)
        fast, cold = serving_both_ways(partial(make_sim, point), requests)
        assert fast == cold  # frozen dataclass: bit-level equality

    def test_mid_batch_kill_identity(self, v4i_point, traffic):
        # Outage opens mid-run with batches in flight: the kernel must
        # cut a segment boundary and carry the survivors across it.
        cores = v4i_point.chip.cores
        schedule = kill_schedule(cores, start_s=0.05, end_s=0.2)
        fast, cold = serving_both_ways(partial(make_sim, v4i_point),
                                       traffic, schedule=schedule)
        assert fast == cold
        assert fast.lost_batches > 0  # the scenario really bit

    def test_permanent_kill_identity(self, v4i_point, traffic):
        schedule = kill_schedule(v4i_point.chip.cores, start_s=0.1)
        fast, cold = serving_both_ways(partial(make_sim, v4i_point),
                                       traffic, schedule=schedule)
        assert fast == cold
        assert fast.dropped_requests > 0

    def test_slowdown_identity(self, v4i_point, traffic):
        schedule = slowdown_schedule(v4i_point.chip.cores)
        fast, cold = serving_both_ways(partial(make_sim, v4i_point),
                                       traffic, schedule=schedule)
        assert fast == cold
        assert fast.p99_s > FLAT_TABLE[1]  # slowdown visible in the tail

    def test_seeded_fault_model_identity(self, v4i_point, traffic):
        model = FaultModel(seed=7, core_mtbf_s=0.05, core_repair_s=0.02)
        fast, cold = serving_both_ways(partial(make_sim, v4i_point),
                                       traffic, faults=model)
        assert fast == cold

    def test_overload_identity(self, v4i_point):
        # 10x the queue's drain rate: deep queues, constant max batches.
        requests = RequestGenerator(3).poisson("cnn0", 50000.0, 0.1)
        fast, cold = serving_both_ways(partial(make_sim, v4i_point),
                                       requests)
        assert fast == cold
        assert fast.mean_batch > 7.9  # queue really ran deep

    @settings(max_examples=20, deadline=None)
    @given(faults=fault_models, seed=st.integers(0, 2**31),
           max_batch=st.sampled_from((1, 2, 4, 8)),
           max_wait_s=st.floats(0.0, 0.005), rate=st.floats(500.0, 6000.0))
    def test_identity_property_over_policies_and_faults(
            self, points, faults, seed, max_batch, max_wait_s, rate):
        """Every example runs on all four generations."""
        requests = RequestGenerator(seed).poisson("cnn0", rate, 0.15)
        for point in points:
            fast, cold = serving_both_ways(
                partial(make_sim, point, max_batch=max_batch,
                        max_wait_s=max_wait_s),
                requests, faults=faults)
            assert fast == cold, point.chip.name

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**31),
           max_batch=st.sampled_from((1, 2, 4, 8)),
           max_wait_s=st.floats(0.0, 0.005), rate=st.floats(500.0, 6000.0))
    def test_identity_under_overlapping_outages(
            self, points, data, seed, max_batch, max_wait_s, rate):
        """A second outage opening inside the first and outlasting it:
        both paths must ask the schedule again after the first ends."""
        requests = RequestGenerator(seed).poisson("cnn0", rate, 0.15)
        for point in points:
            schedule = data.draw(overlapping_outages(point.chip.cores))
            fast, cold, spans = traced_both_ways(
                lambda cls, tracer: make_sim(
                    point, max_batch=max_batch, max_wait_s=max_wait_s,
                    cls=cls,
                ).simulate(requests, schedule=schedule, tracer=tracer),
                ServingSimulator, ReferenceServingSimulator)
            assert fast == cold, point.chip.name
            assert_no_launch_while_down(spans, {"": schedule})

    @pytest.mark.parametrize("arrivals, max_wait_s, mean_batch", [
        ((0.0, 2**-9), 2**-9, 2.0),         # arrival == batch deadline
        ((0.0, 2**-9, 2**-8), 0.0, 1.5),    # arrival == core free time
    ])
    def test_arrival_on_the_horizon_joins_the_batch(
            self, v4i_point, arrivals, max_wait_s, mean_batch):
        # Dyadic times tie exactly; the absorb rule is inclusive, and
        # the router orders arrivals before launches at equal times.
        table = {step: 2**-8 for step in BatchPolicy.batch_steps(8)}
        make = partial(make_sim, v4i_point, max_wait_s=max_wait_s,
                       table=table)
        fast, cold = serving_both_ways(make, list(arrivals))
        assert fast == cold
        assert fast.mean_batch == mean_batch
        clustered, reference = cluster_both_ways(
            lambda cls: cls([make()]), list(arrivals))
        assert clustered == reference
        assert clustered.replica_stats[0] == fast

    def test_launch_waits_out_both_outages(self, v4i_point):
        # Outage 2 opens inside outage 1 and outlasts it: the first
        # batch after t=0.01 launches when outage 2 ends, not outage 1.
        schedule = FaultSchedule(1, 1.0, down=[(0, 0.010, 0.020),
                                               (0, 0.015, 0.030)])
        requests = [Request(0.012, "cnn0"), Request(0.013, "cnn0")]
        fast, cold = serving_both_ways(partial(make_sim, v4i_point),
                                       requests, schedule=schedule)
        assert fast == cold
        # Both requests wait for t=0.030 and ride one 1 ms batch.
        assert fast.p50_s == pytest.approx(0.030 + 0.001 - 0.013)
        assert fast.mean_batch == 2.0


class TestClusterIdentity:
    """replay_cluster vs the router event loop, scenario by scenario."""

    @pytest.mark.parametrize("chip", GENERATIONS, ids=lambda c: c.name)
    def test_resilient_faultless_identity_per_generation(self, chip):
        point = DesignPoint(chip)
        requests = RequestGenerator(9).poisson("cnn0", 3000.0, 0.3)
        policy = ClusterPolicy.resilient(
            slo_limit_s=0.005, offered_qps=3000.0, max_batch=8, replicas=3,
            int8_tier=False)
        fast, cold = cluster_both_ways(
            lambda cls: cls(make_replicas(point, 3), policy), requests)
        assert fast == cold

    def test_kill_one_identity(self, v4i_point, traffic):
        cores = v4i_point.chip.cores
        policy = ClusterPolicy.resilient(
            slo_limit_s=0.005, offered_qps=2000.0, max_batch=8, replicas=3,
            int8_tier=False)
        fast, cold = cluster_both_ways(
            lambda cls: cls(make_replicas(v4i_point, 3), policy),
            traffic, schedules=[kill_schedule(cores), None, None])
        assert fast == cold
        assert fast.ejections >= 1

    def test_mid_batch_kill_identity(self, v4i_point, traffic):
        cores = v4i_point.chip.cores
        policy = ClusterPolicy.resilient(
            slo_limit_s=0.005, offered_qps=2000.0, max_batch=8, replicas=3,
            int8_tier=False)
        fast, cold = cluster_both_ways(
            lambda cls: cls(make_replicas(v4i_point, 3), policy),
            traffic,
            schedules=[kill_schedule(cores, start_s=0.05, end_s=0.2),
                       None, None])
        assert fast == cold

    def test_slowdown_identity(self, v4i_point, traffic):
        cores = v4i_point.chip.cores
        policy = ClusterPolicy.resilient(
            slo_limit_s=0.005, offered_qps=2000.0, max_batch=8, replicas=3,
            int8_tier=False)
        fast, cold = cluster_both_ways(
            lambda cls: cls(make_replicas(v4i_point, 3), policy),
            traffic, schedules=[slowdown_schedule(cores), None, None])
        assert fast == cold

    def test_overload_shedding_identity(self, v4i_point):
        # 2.5x the admitted rate: the token bucket must shed, and the
        # shed set must match the reference request for request.
        requests = RequestGenerator(5).poisson("cnn0", 5000.0, 0.3)
        policy = ClusterPolicy.resilient(
            slo_limit_s=0.005, offered_qps=2000.0, max_batch=8, replicas=3,
            int8_tier=False)
        fast, cold = cluster_both_ways(
            lambda cls: cls(make_replicas(v4i_point, 3), policy),
            requests)
        assert fast == cold
        assert fast.shed_requests > 0

    def test_hedging_identity(self, v4i_point):
        # One crawling replica so hedges fire, win, and cancel copies.
        cores = v4i_point.chip.cores
        slow = FaultSchedule(
            cores, 10.0,
            slowdowns=[(core, 0.0, 10.0, 50.0) for core in range(cores)])
        requests = RequestGenerator(3).poisson("cnn0", 1000.0, 0.3)
        policy = ClusterPolicy(probe_interval_s=0.01,
                               hedge_delay_s=0.005)
        fast, cold = cluster_both_ways(
            lambda cls: cls(make_replicas(v4i_point, 2), policy),
            requests, schedules=[slow, None])
        assert fast == cold
        assert fast.hedged_requests > 0
        assert fast.cancelled_hedges + fast.wasted_hedges > 0

    def test_degradation_tier_identity(self, v4i_point):
        cores = v4i_point.chip.cores
        policy = ClusterPolicy(
            probe_interval_s=0.005, unhealthy_after=2, ejection_s=1.0,
            tiers=(DegradationTier("half", max_batch=4),),
            degrade_below_healthy=0.67, degrade_after=2, recover_after=4)
        requests = RequestGenerator(5).poisson("cnn0", 3000.0, 0.4)
        fast, cold = cluster_both_ways(
            lambda cls: cls(make_replicas(v4i_point, 3), policy),
            requests, schedules=[kill_schedule(cores),
                                 kill_schedule(cores), None])
        assert fast == cold
        assert fast.degraded_s > 0.0

    def test_no_probe_stranded_queue_identity(self, v4i_point, traffic):
        # Without probing a dead replica is discovered lazily and its
        # queue dropped — the lazy-discovery order must match exactly.
        cores = v4i_point.chip.cores
        fast, cold = cluster_both_ways(
            lambda cls: cls(make_replicas(v4i_point, 2)),
            traffic, schedules=[kill_schedule(cores, start_s=0.1), None])
        assert fast == cold
        assert fast.dropped_requests > 0

    def test_hedge_cancel_can_pull_a_launch_earlier(self, v3_point):
        # Queues hold hedge copies in append order, not arrival order,
        # so cancelling one can make a replica's head batch due before
        # the next completion: the kernel must stop draining there.
        requests = RequestGenerator(9).poisson("cnn0", 3000.0, 0.15)
        policy = ClusterPolicy(probe_interval_s=0.01, hedge_delay_s=0.001)
        fast, cold = cluster_both_ways(
            lambda cls: cls(make_replicas(v3_point, 2), policy), requests)
        assert fast == cold
        assert fast.cancelled_hedges > 0

    def test_stranded_queue_on_dead_ejected_replica_is_dropped(self):
        # Ejected during outage 1, the replica dies for good in outage 2
        # with work queued that no probe can ever re-admit: both loops
        # must drop that work and end, not probe forever.
        point = DesignPoint(TPUV1)
        policy = ClusterPolicy(probe_interval_s=0.04, unhealthy_after=1,
                               ejection_s=0.03)
        schedule = FaultSchedule(1, 1.0, down=[(0, 0.04, 0.13),
                                               (0, 0.07, math.inf)])
        requests = RequestGenerator(1).poisson("cnn0", 1200.0, 0.15)
        with deadline(10.0):
            fast, cold = cluster_both_ways(
                lambda cls: cls(make_replicas(point, 1), policy),
                requests, schedules=[schedule])
        assert fast == cold
        assert fast.ejections == 1
        assert fast.dropped_requests > 0

    def test_tracer_spans_identical(self, v4i_point, traffic):
        policy = ClusterPolicy.resilient(
            slo_limit_s=0.005, offered_qps=2000.0, max_batch=8, replicas=2,
            int8_tier=False)
        fast, cold, spans = traced_both_ways(
            lambda cls, tracer: cls(
                make_replicas(v4i_point, 2), policy,
            ).simulate(traffic, tracer=tracer),
            ClusterSimulator, ReferenceClusterSimulator)
        assert fast == cold
        assert spans


class TestChaosSweepIdentity:
    def test_every_scenario_row_identical(self, monkeypatch):
        # The rows `repro cluster --seed 3 --duration 0.3` prints.
        fast = chaos_sweep(seed=3, duration_s=0.3)
        use_reference_loops(monkeypatch.setattr)
        cold = chaos_sweep(seed=3, duration_s=0.3)
        assert len(fast) == len(cold)
        for f, c in zip(fast, cold):
            assert f == c, f"{f.chip}/{f.scenario}/{f.policy} diverged"
        # All five scenarios really ran under both policies.
        assert {(r.scenario, r.policy) for r in fast} == {
            (s, p) for s in ("faultless", "kill-1", "chip-outages",
                             "slowdowns", "overload")
            for p in ("static", "resilient")}

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31),
           policy=cluster_policies(), faults=fault_models,
           replicas=st.integers(1, 3), rate=st.floats(500.0, 6000.0))
    def test_identity_property_over_seeds(self, points, seed, policy,
                                          faults, replicas, rate):
        """Generated router policies x fault models x seeds, each
        example on all four generations."""
        requests = RequestGenerator(seed).poisson("cnn0", rate, 0.15)
        for point in points:
            fast, cold = cluster_both_ways(
                lambda cls: cls(make_replicas(point, replicas), policy),
                requests, faults=faults)
            assert fast == cold, point.chip.name

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), seed=st.integers(min_value=0, max_value=2**31),
           policy=cluster_policies(), replicas=st.integers(1, 3),
           rate=st.floats(500.0, 6000.0))
    def test_identity_under_overlapping_outages(
            self, points, data, seed, policy, replicas, rate):
        """Hand-built overlapping outages on any subset of replicas."""
        requests = RequestGenerator(seed).poisson("cnn0", rate, 0.15)
        for point in points:
            outages = st.none() | overlapping_outages(point.chip.cores)
            schedules = [data.draw(outages) for _ in range(replicas)]
            fast, cold, spans = traced_both_ways(
                lambda cls, tracer: cls(
                    make_replicas(point, replicas), policy,
                ).simulate(requests, schedules=schedules, tracer=tracer),
                ClusterSimulator, ReferenceClusterSimulator)
            assert fast == cold, point.chip.name
            assert_no_launch_while_down(
                spans, {f"replica{i}/": s for i, s in enumerate(schedules)})


class TestGating:
    def test_the_oracles_are_different_loops(self):
        assert ReferenceServingSimulator._replay is not \
            ServingSimulator._replay
        assert ReferenceClusterSimulator._replay is not \
            ClusterSimulator._replay

    def test_stats_count_fast_path_only(self, v4i_point, traffic):
        clear_fastserve()
        make_sim(v4i_point).simulate(traffic)
        assert fastserve_stats().replays == 1
        assert fastserve_stats().batches > 0
        make_sim(v4i_point, cls=ReferenceServingSimulator).simulate(traffic)
        assert fastserve_stats().replays == 1  # the oracle left no marks
        ClusterSimulator(make_replicas(v4i_point, 2)).simulate(traffic)
        assert fastserve_stats().cluster_replays == 1
        clear_fastserve()
        assert fastserve_stats().replays == 0


class TestSharedCompiles:
    def test_one_compile_per_unique_dtype_step(self, v4i_point, monkeypatch):
        # Identical replicas must share one retargeted compile per
        # (chip, app, dtype, step) through the eval cache — never one
        # per replica — and a second cluster build must compile nothing.
        import repro.compiler.pipeline as pipeline
        calls = []
        real = pipeline.compile_model

        def counting(module, chip, **kwargs):
            calls.append(module.name)
            return real(module, chip, **kwargs)

        monkeypatch.setattr(pipeline, "compile_model", counting)
        previous = set_cache(EvalCache())
        try:
            spec = app_by_name("cnn0")
            policy = ClusterPolicy(
                probe_interval_s=0.005, unhealthy_after=1, ejection_s=1.0,
                tiers=(DegradationTier("int8", max_batch=4, dtype="int8"),),
                degrade_below_healthy=0.6, degrade_after=1, recover_after=99)

            def build():
                return ClusterSimulator.homogeneous(
                    v4i_point, spec, BatchPolicy(8, 0.002),
                    Slo(spec.slo_ms / 1e3), 3, policy)

            cluster = build()
            tables = cluster._tier_tables()
            steps = BatchPolicy.batch_steps(8)
            assert len(calls) == len(steps)  # one per step, not per replica
            assert all(t == tables[0] for t in tables)
            # Homogeneous replicas share one latency memo object too.
            sims = cluster.replica_sims
            assert all(s._latency_cache is sims[0]._latency_cache
                       for s in sims)
            calls.clear()
            build()._tier_tables()  # hits the eval cache: zero compiles
            assert calls == []
        finally:
            set_cache(previous)


class TestStatsTypes:
    def test_all_latency_stats_are_floats(self, v4i_point, traffic):
        stats = make_sim(v4i_point).simulate(traffic)
        for field in ("duration_s", "p50_s", "p95_s", "p99_s", "mean_batch",
                      "throughput_qps", "slo_violation_fraction",
                      "availability", "lost_capacity_fraction"):
            assert type(getattr(stats, field)) is float, field
        cstats = ClusterSimulator(make_replicas(v4i_point, 2)).simulate(
            traffic)
        for field in ("duration_s", "p50_s", "p95_s", "p99_s",
                      "availability", "slo_violation_fraction"):
            assert type(getattr(cstats, field)) is float, field
        for rep in cstats.replica_stats:
            assert type(rep.p99_s) is float

    def test_percentile_sorted_matches_percentile(self):
        from repro.serving import percentile, percentile_sorted
        values = [0.004, 0.001, 0.009, 0.002, 0.007, 0.003]
        ordered = sorted(values)
        for q in (1, 50, 95, 99, 100):
            assert percentile_sorted(ordered, q) == percentile(values, q)


class TestFloatRequestApi:
    def test_serving_accepts_bare_timestamps(self, v4i_point, traffic):
        arrivals = [r.arrival_s for r in traffic]
        sim_objects = make_sim(v4i_point).simulate(traffic)
        sim_floats = make_sim(v4i_point).simulate(arrivals)
        assert sim_objects == sim_floats

    def test_cluster_accepts_bare_timestamps(self, v4i_point, traffic):
        arrivals = [r.arrival_s for r in traffic]
        a = ClusterSimulator(make_replicas(v4i_point, 2)).simulate(traffic)
        b = ClusterSimulator(make_replicas(v4i_point, 2)).simulate(arrivals)
        assert a == b

    def test_unsorted_timestamps_rejected(self, v4i_point):
        with pytest.raises(ValueError, match="sorted"):
            make_sim(v4i_point).simulate([0.2, 0.1])

    def test_generator_objects_carry_bulk_arrivals(self):
        requests = RequestGenerator(7).poisson("cnn0", 2000.0, 0.1)
        assert all(isinstance(r, Request) for r in requests)
        assert all(r.tenant == "cnn0" for r in requests)
        arrivals = [r.arrival_s for r in requests]
        assert arrivals == sorted(arrivals)


class TestPoissonParity:
    """Vectorized poisson_arrivals vs the scalar loop it replaced."""

    @pytest.mark.parametrize("rate,duration", [
        (2000.0, 0.5),      # well inside one chunk
        (100.0, 0.001),     # empty stream
        (5000.0, 2.0),      # crosses chunk boundaries (4096-gap chunks)
    ])
    def test_values_and_state_match_scalar_loop(self, rate, duration):
        rng = DeterministicRng(17)
        fast = rng.poisson_arrivals(rate, duration)
        ref = DeterministicRng(17)
        mean = 1.0 / rate
        arrivals, now = [], 0.0
        while True:
            now += ref.exponential(mean)
            if now >= duration:
                break
            arrivals.append(now)
        assert fast == arrivals  # same floats, bit for bit
        # ...and the generator stream continues from the same point, so
        # later draws (the next sweep scenario) are unchanged too.
        assert rng.uniform() == ref.uniform()

    def test_consecutive_streams_unchanged(self):
        # Two scenarios drawn back-to-back from one generator must see
        # the same stream split as two scalar-loop scenarios would.
        fast = DeterministicRng(23)
        a = fast.poisson_arrivals(3000.0, 0.3)
        b = fast.poisson_arrivals(7500.0, 0.3)  # 2.5x overload scenario
        ref = DeterministicRng(23)
        for expected, (rate, duration) in ((a, (3000.0, 0.3)),
                                           (b, (7500.0, 0.3))):
            mean = 1.0 / rate
            arrivals, now = [], 0.0
            while True:
                now += ref.exponential(mean)
                if now >= duration:
                    break
                arrivals.append(now)
            assert expected == arrivals

    def test_numpy_stream_element_order(self):
        # The vectorized fill consumes the bit stream element-wise in
        # order — the property the rewind logic depends on.
        gen = np.random.default_rng(5)
        block = gen.exponential(1.0, 8)
        gen2 = np.random.default_rng(5)
        singles = [gen2.exponential(1.0) for _ in range(8)]
        assert block.tolist() == singles

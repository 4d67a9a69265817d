"""Deterministic cluster-serving simulator: N replicas behind a router.

Composes N replica :class:`~repro.serving.server.ServingSimulator`\\ s on
one shared simulated clock behind a router that implements the
protections a :class:`~repro.cluster.policy.ClusterPolicy` declares:
health-checked routing with ejection and half-open re-admission,
token-bucket admission control with queue-depth backpressure, request
hedging with first-response-wins accounting, and a graceful-degradation
tier ladder (smaller batches, then an int8-retargeted compile).

The whole thing is a discrete-event simulation. Events — request
arrivals, batch completions, health probes, hedge timers and batch
launches — are processed in simulated-time order with a fixed priority
at equal timestamps (completions, then probes, then arrivals, then
hedge timers, then launches; replica index breaks remaining ties), so a
run is a pure function of its inputs: byte-identical stats on every
repeat. The timeline is replayed by :func:`repro.serving.fastserve.
replay_cluster` behind the one ``_replay`` hook; the original event
loop overrides that hook in ``tests/oracle/cluster.py`` and is what the
kernel is checked against.

**Identity contract** (asserted in ``tests/test_cluster.py``): a
one-replica cluster under a passthrough policy — and with no faults —
produces a per-replica :class:`~repro.serving.server.ServingStats` that
equals the plain ``ServingSimulator.simulate`` result on the same
trace, field for field, bit for bit. The router adds *nothing* to the fault-free path;
every protection is pay-for-what-you-use.

Replica fault streams are forked deterministically: replica ``i``
realizes ``FaultModel`` with seed ``DeterministicRng(model.seed)
.fork(_REPLICA_SALT + i).seed``, so adding a replica never perturbs the
failures another replica sees.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional, Sequence

from repro.cluster.policy import ClusterPolicy
from repro.obs.metrics import metrics
from repro.serving.batching import BatchPolicy
from repro.serving.fastserve import replay_cluster
from repro.serving.server import (DEFAULT_RETRY_BUDGET,
                                  DEFAULT_RETRY_TIMEOUT_S, ServingSimulator,
                                  ServingStats)
from repro.serving.slo import Slo, percentile_sorted
from repro.workloads.generator import Request

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.model import FaultModel, FaultSchedule
    from repro.obs.tracer import SpanTracer

#: Per-replica fault-stream salt: far above the model's internal salts
#: so replica streams never collide with core/chip/slowdown streams.
_REPLICA_SALT = 9_000_000

#: Event priorities at equal simulated timestamps. Completions free
#: capacity before anything else looks at it; probes update health
#: before routing decisions; arrivals join queues before the batch that
#: could absorb them launches (this reproduces the single-simulator
#: absorb rule ``arrival <= max(server_free, deadline)`` exactly).
_P_COMPLETION = 0
_P_PROBE = 1
_P_ARRIVAL = 2
_P_HEDGE = 3
_P_LAUNCH = 4

_HEALTHY = 0
_EJECTED = 1


@dataclass(frozen=True)
class ClusterStats:
    """Cluster-level summary plus the per-replica breakdown.

    Unique-request accounting: ``requests`` counts offered requests,
    each counted once no matter how many hedged or failed-over copies
    existed; conservation (``requests == served + dropped + shed``) is
    a constructor invariant, same as :class:`ServingStats`. The
    per-replica stats count *copies*, so with hedging on their sums can
    exceed the cluster totals — that surplus is exactly the hedging
    overhead (``wasted_hedges`` batches of it actually burned compute).
    """

    workload: str
    chip: str
    replicas: int
    requests: int
    duration_s: float
    p50_s: float
    p95_s: float
    p99_s: float
    mean_batch: float
    throughput_qps: float
    slo_violation_fraction: float
    availability: float
    served_requests: int
    dropped_requests: int
    shed_requests: int
    retried_requests: int = 0
    lost_batches: int = 0
    hedged_requests: int = 0       # hedge copies issued
    cancelled_hedges: int = 0      # loser copies cancelled while queued
    wasted_hedges: int = 0         # loser copies that burned compute
    failed_over_requests: int = 0  # queued copies moved off an ejected replica
    probes: int = 0
    probe_failures: int = 0
    ejections: int = 0
    readmissions: int = 0
    time_in_tier_s: tuple = ()     # ((tier name, simulated seconds), ...)
    replica_stats: tuple = ()      # per-replica ServingStats

    def __post_init__(self) -> None:
        accounted = (self.served_requests + self.dropped_requests
                     + self.shed_requests)
        if accounted != self.requests:
            raise ValueError(
                f"request conservation violated: {self.requests} arrived != "
                f"{self.served_requests} served + {self.dropped_requests} "
                f"dropped + {self.shed_requests} shed")

    @property
    def shed_fraction(self) -> float:
        """Fraction of offered requests rejected by admission control."""
        return self.shed_requests / self.requests if self.requests else 0.0

    @property
    def degraded_s(self) -> float:
        """Simulated seconds spent below the full-service tier."""
        return sum(seconds for name, seconds in self.time_in_tier_s[1:])

    def describe(self) -> str:
        base = (f"{self.workload} x{self.replicas} on {self.chip}: "
                f"{self.requests} reqs, {self.availability:.2%} available, "
                f"p99 {self.p99_s * 1e3:.2f} ms, "
                f"{self.shed_fraction:.1%} shed")
        extras = []
        if self.hedged_requests:
            extras.append(f"{self.hedged_requests} hedged "
                          f"({self.cancelled_hedges} cancelled, "
                          f"{self.wasted_hedges} wasted)")
        if self.ejections:
            extras.append(f"{self.ejections} ejections "
                          f"({self.readmissions} readmitted, "
                          f"{self.failed_over_requests} failed over)")
        if self.degraded_s:
            extras.append(f"{self.degraded_s:.3g} s degraded")
        if extras:
            base += " [" + "; ".join(extras) + "]"
        return base


class _Replica:
    """Mutable per-replica state of one cluster simulation run."""

    __slots__ = ("index", "sim", "schedule", "servers", "queue", "health",
                 "consecutive_failures", "ejected_until", "dead",
                 "latencies", "batch_sizes", "retried", "dropped",
                 "lost_batches", "last_completion", "first_arrival",
                 "last_arrival")

    def __init__(self, index: int, sim: ServingSimulator,
                 schedule: Optional["FaultSchedule"]) -> None:
        self.index = index
        self.sim = sim
        self.schedule = schedule
        self.servers = [(0.0, core) for core in range(sim.point.chip.cores)]
        heapq.heapify(self.servers)
        # Queue entries are (arrival_s, retries, request id); hedge and
        # failed-over copies keep the original arrival time, exactly as
        # retried requests do inside ServingSimulator.
        self.queue: list[tuple[float, int, int]] = []
        self.health = _HEALTHY
        self.consecutive_failures = 0
        self.ejected_until = 0.0
        self.dead = False  # every core is down for good
        self.latencies: list[float] = []
        self.batch_sizes: list[int] = []
        self.retried = 0
        self.dropped = 0
        self.lost_batches = 0
        self.last_completion = 0.0
        self.first_arrival: Optional[float] = None
        self.last_arrival: Optional[float] = None

    def note_assignment(self, arrival: float) -> None:
        if self.first_arrival is None or arrival < self.first_arrival:
            self.first_arrival = arrival
        if self.last_arrival is None or arrival > self.last_arrival:
            self.last_arrival = arrival

    def stats(self) -> ServingStats:
        served = len(self.latencies)
        total = served + self.dropped
        if self.first_arrival is None:
            duration = 0.0
        else:
            duration = (max(self.last_completion, self.last_arrival)
                        - self.first_arrival)
        lost_capacity = 0.0
        if self.schedule is not None and duration > 0:
            lost_capacity = (
                self.schedule.downtime_core_s(
                    self.first_arrival, self.first_arrival + duration)
                / (self.sim.point.chip.cores * duration))
        ordered = sorted(self.latencies)
        return ServingStats(
            workload=self.sim.spec.name,
            chip=self.sim.point.chip.name,
            requests=total,
            duration_s=duration,
            p50_s=percentile_sorted(ordered, 50) if ordered else 0.0,
            p95_s=percentile_sorted(ordered, 95) if ordered else 0.0,
            p99_s=percentile_sorted(ordered, 99) if ordered else 0.0,
            mean_batch=(sum(self.batch_sizes) / len(self.batch_sizes)
                        if self.batch_sizes else 0.0),
            throughput_qps=served / duration if duration > 0 else 0.0,
            slo_violation_fraction=self.sim.slo.violation_fraction_sorted(
                ordered),
            availability=served / total if total else 1.0,
            retried_requests=self.retried,
            dropped_requests=self.dropped,
            lost_batches=self.lost_batches,
            lost_capacity_fraction=lost_capacity,
            served_requests=served,
        )


class ClusterSimulator:
    """N replica serving simulators behind one policy-driven router."""

    def __init__(self, replicas: Sequence[ServingSimulator],
                 policy: Optional[ClusterPolicy] = None) -> None:
        if not replicas:
            raise ValueError("a cluster needs at least one replica")
        names = {sim.spec.name for sim in replicas}
        if len(names) != 1:
            raise ValueError(
                f"replicas must serve one workload, got {sorted(names)}")
        self.replica_sims = tuple(replicas)
        self.policy = policy if policy is not None else ClusterPolicy()
        if self.policy.degrades and not self.policy.probes:
            raise ValueError(
                "degradation tiers need health probing: the tier controller "
                "runs on the probe clock (set probe_interval_s)")
        # Degradation-tier latency tables, memoized per unique
        # (chip, compiler, workload, steps, dtype): identical replicas
        # share one table instead of recompiling per replica.
        self._tier_table_memo: dict[tuple, dict[int, float]] = {}

    @classmethod
    def homogeneous(cls, point, spec, policy: BatchPolicy, slo: Slo,
                    replicas: int,
                    cluster_policy: Optional[ClusterPolicy] = None,
                    ) -> "ClusterSimulator":
        """Build N identical replicas of one (design point, workload).

        Identical replicas serve identical latencies, so they share one
        batch-latency memo: the cluster compiles/simulates each padded
        batch size once, not once per replica.
        """
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        sims = [ServingSimulator(point, spec, policy, slo)
                for _ in range(replicas)]
        for sim in sims[1:]:
            sim._latency_cache = sims[0]._latency_cache
        return cls(sims, cluster_policy)

    # ------------------------------------------------------------- internals

    def _fork_schedules(self, faults: Optional["FaultModel"],
                        horizon_s: float,
                        ) -> list[Optional["FaultSchedule"]]:
        """One independently-seeded schedule per replica (None = clean)."""
        if faults is None or faults.zero_fault:
            return [None] * len(self.replica_sims)
        from repro.util.rng import DeterministicRng
        root = DeterministicRng(faults.seed)
        schedules: list[Optional["FaultSchedule"]] = []
        for i, sim in enumerate(self.replica_sims):
            forked = replace(faults, seed=root.fork(_REPLICA_SALT + i).seed)
            schedule = forked.schedule(sim.point.chip.cores, horizon_s)
            schedules.append(None if schedule.is_empty else schedule)
        return schedules

    def _tier_tables(self) -> list[dict[str, dict[int, float]]]:
        """Per-replica dtype -> (padded batch -> latency) for dtype tiers.

        Reuses the PR 3 retarget path via :func:`~repro.faults.sweep.
        latency_table`; lookups go by the replica's own padded size so a
        tier cap that is not a compiled step still maps onto an existing
        program (fewer requests padded into it), never a phantom one.
        """
        dtypes = sorted({t.dtype for t in self.policy.tiers if t.dtype})
        if not dtypes:
            return [{} for _ in self.replica_sims]
        from repro.faults.sweep import latency_table
        tables: list[dict[str, dict[int, float]]] = []
        for sim in self.replica_sims:
            steps = BatchPolicy.batch_steps(sim.policy.max_batch)
            per_dtype: dict[str, dict[int, float]] = {}
            for dtype in dtypes:
                key = (sim.point.chip_fp, sim.point.compiler_fp,
                       sim.spec.name, steps, dtype)
                table = self._tier_table_memo.get(key)
                if table is None:
                    table = latency_table(sim.point, sim.spec, steps,
                                          dtype=dtype)
                    self._tier_table_memo[key] = table
                per_dtype[dtype] = table
            tables.append(per_dtype)
        return tables

    # -------------------------------------------------------------- simulate

    def simulate(self, requests: Sequence[Request],
                 faults: Optional["FaultModel"] = None,
                 schedules: Optional[Sequence[
                     Optional["FaultSchedule"]]] = None,
                 tracer: Optional["SpanTracer"] = None) -> ClusterStats:
        """Run the cluster event loop over a time-sorted request stream.

        ``faults`` forks one independently-seeded schedule per replica;
        ``schedules`` supplies them directly (one entry per replica,
        ``None`` for a clean replica) and wins when both are given.
        ``tracer`` records batch spans per replica core plus router
        instants (ejections, re-admissions, tier changes) — a pure side
        channel, bit-identical stats either way.

        ``requests`` may be :class:`Request` objects or bare arrival
        timestamps (floats) — the router only ever reads arrival times,
        and sweeps over hundreds of thousands of requests skip a lot of
        object construction by passing timestamps directly.
        """
        if not requests:
            raise ValueError("cannot simulate an empty request stream")
        if isinstance(requests[0], Request):
            arrivals = [r.arrival_s for r in requests]
        else:
            arrivals = list(requests)
        if arrivals != sorted(arrivals):  # C-speed on near-sorted input
            raise ValueError("requests must be sorted by arrival time")

        policy = self.policy
        n = len(self.replica_sims)
        if faults is not None:
            retry_budget = faults.retry_budget
            retry_timeout = faults.retry_timeout_s
        else:
            retry_budget = DEFAULT_RETRY_BUDGET
            retry_timeout = DEFAULT_RETRY_TIMEOUT_S
        if schedules is not None:
            if len(schedules) != n:
                raise ValueError(
                    f"{len(schedules)} schedules for {n} replicas")
            fixed: list[Optional["FaultSchedule"]] = []
            for sim, schedule in zip(self.replica_sims, schedules):
                if schedule is not None:
                    if schedule.cores != sim.point.chip.cores:
                        raise ValueError(
                            f"schedule built for {schedule.cores} cores, "
                            f"replica has {sim.point.chip.cores}")
                    if schedule.is_empty:
                        schedule = None
                fixed.append(schedule)
            plan = fixed
        else:
            horizon = (arrivals[-1] + faults.horizon_pad_s
                       if faults is not None else 0.0)
            plan = self._fork_schedules(faults, horizon)

        reps = [_Replica(i, sim, plan[i])
                for i, sim in enumerate(self.replica_sims)]
        tier_tables = self._tier_tables()

        return self._replay(arrivals, reps, tier_tables, retry_budget,
                            retry_timeout, tracer)

    def _replay(self, arrivals: list[float], reps: list[_Replica],
                tier_tables: list, retry_budget: int, retry_timeout: float,
                tracer: Optional["SpanTracer"]) -> ClusterStats:
        """Replay one validated timeline through the fastserve kernel.

        The one hook the reference event loop in
        ``tests/oracle/cluster.py`` overrides.
        """
        return replay_cluster(self, arrivals, reps, tier_tables,
                              retry_budget, retry_timeout, tracer)

    def _finalize(self, arrivals: list[float], reps: list[_Replica],
                  cluster_latencies: list[float], shed: int,
                  dropped_unique: int, hedged: int, cancelled_hedges: int,
                  wasted_hedges: int, failed_over: int, probes: int,
                  probe_failures: int, ejections: int, readmissions: int,
                  tier_names: tuple, tier_time: list[float], tier: int,
                  tier_since: float) -> ClusterStats:
        """Fold replay outputs into :class:`ClusterStats` (shared by the
        event loop and the fastserve kernel; cluster percentiles come
        from one sorted copy of the latency list)."""
        total = len(arrivals)
        n = len(reps)
        reg = metrics()
        rec = reg.enabled
        last_completion = max((r.last_completion for r in reps), default=0.0)
        end_time = max(last_completion, arrivals[-1])
        # Probes can outlive the traffic window while draining a dead
        # replica, so the final tier stint is clamped at zero.
        tier_time[tier] += max(0.0, end_time - tier_since)
        duration = end_time - arrivals[0]
        served = len(cluster_latencies)
        replica_stats = tuple(rep.stats() for rep in reps)
        retried = sum(r.retried for r in reps)
        lost_batches = sum(r.lost_batches for r in reps)
        mean_batch_num = sum(sum(r.batch_sizes) for r in reps)
        mean_batch_den = sum(len(r.batch_sizes) for r in reps)

        if rec:
            reg.counter("cluster.requests_offered").inc(total)
            reg.counter("cluster.requests_served").inc(served)
            reg.counter("cluster.requests_dropped").inc(dropped_unique)
            reg.counter("cluster.cancelled_hedges").inc(cancelled_hedges)
            reg.counter("cluster.wasted_hedges").inc(wasted_hedges)
            reg.counter("cluster.failed_over").inc(failed_over)
            reg.counter("cluster.probes").inc(probes)
            reg.counter("cluster.probe_failures").inc(probe_failures)
            reg.counter("cluster.ejections").inc(ejections)
            reg.counter("cluster.readmissions").inc(readmissions)

        ordered = sorted(cluster_latencies)
        return ClusterStats(
            workload=self.replica_sims[0].spec.name,
            chip=self.replica_sims[0].point.chip.name,
            replicas=n,
            requests=total,
            duration_s=duration,
            p50_s=percentile_sorted(ordered, 50) if ordered else 0.0,
            p95_s=percentile_sorted(ordered, 95) if ordered else 0.0,
            p99_s=percentile_sorted(ordered, 99) if ordered else 0.0,
            mean_batch=(mean_batch_num / mean_batch_den
                        if mean_batch_den else 0.0),
            throughput_qps=served / duration if duration > 0 else 0.0,
            slo_violation_fraction=self.replica_sims[0].slo
            .violation_fraction_sorted(ordered),
            availability=served / total,
            served_requests=served,
            dropped_requests=dropped_unique,
            shed_requests=shed,
            retried_requests=retried,
            lost_batches=lost_batches,
            hedged_requests=hedged,
            cancelled_hedges=cancelled_hedges,
            wasted_hedges=wasted_hedges,
            failed_over_requests=failed_over,
            probes=probes,
            probe_failures=probe_failures,
            ejections=ejections,
            readmissions=readmissions,
            time_in_tier_s=tuple(zip(tier_names, tier_time)),
            replica_stats=replica_stats,
        )

"""Chaos sweep: protected vs unprotected clusters across generations.

One row per (chip generation, app, chaos scenario, router policy):
deterministic Poisson traffic sized so that N-1 replicas can carry it
(the N+1 provisioning rule from the fleet planner), driven through a
3-replica cluster under a chaos scenario — nothing, a replica killed
outright, chip-level outages, transient slowdowns, or a 2.5x overload —
once with the unprotected ``static`` router and once with the full
``resilient`` policy. The emitted table is what the ``repro cluster``
CLI prints: same arguments, byte-identical rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.arch import GENERATIONS
from repro.arch.chip import ChipConfig
from repro.cluster.cluster import ClusterSimulator, ClusterStats
from repro.cluster.policy import ClusterPolicy
from repro.core.design_point import shared_design_point
from repro.faults.model import FaultModel, FaultSchedule
from repro.faults.sweep import latency_table
from repro.serving.batching import BatchPolicy
from repro.serving.server import ServingSimulator
from repro.serving.slo import Slo
from repro.workloads.generator import RequestGenerator
from repro.workloads.models import app_by_name

DEFAULT_REPLICAS = 3
DEFAULT_UTILIZATION = 0.6
DEFAULT_DURATION_S = 1.0
DEFAULT_MAX_BATCH = 8


@dataclass(frozen=True)
class ChaosScenario:
    """One way to hurt a cluster (all rates in simulated seconds).

    ``kill_replicas`` takes that many replicas down for the whole run
    (hand-built schedules, not MTBF draws); the MTBF fields feed a
    seeded :class:`FaultModel` forked per replica; ``load_factor``
    scales offered traffic beyond what the cluster was sized for.
    """

    name: str
    core_mtbf_s: float = math.inf
    chip_mtbf_s: float = math.inf
    chip_repair_s: float = 0.2
    slowdown_mtbf_s: float = math.inf
    kill_replicas: int = 0
    load_factor: float = 1.0

    def model(self, seed: int) -> Optional[FaultModel]:
        if (math.isinf(self.core_mtbf_s) and math.isinf(self.chip_mtbf_s)
                and math.isinf(self.slowdown_mtbf_s)):
            return None
        return FaultModel(seed=seed, core_mtbf_s=self.core_mtbf_s,
                          chip_mtbf_s=self.chip_mtbf_s,
                          chip_repair_s=self.chip_repair_s,
                          slowdown_mtbf_s=self.slowdown_mtbf_s)


#: The default chaos menu: a clean control, a dead replica, MTBF-driven
#: chip outages, transient slowdowns, and a 2.5x overload.
DEFAULT_SCENARIOS: tuple[ChaosScenario, ...] = (
    ChaosScenario("faultless"),
    ChaosScenario("kill-1", kill_replicas=1),
    ChaosScenario("chip-outages", chip_mtbf_s=0.5, chip_repair_s=0.2),
    ChaosScenario("slowdowns", slowdown_mtbf_s=0.3),
    ChaosScenario("overload", load_factor=2.5),
)


@dataclass(frozen=True)
class ChaosRow:
    """One (chip, app, scenario, policy) cell of the chaos sweep."""

    chip: str
    app: str
    scenario: str
    policy: str
    offered_qps: float
    stats: ClusterStats


def chaos_sweep(seed: int = 0, *,
                apps: Sequence[str] = ("cnn0",),
                chips: Optional[Sequence[ChipConfig]] = None,
                replicas: int = DEFAULT_REPLICAS,
                duration_s: float = DEFAULT_DURATION_S,
                utilization: float = DEFAULT_UTILIZATION,
                max_batch: int = DEFAULT_MAX_BATCH,
                scenarios: Sequence[ChaosScenario] = DEFAULT_SCENARIOS,
                ) -> list[ChaosRow]:
    """Run every (chip, app, scenario) under both router policies.

    Traffic per (chip, app) is Poisson at ``utilization`` of the SLO
    capacity of ``replicas - 1`` replicas — the fleet is provisioned
    N+1, so one dead replica should be survivable by construction — and
    seeded from ``seed``: the sweep is a pure function of its
    arguments (asserted in ``tests/test_cluster.py``).
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if not 0 < duration_s < math.inf:
        raise ValueError(
            f"duration must be finite and positive, got {duration_s}")
    if not 0 < utilization <= 1:
        raise ValueError(f"utilization must be in (0, 1], got {utilization}")
    if replicas < 2:
        raise ValueError("a chaos sweep needs at least 2 replicas")
    chip_list = tuple(chips) if chips is not None else GENERATIONS
    for scenario in scenarios:
        if scenario.kill_replicas >= replicas:
            raise ValueError(
                f"scenario {scenario.name!r} kills every replica")

    rows: list[ChaosRow] = []
    for pair_index, (chip, app) in enumerate(
            (c, a) for c in chip_list for a in apps):
        spec = app_by_name(app)
        slo = Slo(spec.slo_ms / 1e3)
        point = shared_design_point(chip)
        steps = BatchPolicy.batch_steps(max_batch)
        table = latency_table(point, spec, steps)
        slo_batch = max((s for s in steps if table[s] <= slo.limit_s),
                        default=1)
        per_replica_qps = chip.cores * slo_batch / table[slo_batch]
        base_qps = utilization * per_replica_qps * (replicas - 1)

        batch_policy = BatchPolicy(max_batch=max_batch,
                                   max_wait_s=slo.limit_s / 4.0)
        policies = (
            ("static", ClusterPolicy.static()),
            ("resilient", ClusterPolicy.resilient(
                slo_limit_s=slo.limit_s, offered_qps=base_qps,
                max_batch=max_batch, replicas=replicas,
                int8_tier=chip.supports_dtype("int8"))),
        )
        traffic = RequestGenerator(seed * 7919 + pair_index)
        for scenario in scenarios:
            # Bare arrival timestamps (same draws as .poisson, which
            # delegates here): at sweep scale the router only reads
            # arrival times, so Request objects would be pure overhead.
            requests = traffic.rng.poisson_arrivals(
                base_qps * scenario.load_factor, duration_s)
            if not requests:
                continue  # degenerate rate/duration; nothing to serve
            model = scenario.model(seed)
            schedules = None
            if scenario.kill_replicas:
                horizon = requests[-1] + 1.0
                schedules = [
                    FaultSchedule(chip.cores, horizon,
                                  down=[(c, 0.0, math.inf)
                                        for c in range(chip.cores)])
                    if i < scenario.kill_replicas else None
                    for i in range(replicas)]
            for policy_name, policy in policies:
                sims = [ServingSimulator(point, spec, batch_policy, slo)
                        for _ in range(replicas)]
                for sim in sims:
                    sim.seed_latencies(table)
                cluster = ClusterSimulator(sims, policy)
                stats = cluster.simulate(requests, faults=model,
                                         schedules=schedules)
                rows.append(ChaosRow(chip=chip.name, app=spec.name,
                                     scenario=scenario.name,
                                     policy=policy_name,
                                     offered_qps=base_qps
                                     * scenario.load_factor,
                                     stats=stats))
    return rows

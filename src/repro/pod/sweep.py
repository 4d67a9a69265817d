"""Pod chaos sweep: sharded slices under link/slice fault scenarios.

One row per (chip, app, topology kind, scenario, router policy): a
cluster of multi-chip slices — each slice a
:class:`~repro.pod.slicesim.SliceSimulator` serving the model
pipeline-parallel — driven by deterministic Poisson traffic sized so
that N-1 slices can carry it, under a link/slice chaos scenario, once
with the unprotected ``static`` router and once with the full
``resilient`` policy. The scenario grid crosses the torus and OCS
topology variants, so the same dead link shows up as a reroute-and-slow
slice on the torus and a reconfigure-then-heal slice on the OCS fabric.

The emitted table is what the ``repro pod`` CLI prints: same
arguments, byte-identical rows (two runs are diffed in CI and
``tests/test_pod.py`` checks it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.arch.chip import ChipConfig, TPUV4I
from repro.cluster.cluster import ClusterSimulator, ClusterStats
from repro.cluster.policy import ClusterPolicy
from repro.core.design_point import shared_design_point
from repro.faults.model import FaultSchedule
from repro.pod.faults import PodFaultModel
from repro.pod.slicesim import SliceSimulator
from repro.pod.topology import PodTopology, slice_topology
from repro.serving.batching import BatchPolicy
from repro.serving.slo import Slo
from repro.workloads.generator import RequestGenerator
from repro.workloads.models import app_by_name

DEFAULT_SLICES = 3
DEFAULT_SLICE_CHIPS = 4
DEFAULT_UTILIZATION = 0.6
DEFAULT_DURATION_S = 1.0
DEFAULT_MAX_BATCH = 8
DEFAULT_TOPOLOGY_KINDS = ("torus", "ocs")

#: Hand-placed scenario timings (simulated seconds): the dead-chip
#: repair window, and the two link failures of the reconfiguration
#: race — close enough that the second failure lands inside the first
#: OCS reconfiguration window.
_CHIP_REPAIR_S = 0.25
_RACE_T0 = 0.05
_RACE_GAP_S = 0.005
_RACE_REPAIR_S = 0.1


@dataclass(frozen=True)
class PodScenario:
    """One way to hurt a pod (all times in simulated seconds).

    ``kill_links`` takes that many distinct links of slice 0 down for
    the whole run (hand-built, not MTBF draws); ``kill_chip`` takes one
    whole chip of slice 0 down for a repair window — a pipeline slice
    cannot serve through a dead member, so the slice is out until the
    chip returns; ``link_race`` fails two links of slice 0 a few
    milliseconds apart (the OCS reconfiguration race — on the torus the
    same pair isolates a member and partitions the slice);
    ``link_slowdown_mtbf_s`` feeds a seeded :class:`PodFaultModel`
    forked per slice.
    """

    name: str
    kill_links: int = 0
    kill_chip: bool = False
    link_race: bool = False
    link_slowdown_mtbf_s: float = math.inf


DEFAULT_POD_SCENARIOS: tuple = (
    PodScenario("faultless"),
    PodScenario("kill-1-link", kill_links=1),
    PodScenario("kill-1-chip", kill_chip=True),
    PodScenario("ocs-reconfig-race", link_race=True),
    PodScenario("link-slowdown", link_slowdown_mtbf_s=0.3),
)


@dataclass(frozen=True)
class PodChaosRow:
    """One (chip, app, topology, scenario, policy) cell of the sweep."""

    chip: str
    app: str
    topology: str
    scenario: str
    policy: str
    slice_chips: int
    offered_qps: float
    stats: ClusterStats


def _scenario_schedules(scenario: PodScenario, sims: Sequence[SliceSimulator],
                        topology: PodTopology, horizon_s: float,
                        seed: int) -> Optional[list]:
    """Per-slice core schedules realizing one scenario (None = clean run).

    Link scenarios are expressed as link timelines first (link indices
    in the core slot of a :class:`FaultSchedule`) and compiled into
    core schedules by each slice — the exact path organic link faults
    take — so hand-built and MTBF-driven scenarios exercise one state
    machine.
    """
    n = len(sims)
    cores = sims[0].point.chip.cores
    num_links = topology.num_links

    if scenario.kill_links:
        if scenario.kill_links > num_links:
            raise ValueError(
                f"scenario {scenario.name!r} kills {scenario.kill_links} "
                f"links; topology has {num_links}")
        link_schedule = FaultSchedule(
            num_links, horizon_s,
            down=[(link, 0.0, math.inf)
                  for link in range(scenario.kill_links)])
        first = sims[0].induced_schedule(link_schedule, horizon_s)
        return [first] + [None] * (n - 1)

    if scenario.kill_chip:
        # One dead member takes the whole pipeline slice out until the
        # chip is repaired: every serving lane of slice 0 is down.
        chip_schedule = FaultSchedule(
            cores, horizon_s,
            down=[(core, 0.0, _CHIP_REPAIR_S) for core in range(cores)])
        return [chip_schedule] + [None] * (n - 1)

    if scenario.link_race:
        link_schedule = FaultSchedule(
            num_links, horizon_s,
            down=[(0, _RACE_T0, _RACE_T0 + _RACE_REPAIR_S),
                  (1, _RACE_T0 + _RACE_GAP_S,
                   _RACE_T0 + _RACE_GAP_S + _RACE_REPAIR_S)])
        first = sims[0].induced_schedule(link_schedule, horizon_s)
        return [first] + [None] * (n - 1)

    if not math.isinf(scenario.link_slowdown_mtbf_s):
        model = PodFaultModel(
            seed=seed, link_slowdown_mtbf_s=scenario.link_slowdown_mtbf_s)
        schedules = []
        for index, sim in enumerate(sims):
            forked = model.fork_for_slice(index)
            link_schedule = forked.link_schedule(num_links, horizon_s)
            schedules.append(sim.induced_schedule(link_schedule, horizon_s))
        return schedules

    return None


def pod_chaos_sweep(seed: int = 0, *,
                    apps: Sequence[str] = ("cnn0",),
                    chips: Optional[Sequence[ChipConfig]] = None,
                    slices: int = DEFAULT_SLICES,
                    slice_chips: int = DEFAULT_SLICE_CHIPS,
                    duration_s: float = DEFAULT_DURATION_S,
                    utilization: float = DEFAULT_UTILIZATION,
                    max_batch: int = DEFAULT_MAX_BATCH,
                    parallelism: str = "pipeline",
                    topology_kinds: Sequence[str] = DEFAULT_TOPOLOGY_KINDS,
                    scenarios: Sequence[PodScenario] = DEFAULT_POD_SCENARIOS,
                    ) -> list:
    """Run every (chip, app, topology kind, scenario) under both router
    policies.

    Traffic per (chip, app, kind) is Poisson at ``utilization`` of the
    SLO capacity of ``slices - 1`` slices (the N+1 rule: one dead slice
    is survivable by construction), seeded from ``seed``: the sweep is
    a pure function of its arguments. Chips without enough ICI ports
    for a ``slice_chips``-chip slice are skipped.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if not 0 < duration_s < math.inf:
        raise ValueError(
            f"duration must be finite and positive, got {duration_s}")
    if not 0 < utilization <= 1:
        raise ValueError(f"utilization must be in (0, 1], got {utilization}")
    if slices < 2:
        raise ValueError("a pod chaos sweep needs at least 2 slices")
    if slice_chips < 2:
        raise ValueError(
            "a pod chaos sweep shards across at least 2 chips per slice "
            "(the 1-chip slice is the identity case, covered by tests)")
    chip_list = tuple(chips) if chips is not None else (TPUV4I,)

    rows: list = []
    pair_index = -1
    for chip in chip_list:
        for app in apps:
            for kind in topology_kinds:
                pair_index += 1
                if chip.ici_links < 2:
                    continue  # no fabric: cannot shard at all
                topology = slice_topology(chip, slice_chips, kind=kind)
                spec = app_by_name(app)
                slo = Slo(spec.slo_ms / 1e3)
                point = shared_design_point(chip)
                batch_policy = BatchPolicy(max_batch=max_batch,
                                           max_wait_s=slo.limit_s / 4.0)
                sims = [SliceSimulator(point, spec, batch_policy, slo,
                                       topology=topology,
                                       parallelism=parallelism)
                        for _ in range(slices)]
                # Identical slices share every memo: one shard build,
                # one latency table, one link-state repricing.
                for sim in sims[1:]:
                    sim._latency_cache = sims[0]._latency_cache
                    sim._shards = sims[0]._shards
                    sim._state_latency = sims[0]._state_latency

                steps = BatchPolicy.batch_steps(max_batch)
                table = {step: sims[0].batch_latency_s(step)
                         for step in steps}
                slo_batch = max(
                    (s for s in steps if table[s] <= slo.limit_s), default=1)
                per_slice_qps = chip.cores * slo_batch / table[slo_batch]
                base_qps = utilization * per_slice_qps * (slices - 1)

                policies = (
                    ("static", ClusterPolicy.static()),
                    ("resilient", ClusterPolicy.resilient(
                        slo_limit_s=slo.limit_s, offered_qps=base_qps,
                        max_batch=max_batch, replicas=slices,
                        int8_tier=chip.supports_dtype("int8"))),
                )
                traffic = RequestGenerator(seed * 7919 + pair_index)
                for scenario in scenarios:
                    requests = traffic.rng.poisson_arrivals(
                        base_qps, duration_s)
                    if not requests:
                        continue  # degenerate rate/duration
                    horizon = requests[-1] + 1.0
                    schedules = _scenario_schedules(
                        scenario, sims, topology, horizon, seed)
                    for policy_name, policy in policies:
                        cluster = ClusterSimulator(sims, policy)
                        stats = cluster.simulate(requests,
                                                 schedules=schedules)
                        rows.append(PodChaosRow(
                            chip=chip.name, app=spec.name,
                            topology=kind, scenario=scenario.name,
                            policy=policy_name, slice_chips=slice_chips,
                            offered_qps=base_qps, stats=stats))
    return rows

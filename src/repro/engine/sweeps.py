"""Engine-backed sweeps: the parallel counterparts of the DSE loops.

Task functions are module-level (picklable for the process pool) and
import ``repro.core`` lazily, keeping the dependency direction
core -> engine at import time while letting workers execute core code.

Every sweep returns results in input order, so feeding them to
``pareto_frontier`` / tables gives output identical to the serial loops.

When a sweep would run serially (one effective worker), it is dispatched
as **one batched grid evaluation** through :mod:`repro.engine.grid`
instead of a per-point loop: same results, same cache contents, one
vectorized kernel pass; ``gridsim_disabled()`` restores the literal loops.

The candidate sweep shards that grid path across the pool rather than
fanning out one chip per task: chips are grouped by
:func:`~repro.engine.grid.compile_chip_fingerprint`, and each pool task
is one distinct compile — one app on one group — evaluated as one grid
batch in the worker. A sweep over clock or MXU count thus compiles once
per (app, compile content), not once per point. The CMEM-capacity and
batch-latency pool sweeps stay one point per task: sharding them the
same way was measured on a 2-CPU box and did not pay (``bert0``'s
17-capacity sweep tied at 0.138 s; its 9-batch latency sweep went from
0.545 to 0.722 s), since every point there is its own compile.
"""

from __future__ import annotations

from itertools import product
from typing import TYPE_CHECKING, Optional, Sequence

from repro.engine.grid import compile_chip_fingerprint
from repro.engine.parallel import ParallelSweeper
from repro.obs.metrics import metrics
from repro.sim.gridkernel import gridsim_enabled

if TYPE_CHECKING:  # pragma: no cover
    from repro.arch.chip import ChipConfig
    from repro.compiler.versions import CompilerVersion
    from repro.core.design_point import Evaluation
    from repro.core.dse import DesignCandidate
    from repro.workloads.models import WorkloadSpec


# ----------------------------------------------------------- candidate sweep

def _shard_task(args: tuple[str, tuple["ChipConfig", ...], "CompilerVersion"]
                ) -> list["Evaluation"]:
    """One app on chips that share compile content: one compile, one batch."""
    app, chips, release = args
    from repro.core.design_point import shared_design_point
    from repro.engine.grid import GridJob, evaluate_jobs
    from repro.workloads.models import app_by_name
    spec = app_by_name(app)
    return evaluate_jobs([GridJob(shared_design_point(chip, release), spec)
                          for chip in chips])


def evaluate_candidates(chips: Sequence["ChipConfig"],
                        app_names: Optional[Sequence[str]] = None,
                        *, version=None,
                        workers: Optional[int] = None,
                        chunk_size: Optional[int] = None
                        ) -> list["DesignCandidate"]:
    """Evaluate a candidate grid, sharded over processes.

    ``workers=None`` uses the available CPUs; ``workers=1`` is the serial
    grid path. Results are ordered like ``chips`` and bit-identical
    across worker counts.
    """
    from repro.compiler.versions import LATEST
    from repro.core.dse import DEFAULT_DSE_APPS
    names = tuple(app_names) if app_names is not None else DEFAULT_DSE_APPS
    release = version if version is not None else LATEST
    sweeper = ParallelSweeper(workers=workers, chunk_size=chunk_size)
    return _evaluate_candidates(sweeper, list(chips), names, release)


def _evaluate_candidates(sweeper: ParallelSweeper,
                         chips: list["ChipConfig"], names: tuple[str, ...],
                         release: "CompilerVersion"
                         ) -> list["DesignCandidate"]:
    """:func:`evaluate_candidates` with the sweeper supplied by the caller.

    One task per (app, compile-content group), app-major; each task's
    evaluations are folded back per chip in app order, so every
    candidate is :func:`~repro.core.dse.candidate_from_evaluations` over
    the same records the serial grid path produces.
    """
    from repro.core.dse import (candidate_from_evaluations,
                                evaluate_candidates_grid, resolve_apps)
    resolve_apps(names)  # bad names raise here, before any dispatch
    groups: dict[str, list[int]] = {}
    for i, chip in enumerate(chips):
        groups.setdefault(compile_chip_fingerprint(chip), []).append(i)
    shards = list(groups.values())
    tasks = [(name, tuple(chips[i] for i in shard), release)
             for name, shard in product(names, shards)]
    metrics().count("engine.sweeps.candidates", len(chips))
    if sweeper.effective_workers(len(tasks)) <= 1 and gridsim_enabled():
        return evaluate_candidates_grid(chips, names, release)
    per_chip: list[list["Evaluation"]] = [[] for _ in chips]
    results = sweeper.map_cached(_shard_task, tasks)
    for (_, shard), evaluations in zip(product(names, shards), results):
        for i, evaluation in zip(shard, evaluations):
            per_chip[i].append(evaluation)
    return [candidate_from_evaluations(chip, evaluations)
            for chip, evaluations in zip(chips, per_chip)]


# ---------------------------------------------------------------- CMEM sweep

def _cmem_task(args: tuple["ChipConfig", str, int, int]) -> tuple[int, float]:
    chip, workload, batch, capacity = args
    from repro.core.design_point import shared_design_point
    from repro.workloads.models import app_by_name
    point = shared_design_point(chip)
    spec = app_by_name(workload)
    return capacity, point.latency_s(spec, batch, cmem_budget_bytes=capacity)


def cmem_capacity_sweep(spec: "WorkloadSpec", capacities_bytes: Sequence[int],
                        chip: "ChipConfig", batch: int,
                        *, workers: Optional[int] = None
                        ) -> list[tuple[int, float]]:
    """(capacity, latency) per CMEM budget, optionally process-parallel."""
    for capacity in capacities_bytes:
        if capacity < 0:
            raise ValueError("CMEM capacity must be non-negative")
    sweeper = ParallelSweeper(workers=workers)
    tasks = [(chip, spec.name, batch, capacity)
             for capacity in capacities_bytes]
    metrics().count("engine.sweeps.cmem_points", len(tasks))
    if sweeper.effective_workers(len(tasks)) <= 1 and gridsim_enabled():
        from repro.core.design_point import shared_design_point
        from repro.engine.grid import GridJob, run_grid
        point = shared_design_point(chip)
        results = run_grid([GridJob(point, spec, batch, capacity)
                            for capacity in capacities_bytes])
        return [(capacity, result.seconds)
                for capacity, result in zip(capacities_bytes, results)]
    return sweeper.map_cached(_cmem_task, tasks)


# -------------------------------------------------------- batch-latency grid

def _latency_task(args: tuple["ChipConfig", str, str, int]) -> tuple[int, float]:
    chip, version_name, workload, batch = args
    from repro.compiler.versions import release_by_name
    from repro.core.design_point import shared_design_point
    from repro.workloads.models import app_by_name
    point = shared_design_point(chip, release_by_name(version_name))
    return batch, point.latency_s(app_by_name(workload), batch)


def batch_latency_grid(chip: "ChipConfig", workload: str,
                       batches: Sequence[int], *, version=None,
                       workers: Optional[int] = None
                       ) -> dict[int, float]:
    """Batch -> latency for a workload (the serving simulator's table)."""
    from repro.compiler.versions import LATEST
    release = version if version is not None else LATEST
    for batch in batches:
        if batch <= 0:
            raise ValueError("batch must be positive")
    sweeper = ParallelSweeper(workers=workers)
    tasks = [(chip, release.name, workload, batch) for batch in batches]
    metrics().count("engine.sweeps.batch_points", len(tasks))
    if sweeper.effective_workers(len(tasks)) <= 1 and gridsim_enabled():
        from repro.core.design_point import shared_design_point
        from repro.engine.grid import GridJob, run_grid
        from repro.workloads.models import app_by_name
        point = shared_design_point(chip, release)
        spec = app_by_name(workload)
        results = run_grid([GridJob(point, spec, batch)
                            for batch in batches])
        return {batch: result.seconds
                for batch, result in zip(batches, results)}
    return dict(sweeper.map_cached(_latency_task, tasks))

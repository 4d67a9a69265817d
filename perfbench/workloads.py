"""The benchmark's workloads: seeded inputs, one op each, output digests.

Every workload is a closed loop with one client: an op starts only after
the previous one returned and was checked. Each op is a full user-level
call into the library, run cold (see :func:`reset_caches`), because a
fresh ``repro`` invocation pays graph build and compile every time.

Why these three (each stresses different layers; see ``WORKLOADS``):

* ``dse-sweep`` is the paper's design-space exploration (Lessons 8 and
  10): graph, compiler, lowering, FastReplay, the process pool and GC do
  the work, serving does none.
* ``fleet-day`` is latency-bound serving of one app over a compressed
  day (Lesson 9): traffic generation and the cluster replay do the work,
  compile is under 1%.
* ``llm-chaos`` is generative serving under faults: continuous batching
  and recovery do most of the work, and the compiler and grid kernel run
  many phase programs on one chip rather than a few programs on many
  chips, so a change tuned to ``dse-sweep`` shows up here.
"""

from __future__ import annotations

import gc
import hashlib
import random
from dataclasses import dataclass, replace
from typing import Any, Callable

from repro.arch.chip import TPUV3, TPUV4I
from repro.cluster.cluster import ClusterSimulator
from repro.cluster.policy import ClusterPolicy
from repro.cluster.sweep import (DEFAULT_DURATION_S, DEFAULT_MAX_BATCH,
                                 DEFAULT_REPLICAS, DEFAULT_SCENARIOS,
                                 DEFAULT_UTILIZATION)
from repro.core import enumerate_candidates, evaluate_candidates
from repro.core.design_point import (clear_shared_design_points,
                                     shared_design_point)
from repro.engine.cache import EvalCache, set_cache
from repro.engine.lowered import clear_lowered
from repro.engine.modules import clear_modules
from repro.faults import sweep as fault_sweep
from repro.serving.batching import BatchPolicy
from repro.serving.continuous import llm_chaos_sweep
from repro.serving.server import ServingSimulator
from repro.serving.slo import Slo
from repro.sim.gridkernel import clear_grid_kernel
from repro.workloads.generator import RequestGenerator
from repro.workloads.models import PRODUCTION_APPS, app_by_name


# ----------------------------------------------------------------- cold start

def reset_caches() -> None:
    """Drop every process-wide cache through its public function.

    A fresh process starts with all of them empty, so each op pays what
    a new ``repro`` invocation pays. The collection afterwards keeps one
    op's cyclic garbage from being collected inside the next.
    """
    set_cache(EvalCache())
    clear_modules()
    clear_lowered()
    clear_grid_kernel()
    clear_shared_design_points()
    gc.collect()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ------------------------------------------------------------------ dse-sweep

DSE_MXUS = (2, 4, 8)
DSE_CMEM_MIB = (0, 64, 128)
DSE_CLOCKS_GHZ = tuple(c / 100 for c in range(80, 141, 5))


def dse_inputs(seed: int, scale: float) -> tuple:
    """(chips, apps): 3 MXU counts x 3 CMEM sizes at one clock the seed
    picks, x 8 apps = 72 points; scale trims the chip list.

    The seed moves only the clock, which changes the simulated timings
    but not the work of compiling and replaying them, so every seed
    costs the same (a seeded CMEM axis made host time vary by seed).
    """
    clock = random.Random(seed).choice(DSE_CLOCKS_GHZ)
    chips = enumerate_candidates(DSE_MXUS, DSE_CMEM_MIB, (clock,))
    count = max(1, round(len(chips) * scale))
    return chips[:count], tuple(app.name for app in PRODUCTION_APPS)


def dse_op(inputs: tuple) -> list:
    chips, apps = inputs
    return evaluate_candidates(chips, apps)


def dse_work(inputs: tuple, output: list) -> int:
    chips, apps = inputs
    return len(chips) * len(apps)


def dse_digest(output: list) -> str:
    return _digest("\n".join(
        f"{c.chip.name} {c.geomean_qps!r} {c.tdp_estimate_w!r} "
        f"{c.air_coolable} {c.die_mm2_estimate!r}" for c in output))


# ------------------------------------------------------------------ fleet-day

FLEET_APP = "cnn0"
FLEET_REQUESTS = 100_000
#: The shipped chaos menu's MTBF-driven outage scenario (``repro
#: cluster``): chip outages that make the routers fail over.
FLEET_SCENARIO = next(s for s in DEFAULT_SCENARIOS
                      if s.name == "chip-outages")


def fleet_inputs(seed: int, scale: float) -> tuple:
    """(seed, target request count for the day)."""
    return seed, max(1, round(FLEET_REQUESTS * scale))


def fleet_scenario(duration_s: float):
    """``FLEET_SCENARIO`` stretched from the shipped sweep's trace length
    to ``duration_s``: as many outages per replica per trace, and the
    same share of time down, as ``repro cluster`` simulates."""
    stretch = duration_s / DEFAULT_DURATION_S
    return replace(
        FLEET_SCENARIO, chip_mtbf_s=FLEET_SCENARIO.chip_mtbf_s * stretch,
        chip_repair_s=FLEET_SCENARIO.chip_repair_s * stretch)


def fleet_op(inputs: tuple) -> list:
    """One cnn0/TPUv4i fleet day under the static and resilient routers.

    Replicas, utilization, batching and both policies are the chaos
    sweep's defaults (``repro.cluster.sweep.chaos_sweep``); only the
    traffic differs: a ``RequestGenerator.diurnal`` day whose period is
    the trace length, so the day is compressed rather than truncated.
    """
    seed, target = inputs
    spec = app_by_name(FLEET_APP)
    chip = TPUV4I
    point = shared_design_point(chip)
    slo = Slo(spec.slo_ms / 1e3)
    steps = BatchPolicy.batch_steps(DEFAULT_MAX_BATCH)
    table = fault_sweep.latency_table(point, spec, steps)
    slo_batch = max((s for s in steps if table[s] <= slo.limit_s), default=1)
    rate_qps = (DEFAULT_UTILIZATION * chip.cores * slo_batch
                / table[slo_batch] * (DEFAULT_REPLICAS - 1))
    duration_s = target / rate_qps
    requests = RequestGenerator(seed).diurnal(
        FLEET_APP, rate_qps, duration_s, period_s=duration_s)
    faults = fleet_scenario(duration_s).model(seed)
    batch_policy = BatchPolicy(max_batch=DEFAULT_MAX_BATCH,
                               max_wait_s=slo.limit_s / 4)
    policies = (ClusterPolicy.static(),
                ClusterPolicy.resilient(
                    slo_limit_s=slo.limit_s, offered_qps=rate_qps,
                    max_batch=DEFAULT_MAX_BATCH, replicas=DEFAULT_REPLICAS,
                    int8_tier=chip.supports_dtype("int8")))
    stats = []
    for policy in policies:
        sims = [ServingSimulator(point, spec, batch_policy, slo)
                for _ in range(DEFAULT_REPLICAS)]
        for sim in sims:
            sim.seed_latencies(table)
        stats.append(ClusterSimulator(sims, policy).simulate(
            requests, faults=faults))
    return stats


def fleet_work(inputs: tuple, output: list) -> int:
    return sum(stats.requests for stats in output)


def fleet_digest(output: list) -> str:
    return _digest(repr(output))


# ------------------------------------------------------------------ llm-chaos

LLM_MODELS = ("llm0", "llm1")
LLM_CHIPS = (TPUV3, TPUV4I)
LLM_DURATION_S = 1.0


def llm_inputs(seed: int, scale: float) -> tuple:
    """(seed, simulated seconds of traffic)."""
    return seed, LLM_DURATION_S * scale


def llm_op(inputs: tuple) -> list:
    seed, duration_s = inputs
    return llm_chaos_sweep(seed, models=LLM_MODELS, chips=LLM_CHIPS,
                           duration_s=duration_s)


def llm_work(inputs: tuple, output: list) -> int:
    return sum(row.stats.tokens_generated for row in output)


def llm_digest(output: list) -> str:
    return _digest(repr(output))


# ------------------------------------------------------------------ registry

@dataclass(frozen=True)
class Workload:
    """One benchmark workload; ``unit`` names what ``work`` counts."""

    name: str
    why: str
    unit: str
    inputs: Callable[[int, float], Any]
    op: Callable[[Any], Any]
    work: Callable[[Any, Any], int]
    digest: Callable[[Any], str]


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("dse-sweep",
             "DSE flow, default evaluate_candidates on 8 apps x 9 chips (72 "
             "points): graph, compile, lower, replay, pool and GC do the work",
             "points", dse_inputs, dse_op, dse_work, dse_digest),
    Workload("fleet-day",
             "cnn0/TPUv4i compressed diurnal day (100k requests), static vs "
             "resilient routers under the shipped chip-outages scenario: "
             "traffic and cluster replay do the work",
             "requests", fleet_inputs, fleet_op, fleet_work, fleet_digest),
    Workload("llm-chaos",
             "llm_chaos_sweep, llm0+llm1 on TPUv3+TPUv4i, 1 s of traffic: "
             "continuous batching and recovery, plus per-phase compile and "
             "grid on one chip",
             "tokens", llm_inputs, llm_op, llm_work, llm_digest),
)}

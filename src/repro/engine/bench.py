"""The engine's own benchmark: serial vs parallel vs warm vs fast-sim.

Runs the default DSE grid (``enumerate_candidates`` x ``DEFAULT_DSE_APPS``)
four ways and reports wall times plus cache counters:

* ``serial_cold_s`` — the pre-engine path: plain serial loop with the
  result *and* module caches disabled and the interpreter simulator
  (every candidate rebuilds, recompiles and interprets everything,
  exactly like the code before this engine);
* ``engine_serial_cold_s`` — serial loop through the engine with a cold
  result cache (shared module builds, lowered-IR fast sim — the default
  cold path);
* ``parallel_cold_s`` — cold result cache, ``workers`` processes (the
  sweeper falls back to serial itself when affinity makes fan-out a
  loss, so this never regresses below the engine serial path);
* ``warm_s`` — the same sweep again with the warm result cache.

A fifth phase times the *simulation path alone* on the grid's compiled
programs — the thing the lowered-IR/replay kernel optimizes:

* ``interp_cold_s`` — one interpreter run per (chip, app) program;
* ``fast_cold_s`` — one cold lowering + replay per program;
* ``speedup_fast_vs_interp`` — their ratio (the PR-tracked headline).

A sixth phase exercises the fault-injection subsystem:

* ``faulted_sweep_s`` — one seeded faultless-vs-faulted serving sweep
  (:func:`repro.faults.sweep.fault_sweep`) on TPUv4i;
* ``fault_determinism`` — the same sweep again must match record for
  record (ServingStats are exact dataclasses, so this is bit-level);
* ``zero_fault_identical`` — a zero-fault :class:`~repro.faults.model.
  FaultModel` must reproduce the faultless baseline bit for bit.

A seventh phase prices the observability layer:

* ``obs_off_s`` / ``obs_on_s`` — one instrumented serving sweep with the
  metrics registry disabled vs enabled;
* ``obs_identical`` — the two runs' results must match bit for bit
  (instrumentation may never perturb outputs);
* ``obs_disabled_overhead_pct`` — an *analytic* bound on what the
  disabled guards cost: (recording ops observed while enabled) x
  (measured per-op cost of a disabled guard) over the disabled wall
  time. Analytic because a direct off-vs-baseline timing diff of a few
  hundred boolean checks drowns in scheduler noise;
* ``trace_deterministic`` — two ``build_trace`` exports of the same app
  must serialize to byte-identical Chrome JSON.

An eighth phase exercises the cluster-resilience layer:

* ``cluster_sweep_s`` — one seeded chaos sweep (:func:`repro.cluster.
  sweep.chaos_sweep`) on TPUv4i;
* ``cluster_determinism`` — the same sweep again must match row for row;
* ``cluster_zero_fault_identical`` — a one-replica passthrough cluster
  with no faults must reproduce the plain serving stats bit for bit;
* ``cluster_kill1_availability`` — availability of the resilient policy
  with one of three replicas killed outright.

A ninth phase times the vectorized grid kernel
(:mod:`repro.sim.gridkernel`) on a clock x MXU x CMEM candidate grid:

* ``grid_fast_cold_s`` / ``grid_cold_s`` — 200+ (chip, app) points
  replayed per point vs evaluated as one batched kernel pass, both cold;
* ``grid_identical`` — the batched results must match the per-point
  replay bit for bit;
* ``grid_sweep_serial_s`` / ``grid_sweep_s`` — the same candidate sweep
  end to end (compile + simulate + evaluate), per-point engine serial
  (``gridsim_disabled``) vs grid-routed, fresh caches both ways;
* ``speedup_grid_vs_fast`` / ``speedup_grid_vs_engine_serial`` — the
  PR-tracked headlines.

A tenth phase times the vectorized serving-replay kernel
(:mod:`repro.serving.fastserve`) on the chaos sweep at 10x the cluster
phase's traffic volume (5 s of Poisson arrivals per scenario):

* ``serve_fast_s`` / ``serve_cold_s`` — the same seeded chaos sweep
  through the replay kernels vs the reference event loops
  (``fastserve_disabled``);
* ``fastserve_identical`` — every row must match bit for bit;
* ``speedup_fastserve_vs_event`` — the PR-tracked headline;
* ``serve_requests`` — total requests replayed across the sweep's rows.

An eleventh phase exercises the pod-scale sharding layer:

* ``pod_sweep_s`` — one seeded pod chaos sweep (:func:`repro.pod.sweep.
  pod_chaos_sweep`): clusters of 4-chip sharded slices on both the
  torus and OCS fabrics, across the link/slice fault scenarios;
* ``pod_determinism`` — the same sweep again must match row for row;
* ``pod_identity`` — a 1-chip slice with zero link faults must
  reproduce the plain ``ServingSimulator`` stats bit for bit (the
  identity contract the slice simulator is built on);
* ``pod_kill1_link_availability`` — availability of the resilient
  policy with one ICI link of one slice killed outright.

A twelfth phase exercises generative serving
(:mod:`repro.serving.continuous`):

* ``llm_sweep_s`` — one seeded continuous-batching sweep
  (:func:`repro.serving.continuous.llm_sweep`) of both decoder models
  on TPUv4i;
* ``llm_determinism`` — the same sweep again must match row for row;
* ``llm_decode_memory_bound`` — every row's decode phase must sit left
  of its chip's ridge point (``ops_per_byte`` below the roofline knee);
* ``llm_phase_split`` — prefill and decode must price separately: at
  the same batch, their simulated latencies differ;
* ``llm_tokens`` — total tokens generated across the sweep's rows.

All sweep modes produce identical candidate lists and the fast sim is
bit-identical to the interpreter (checked here and asserted in tests).
The dict is written to ``BENCH_engine.json`` so speedups are tracked
across PRs.
"""

from __future__ import annotations

import gc
import json
import platform
import time
from pathlib import Path
from typing import Optional, Sequence

from repro.engine.cache import EvalCache, get_cache, set_cache
from repro.engine.lowered import clear_lowered, lowered_cache_disabled
from repro.engine.modules import clear_modules, module_cache_disabled
from repro.engine.parallel import available_workers
from repro.sim.gridkernel import clear_grid_kernel, gridsim_disabled
from repro.sim.lowered import fastsim_disabled

#: Default output location: the repository/working-directory root.
DEFAULT_OUTPUT = "BENCH_engine.json"


def _sweep_serial_legacy(grid, apps) -> list:
    """The pre-engine behavior: no shared caches, interpreter simulator."""
    from repro.core.design_point import clear_shared_design_points
    from repro.core.dse import evaluate_candidate
    clear_shared_design_points()
    cache = get_cache()
    was_enabled = cache.enabled
    cache.disable()
    try:
        with module_cache_disabled(), fastsim_disabled():
            return [evaluate_candidate(chip, apps) for chip in grid]
    finally:
        if was_enabled:
            cache.enable()
        clear_shared_design_points()


def _bench_sim_path(grid, apps) -> dict:
    """Time the simulation path alone: interpreter vs cold lower+replay.

    Compiles each (chip, app) program once (at the app's default batch),
    then measures one interpreter pass and one cold lowering + replay
    pass per program, asserting the results stay bit-identical.
    """
    from repro.core.design_point import DesignPoint
    from repro.workloads.models import app_by_name

    jobs = []
    for chip in grid:
        point = DesignPoint(chip, cache=EvalCache(enabled=False))
        for app in apps:
            spec = app_by_name(app)
            program = point.compiled(spec, spec.default_batch).program
            jobs.append((point.sim, program))

    # Each timed side starts from a collected heap, so a full collection
    # owed to earlier phases cannot land in one side of the ratio.
    gc.collect()
    t0 = time.perf_counter()
    interp = [sim.run_interpreted(program) for sim, program in jobs]
    interp_cold_s = time.perf_counter() - t0

    clear_lowered()
    gc.collect()
    with lowered_cache_disabled():
        t0 = time.perf_counter()
        fast = [sim.run(program) for sim, program in jobs]
        fast_cold_s = time.perf_counter() - t0

    identical = all(
        a.cycles == b.cycles and a.counters == b.counters
        and a.report == b.report
        for a, b in zip(interp, fast))
    return {
        "sim_programs": len(jobs),
        "interp_cold_s": round(interp_cold_s, 4),
        "fast_cold_s": round(fast_cold_s, 4),
        "speedup_fast_vs_interp": round(interp_cold_s / fast_cold_s, 2),
        "fast_sim_identical": identical,
    }


def _bench_faults(apps: Sequence[str]) -> dict:
    """Time a seeded fault sweep; assert determinism + zero-fault identity.

    Kept intentionally small (one chip, the first two apps, 1 s of
    traffic): the phase tracks the fault path's cost and its two
    bit-identity contracts, not fleet-scale numbers.
    """
    from repro.arch.chip import TPUV4I
    from repro.faults.model import FaultModel
    from repro.faults.sweep import fault_sweep

    bench_apps = tuple(apps)[:2]
    model = FaultModel(seed=7, core_mtbf_s=0.25, core_repair_s=0.05,
                       slowdown_mtbf_s=0.5)
    t0 = time.perf_counter()
    first = fault_sweep(model, apps=bench_apps, chips=(TPUV4I,),
                        duration_s=1.0)
    faulted_sweep_s = time.perf_counter() - t0

    repeat = fault_sweep(model, apps=bench_apps, chips=(TPUV4I,),
                         duration_s=1.0)
    zero = fault_sweep(FaultModel(seed=7), apps=bench_apps, chips=(TPUV4I,),
                       duration_s=1.0)
    return {
        "faulted_sweep_s": round(faulted_sweep_s, 4),
        "fault_rows": len(first),
        "fault_determinism": first == repeat,
        "zero_fault_identical": all(
            row.faulted == row.baseline for row in zero),
        "min_availability": min(
            (row.faulted.availability for row in first), default=1.0),
    }


def _bench_cluster(apps: Sequence[str]) -> dict:
    """Time a chaos sweep; assert determinism + the passthrough identity.

    The identity check is the cluster layer's core contract: a
    one-replica cluster under the default (passthrough) policy with no
    faults must reproduce the plain ``ServingSimulator`` stats on the
    same trace, every field bit for bit.
    """
    from repro.arch.chip import TPUV4I
    from repro.cluster.cluster import ClusterSimulator
    from repro.cluster.sweep import chaos_sweep
    from repro.core.design_point import shared_design_point
    from repro.serving.batching import BatchPolicy
    from repro.serving.server import ServingSimulator
    from repro.serving.slo import Slo
    from repro.workloads.generator import RequestGenerator
    from repro.workloads.models import app_by_name

    bench_apps = tuple(apps)[:1]
    t0 = time.perf_counter()
    first = chaos_sweep(seed=5, apps=bench_apps, chips=(TPUV4I,),
                        duration_s=0.5)
    cluster_sweep_s = time.perf_counter() - t0
    repeat = chaos_sweep(seed=5, apps=bench_apps, chips=(TPUV4I,),
                         duration_s=0.5)

    spec = app_by_name(bench_apps[0])
    slo = Slo(spec.slo_ms / 1e3)
    point = shared_design_point(TPUV4I)
    simulator = ServingSimulator(
        point, spec, BatchPolicy(max_batch=8, max_wait_s=slo.limit_s / 4.0),
        slo)
    requests = RequestGenerator(13).poisson(spec.name, 400.0, 0.5)
    plain = simulator.simulate(requests)
    clustered = ClusterSimulator([simulator]).simulate(requests)
    resilient = [row.stats.availability for row in first
                 if row.policy == "resilient" and row.scenario == "kill-1"]
    return {
        "cluster_sweep_s": round(cluster_sweep_s, 4),
        "cluster_rows": len(first),
        "cluster_determinism": first == repeat,
        "cluster_zero_fault_identical": clustered.replica_stats[0] == plain,
        "cluster_kill1_availability": min(resilient, default=1.0),
    }


def _bench_fastserve(apps: Sequence[str]) -> dict:
    """Chaos sweep at 10x the cluster phase's volume, kernel vs events.

    Same seed/chip/app as the cluster phase but 5 s of traffic per
    scenario instead of 0.5 s — the scale the replay kernels were built
    for. The identity check is row-for-row bit equality against the
    reference event loops; the speedup is the PR-tracked headline.
    """
    from repro.arch.chip import TPUV4I
    from repro.cluster.sweep import chaos_sweep
    from repro.serving.fastserve import fastserve_disabled

    bench_apps = tuple(apps)[:1]
    t0 = time.perf_counter()
    fast = chaos_sweep(seed=5, apps=bench_apps, chips=(TPUV4I,),
                       duration_s=5.0)
    serve_fast_s = time.perf_counter() - t0

    with fastserve_disabled():
        t0 = time.perf_counter()
        cold = chaos_sweep(seed=5, apps=bench_apps, chips=(TPUV4I,),
                           duration_s=5.0)
        serve_cold_s = time.perf_counter() - t0

    return {
        "serve_chaos_rows": len(fast),
        "serve_requests": sum(row.stats.requests for row in fast),
        "serve_fast_s": round(serve_fast_s, 4),
        "serve_cold_s": round(serve_cold_s, 4),
        "speedup_fastserve_vs_event": round(serve_cold_s / serve_fast_s, 2),
        "fastserve_identical": fast == cold,
    }


def _bench_pod(apps: Sequence[str]) -> dict:
    """Time a pod chaos sweep; assert determinism + the 1-chip identity.

    The identity check is the slice simulator's core contract: a 1-chip
    slice with zero link faults never builds a shard graph and must
    reproduce the plain ``ServingSimulator`` stats on the same trace,
    every field bit for bit.
    """
    from repro.arch.chip import TPUV4I
    from repro.core.design_point import shared_design_point
    from repro.pod.slicesim import SliceSimulator
    from repro.pod.sweep import pod_chaos_sweep
    from repro.pod.topology import slice_topology
    from repro.serving.batching import BatchPolicy
    from repro.serving.server import ServingSimulator
    from repro.serving.slo import Slo
    from repro.workloads.generator import RequestGenerator
    from repro.workloads.models import app_by_name

    bench_apps = tuple(apps)[:1]
    t0 = time.perf_counter()
    first = pod_chaos_sweep(seed=5, apps=bench_apps, chips=(TPUV4I,),
                            duration_s=0.5)
    pod_sweep_s = time.perf_counter() - t0
    repeat = pod_chaos_sweep(seed=5, apps=bench_apps, chips=(TPUV4I,),
                             duration_s=0.5)

    spec = app_by_name(bench_apps[0])
    slo = Slo(spec.slo_ms / 1e3)
    point = shared_design_point(TPUV4I)
    policy = BatchPolicy(max_batch=8, max_wait_s=slo.limit_s / 4.0)
    requests = RequestGenerator(13).poisson(spec.name, 400.0, 0.5)
    plain = ServingSimulator(point, spec, policy, slo).simulate(requests)
    sliced = SliceSimulator(
        point, spec, policy, slo,
        topology=slice_topology(TPUV4I, 1)).simulate(requests)
    kill1 = [row.stats.availability for row in first
             if row.policy == "resilient" and row.scenario == "kill-1-link"]
    return {
        "pod_sweep_s": round(pod_sweep_s, 4),
        "pod_rows": len(first),
        "pod_determinism": first == repeat,
        "pod_identity": sliced == plain,
        "pod_kill1_link_availability": min(kill1, default=1.0),
    }


def _bench_observability(apps: Sequence[str]) -> dict:
    """Price the metrics/tracing layer; assert it never perturbs results.

    The same seeded faulted serving sweep runs with the registry
    disabled and enabled; results must be bit-identical. The disabled
    guards are too cheap to time directly (hundreds of boolean checks
    inside a multi-second run), so the reported overhead is an analytic
    bound: every recording op observed in the enabled run corresponds to
    one guard check in the disabled run, and one guard check costs at
    most one disabled ``count()`` call (measured with a tight loop).
    """
    from repro.arch.chip import TPUV4I
    from repro.core.design_point import clear_shared_design_points
    from repro.faults.model import FaultModel
    from repro.faults.sweep import fault_sweep
    from repro.obs.metrics import MetricsRegistry, collecting_metrics
    from repro.obs.tracer import build_trace
    from repro.workloads.models import app_by_name

    bench_apps = tuple(apps)[:2]
    model = FaultModel(seed=11, core_mtbf_s=0.25, core_repair_s=0.05)

    def sweep_once():
        clear_shared_design_points()
        set_cache(EvalCache())
        return fault_sweep(model, apps=bench_apps, chips=(TPUV4I,),
                           duration_s=1.0)

    t0 = time.perf_counter()
    off = sweep_once()
    obs_off_s = time.perf_counter() - t0

    with collecting_metrics() as registry:
        t0 = time.perf_counter()
        on = sweep_once()
        obs_on_s = time.perf_counter() - t0
        ops = registry.op_count

    # Per-op cost of the disabled path, measured on a disabled registry.
    probe = MetricsRegistry(enabled=False)
    loops = 200_000
    t0 = time.perf_counter()
    for _ in range(loops):
        probe.count("probe")
    per_op_s = (time.perf_counter() - t0) / loops

    overhead_pct = (100.0 * ops * per_op_s / obs_off_s
                    if obs_off_s > 0 else 0.0)

    spec = app_by_name(bench_apps[0])
    clear_shared_design_points()
    first = build_trace(spec, TPUV4I).tracer.export_json()
    clear_shared_design_points()
    second = build_trace(spec, TPUV4I).tracer.export_json()

    return {
        "obs_off_s": round(obs_off_s, 4),
        "obs_on_s": round(obs_on_s, 4),
        "obs_ops_recorded": ops,
        "obs_disabled_overhead_pct": round(overhead_pct, 4),
        "obs_identical": off == on,
        "trace_deterministic": first == second,
        "trace_bytes": len(first),
    }


#: Clock axis for the grid-kernel phase: wide enough that the candidate
#: grid tops 200 (chip, app) points while compiling only once per
#: distinct CMEM provisioning (clock and MXU count never change compiled
#: content). The kernel-vs-replay comparison doubles the axis again —
#: more points per program amortize the one-time structure build.
_GRID_CLOCKS_GHZ = (0.85, 0.95, 1.05, 1.15, 1.25, 1.35)
_GRID_KERNEL_CLOCKS_GHZ = tuple(
    clock + offset for clock in _GRID_CLOCKS_GHZ for offset in (0.0, 0.05))


def _bench_grid(apps: Sequence[str]) -> dict:
    """Time the batched grid kernel against its per-point references.

    Two comparisons on one clock x MXU x CMEM candidate grid:

    * kernel vs per-point replay on the compiled programs (both cold,
      both starting from the same shared compilations) — the
      ``speedup_grid_vs_fast`` headline, with bit-identity asserted over
      every point;
    * the whole candidate sweep end to end, grid-routed vs the per-point
      engine serial loop (``gridsim_disabled``), fresh caches both ways
      — ``speedup_grid_vs_engine_serial``.
    """
    from repro.core.design_point import (
        DesignPoint,
        clear_shared_design_points,
    )
    from repro.core.dse import enumerate_candidates
    from repro.engine.grid import compile_chip_fingerprint
    from repro.engine.sweeps import evaluate_candidates
    from repro.sim.gridkernel import GridPoint, evaluate_grid
    from repro.workloads.models import app_by_name

    chips = enumerate_candidates(clocks_ghz=_GRID_CLOCKS_GHZ)

    # (a) Simulation path alone: one GridPoint per (chip, app), programs
    # compiled once per distinct compile content (the CMEM axis; clock
    # and MXU count don't change compiled programs).
    programs: dict = {}
    points = []
    for chip in enumerate_candidates(clocks_ghz=_GRID_KERNEL_CLOCKS_GHZ):
        dp = DesignPoint(chip, cache=EvalCache(enabled=False))
        for app in apps:
            spec = app_by_name(app)
            key = (compile_chip_fingerprint(chip), app)
            program = programs.get(key)
            if program is None:
                program = dp.compiled(spec, spec.default_batch).program
                programs[key] = program
            points.append(GridPoint(program, chip))

    clear_lowered()
    gc.collect()  # as in _bench_sim_path: no inherited collection debt
    t0 = time.perf_counter()
    with gridsim_disabled():
        reference = evaluate_grid(points)  # the per-point replay loop
    grid_fast_cold_s = time.perf_counter() - t0

    clear_grid_kernel()
    gc.collect()
    t0 = time.perf_counter()
    batched = evaluate_grid(points)
    grid_cold_s = time.perf_counter() - t0

    grid_identical = all(
        a.cycles == b.cycles and a.counters == b.counters
        and a.report == b.report
        for a, b in zip(reference, batched))

    # (b) The sweep end to end, fresh caches each way.
    def cold_sweep() -> tuple:
        set_cache(EvalCache())
        clear_modules()
        clear_lowered()
        clear_shared_design_points()
        clear_grid_kernel()
        t0 = time.perf_counter()
        out = evaluate_candidates(chips, apps, workers=1)
        return out, time.perf_counter() - t0

    with gridsim_disabled():
        serial, grid_sweep_serial_s = cold_sweep()
    routed, grid_sweep_s = cold_sweep()

    return {
        "grid_points": len(points),
        "grid_fast_cold_s": round(grid_fast_cold_s, 4),
        "grid_cold_s": round(grid_cold_s, 4),
        "speedup_grid_vs_fast": round(grid_fast_cold_s / grid_cold_s, 2),
        "grid_identical": grid_identical,
        "grid_sweep_points": len(chips) * len(apps),
        "grid_sweep_serial_s": round(grid_sweep_serial_s, 4),
        "grid_sweep_s": round(grid_sweep_s, 4),
        "speedup_grid_vs_engine_serial": round(
            grid_sweep_serial_s / grid_sweep_s, 2),
        "grid_sweep_identical": serial == routed,
    }


def _bench_llm() -> dict:
    """Time the generative serving sweep; assert its contracts.

    Determinism (same seed, same rows, bit for bit), the roofline claim
    (decode lands left of the ridge on every swept generation), the
    phase split (prefill and decode price differently at equal batch —
    the cache keys carry the phase, so they cannot alias), and the
    recovery contracts: a zero-checkpoint zero-fault policy is
    bit-identical to running with no policy, snapshot bytes land in the
    HBM/host traffic ledger at exactly the KV-cache footprint, the
    chaos sweep is deterministic, and under mid-step-kill chaos with a
    permanent core death the checkpointed policy strictly beats the
    scratch-re-prefill baseline on both goodput and served requests.
    """
    from repro.arch.chip import TPUV3, TPUV4I
    from repro.core.design_point import shared_design_point
    from repro.serving.continuous import (ContinuousBatchingSimulator,
                                          llm_chaos_sweep, llm_sweep,
                                          phase_latency_table)
    from repro.serving.recovery import RecoveryPolicy, snapshot_replay
    from repro.workloads.generative import generative_by_name, \
        sample_gen_requests

    t0 = time.perf_counter()
    first = llm_sweep(seed=5, chips=(TPUV4I,), duration_s=0.5)
    llm_sweep_s = time.perf_counter() - t0
    repeat = llm_sweep(seed=5, chips=(TPUV4I,), duration_s=0.5)

    spec = generative_by_name("llm0")
    point = shared_design_point(TPUV4I)
    prefill_s = point.latency_s(spec.prefill(spec.prompt_buckets[0]), 1)
    decode_s = point.latency_s(spec.decode(spec.kv_buckets[0]), 1)

    # Zero-checkpoint, zero-fault identity: the PR 10 contract that a
    # do-nothing RecoveryPolicy cannot perturb a single float.
    table = phase_latency_table(point, spec, spec.default_slots)
    requests = sample_gen_requests(spec, 11, 200.0, 0.3)
    plain_sim = ContinuousBatchingSimulator(point, spec)
    plain_sim.seed_latencies(table)
    zero_sim = ContinuousBatchingSimulator(
        point, spec, recovery=RecoveryPolicy(checkpoint_every=0))
    zero_sim.seed_latencies(table)
    zero_ckpt_identical = (plain_sim.simulate(requests)
                           == zero_sim.simulate(requests))

    # Snapshot pricing flows through the replay's traffic ledger.
    replayed = snapshot_replay(point, spec, spec.kv_buckets[0], 1)
    ledger = dict(replayed.counters.bytes_by_level)
    kv_bytes = spec.kv_cache_bytes(spec.kv_buckets[0], 1)
    snapshot_ledger = (ledger.get("hbm") == kv_bytes
                       and ledger.get("host") == kv_bytes
                       and replayed.seconds > 0)

    # Chaos: mid-step kills plus a permanent core death on a 2-core
    # chip. Checkpoint + migrate must strictly beat scratch re-prefill
    # on goodput AND served-request availability.
    t0 = time.perf_counter()
    chaos = llm_chaos_sweep(seed=5, models=("llm0",), chips=(TPUV3,),
                            duration_s=0.5, checkpoint_every=8)
    llm_chaos_s = time.perf_counter() - t0
    chaos_repeat = llm_chaos_sweep(seed=5, models=("llm0",), chips=(TPUV3,),
                                   duration_s=0.5, checkpoint_every=8)
    by_key = {(r.scenario, r.policy.startswith("ckpt")): r.stats
              for r in chaos}
    kill_scratch = by_key[("kill", False)]
    kill_ckpt = by_key[("kill", True)]
    outage_scratch = by_key[("outage", False)]
    outage_ckpt = by_key[("outage", True)]
    goodput_gain = (kill_ckpt.goodput_fraction
                    > kill_scratch.goodput_fraction)
    served_gain = (outage_ckpt.served_requests
                   > outage_scratch.served_requests)

    return {
        "llm_sweep_s": round(llm_sweep_s, 4),
        "llm_rows": len(first),
        "llm_determinism": first == repeat,
        "llm_decode_memory_bound": all(
            row.decode_memory_bound for row in first),
        "llm_phase_split": prefill_s != decode_s,
        "llm_tokens": sum(row.stats.tokens_generated for row in first),
        "llm_zero_ckpt_identical": zero_ckpt_identical,
        "llm_snapshot_ledger": snapshot_ledger,
        "llm_chaos_s": round(llm_chaos_s, 4),
        "llm_chaos_rows": len(chaos),
        "llm_chaos_determinism": chaos == chaos_repeat,
        "llm_recovery_goodput_gain": goodput_gain,
        "llm_recovery_served_gain": served_gain,
        "llm_kill_goodput_scratch": round(kill_scratch.goodput_fraction, 4),
        "llm_kill_goodput_ckpt": round(kill_ckpt.goodput_fraction, 4),
        "llm_outage_served_scratch": outage_scratch.served_requests,
        "llm_outage_served_ckpt": outage_ckpt.served_requests,
        "llm_migrated": outage_ckpt.migrated_requests,
    }


def run_engine_benchmark(workers: Optional[int] = None,
                         app_names: Optional[Sequence[str]] = None,
                         ) -> dict:
    """Time the default DSE sweep serial/parallel/warm/fast; return the record.

    ``workers=None`` sizes the parallel phase from CPU affinity
    (:func:`available_workers`) instead of a hardcoded count, so the
    recorded numbers reflect what the machine can actually deliver.
    """
    from repro.core.design_point import clear_shared_design_points
    from repro.core.dse import DEFAULT_DSE_APPS, enumerate_candidates
    from repro.engine.sweeps import evaluate_candidates

    if workers is None:
        workers = available_workers()
    if workers < 1:
        raise ValueError("workers must be >= 1")
    apps = tuple(app_names) if app_names is not None else DEFAULT_DSE_APPS
    grid = enumerate_candidates()

    # Benchmark against a private, memory-only cache so ambient state
    # (a user's REPRO_CACHE_DIR) cannot contaminate the cold timings.
    previous = set_cache(EvalCache())
    try:
        clear_lowered()
        t0 = time.perf_counter()
        serial_legacy = _sweep_serial_legacy(grid, apps)
        serial_cold_s = time.perf_counter() - t0

        # Engine, serial, cold result + lowered caches. The grid kernel
        # is opted out so this stays the per-point reference the grid
        # phase below is measured against.
        set_cache(EvalCache())
        clear_modules()
        clear_lowered()
        clear_shared_design_points()
        t0 = time.perf_counter()
        with gridsim_disabled():
            engine_serial = evaluate_candidates(grid, apps, workers=1)
        engine_serial_cold_s = time.perf_counter() - t0

        # Engine, parallel, cold result cache. The sweeper itself decides
        # whether fan-out pays (affinity-capped), so on a 1-CPU box this
        # degrades to the serial path instead of regressing below it.
        set_cache(EvalCache())
        clear_modules()
        clear_lowered()
        clear_shared_design_points()
        t0 = time.perf_counter()
        parallel = evaluate_candidates(grid, apps, workers=workers)
        parallel_cold_s = time.perf_counter() - t0

        # Warm: same sweep against the now-populated cache, serially (the
        # point is cache speed, not pool speed). Fresh design points force
        # every lookup through the engine cache.
        clear_shared_design_points()
        cache = get_cache()
        t0 = time.perf_counter()
        warm = evaluate_candidates(grid, apps, workers=1)
        warm_s = time.perf_counter() - t0

        # Simulation path alone: interpreter vs cold lowering + replay.
        clear_shared_design_points()
        sim_record = _bench_sim_path(grid, apps)

        # Fault injection: seeded sweep cost + bit-identity contracts.
        clear_shared_design_points()
        fault_record = _bench_faults(apps)

        # Observability: metrics on/off identity + disabled-guard cost.
        obs_record = _bench_observability(apps)

        # Cluster resilience: chaos sweep cost + passthrough identity.
        clear_shared_design_points()
        cluster_record = _bench_cluster(apps)

        # Pod sharding: chaos sweep cost + 1-chip slice identity.
        clear_shared_design_points()
        pod_record = _bench_pod(apps)

        # Grid kernel: batched-vs-per-point replay + end-to-end sweep.
        clear_shared_design_points()
        grid_record = _bench_grid(apps)

        # Serving-replay kernel: chaos sweep at 10x volume vs events.
        clear_shared_design_points()
        fastserve_record = _bench_fastserve(apps)

        # Generative serving: continuous-batching sweep + roofline claim.
        clear_shared_design_points()
        llm_record = _bench_llm()

        deterministic = (serial_legacy == engine_serial == parallel == warm)
        stats = cache.stats
        record = {
            "benchmark": "engine_dse_sweep",
            "grid_size": len(grid),
            "apps": list(apps),
            "workers": workers,
            "available_cpus": available_workers(),
            "platform": platform.platform(),
            "serial_cold_s": round(serial_cold_s, 4),
            "engine_serial_cold_s": round(engine_serial_cold_s, 4),
            "parallel_cold_s": round(parallel_cold_s, 4),
            "warm_s": round(warm_s, 4),
            "speedup_parallel_vs_serial": round(
                serial_cold_s / parallel_cold_s, 2),
            "speedup_parallel_vs_engine_serial": round(
                engine_serial_cold_s / parallel_cold_s, 2),
            "speedup_warm_vs_cold": round(serial_cold_s / warm_s, 2),
            "deterministic": deterministic,
            **sim_record,
            **fault_record,
            **obs_record,
            **cluster_record,
            **pod_record,
            **grid_record,
            **fastserve_record,
            **llm_record,
            "cache": {
                "entries": cache.entry_count(),
                "bytes": cache.size_bytes(),
                **stats.as_dict(),
            },
        }
        return record
    finally:
        set_cache(previous)
        clear_modules()
        clear_lowered()
        clear_grid_kernel()
        clear_shared_design_points()


def write_benchmark(record: dict,
                    path: str = DEFAULT_OUTPUT) -> Path:
    """Persist a benchmark record as pretty-printed JSON."""
    out = Path(path)
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return out


def render_benchmark(record: dict) -> str:
    """A human-readable summary of a benchmark record."""
    lines = [
        f"engine benchmark: {record['grid_size']}-candidate DSE grid x "
        f"{len(record['apps'])} apps "
        f"({record['workers']} workers, {record['available_cpus']} CPUs)",
        f"  serial cold (pre-engine): {record['serial_cold_s']:.3f} s",
        f"  engine serial cold:       {record['engine_serial_cold_s']:.3f} s",
        f"  parallel cold:            {record['parallel_cold_s']:.3f} s "
        f"({record['speedup_parallel_vs_serial']:.2f}x vs pre-engine, "
        f"{record['speedup_parallel_vs_engine_serial']:.2f}x vs engine "
        "serial)",
        f"  warm cache:               {record['warm_s']:.3f} s "
        f"({record['speedup_warm_vs_cold']:.0f}x vs serial cold)",
        f"  sim path ({record['sim_programs']} programs): interpreter "
        f"{record['interp_cold_s']:.3f} s, lower+replay "
        f"{record['fast_cold_s']:.3f} s "
        f"({record['speedup_fast_vs_interp']:.2f}x, identical: "
        f"{record['fast_sim_identical']})",
        f"  faulted sweep ({record['fault_rows']} rows): "
        f"{record['faulted_sweep_s']:.3f} s, deterministic: "
        f"{record['fault_determinism']}, zero-fault identical: "
        f"{record['zero_fault_identical']}, min availability "
        f"{record['min_availability']:.1%}",
        f"  observability: off {record['obs_off_s']:.3f} s, on "
        f"{record['obs_on_s']:.3f} s, {record['obs_ops_recorded']} ops "
        f"recorded; disabled-guard bound "
        f"{record['obs_disabled_overhead_pct']:.3f}% of wall time; "
        f"identical: {record['obs_identical']}, trace deterministic: "
        f"{record['trace_deterministic']}",
        f"  cluster chaos sweep ({record['cluster_rows']} rows): "
        f"{record['cluster_sweep_s']:.3f} s, deterministic: "
        f"{record['cluster_determinism']}, passthrough identical: "
        f"{record['cluster_zero_fault_identical']}, kill-1 availability "
        f"{record['cluster_kill1_availability']:.1%}",
        f"  pod chaos sweep ({record['pod_rows']} rows): "
        f"{record['pod_sweep_s']:.3f} s, deterministic: "
        f"{record['pod_determinism']}, 1-chip slice identical: "
        f"{record['pod_identity']}, kill-1-link availability "
        f"{record['pod_kill1_link_availability']:.1%}",
        f"  grid kernel ({record['grid_points']} points): per-point "
        f"{record['grid_fast_cold_s']:.3f} s, batched "
        f"{record['grid_cold_s']:.3f} s "
        f"({record['speedup_grid_vs_fast']:.2f}x, identical: "
        f"{record['grid_identical']})",
        f"  grid sweep ({record['grid_sweep_points']} points): engine "
        f"serial {record['grid_sweep_serial_s']:.3f} s, grid-routed "
        f"{record['grid_sweep_s']:.3f} s "
        f"({record['speedup_grid_vs_engine_serial']:.2f}x, identical: "
        f"{record['grid_sweep_identical']})",
        f"  serving replay ({record['serve_chaos_rows']} chaos rows, "
        f"{record['serve_requests']:,} requests): events "
        f"{record['serve_cold_s']:.3f} s, kernel "
        f"{record['serve_fast_s']:.3f} s "
        f"({record['speedup_fastserve_vs_event']:.2f}x, identical: "
        f"{record['fastserve_identical']})",
        f"  generative serving ({record['llm_rows']} rows, "
        f"{record['llm_tokens']:,} tokens): {record['llm_sweep_s']:.3f} s, "
        f"deterministic: {record['llm_determinism']}, decode memory-bound: "
        f"{record['llm_decode_memory_bound']}, phases priced separately: "
        f"{record['llm_phase_split']}",
        f"  generative recovery ({record['llm_chaos_rows']} chaos rows): "
        f"{record['llm_chaos_s']:.3f} s, deterministic: "
        f"{record['llm_chaos_determinism']}, zero-ckpt identical: "
        f"{record['llm_zero_ckpt_identical']}, snapshot ledger: "
        f"{record['llm_snapshot_ledger']}, kill goodput "
        f"{record['llm_kill_goodput_scratch']:.1%} -> "
        f"{record['llm_kill_goodput_ckpt']:.1%}, outage served "
        f"{record['llm_outage_served_scratch']} -> "
        f"{record['llm_outage_served_ckpt']} "
        f"({record['llm_migrated']} migrated)",
        f"  deterministic across modes: {record['deterministic']}",
        f"  cache: {record['cache']['entries']} entries, "
        f"{record['cache']['bytes']:,} B, "
        f"{record['cache']['hit_rate']:.0%} hit rate",
    ]
    return "\n".join(lines)

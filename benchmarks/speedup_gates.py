"""Timed speedup gates: each fast path against its reference path.

Run from the root of a checkout:

    PYTHONPATH=src python benchmarks/speedup_gates.py

Each gate times two or more *sides* of one job on fixed inputs. Every
side runs in a fresh child interpreter, in at least ``PAIRS`` rounds
that alternate the order of the sides; a child does its set-up
untimed, times one region with ``time.perf_counter`` and reports the
seconds plus a SHA-256 digest of the region's output. A gate holds
when the medians of its sides meet the bound *and* every side's
digests are equal, so each speedup is also a bit-identity check.

Gates (threshold and inputs unchanged from the retired in-process
engine bench):

* ``sim-path`` — interpreter vs one cold lowering + replay per program,
  the default DSE grid x ``DEFAULT_DSE_APPS`` at default batch: >= 2x.
* ``grid-kernel`` — per-point replay vs one batched grid-kernel pass
  over a clock x MXU x CMEM grid of 400+ (chip, app) points: >= 5x.
* ``grid-sweep`` — the candidate sweep end to end on a 200+-point grid,
  engine serial per point vs grid-routed, cold caches: >= 10x.
* ``fastserve`` — the mlp1 chaos sweep on TPUv4i at seed 5 with 5 s of
  traffic per scenario, reference event loops (``tests/oracle/``) vs
  the replay kernels: >= 5x. The kernel side prices its own latency
  tables inside the timed region; the events side reuses tables priced
  by an untimed 0.05 s warm-up sweep.
* ``metrics-off`` — a faulted serving sweep with the metrics registry
  off and on; the on side counts recording ops and times a disabled
  guard. The bound on what the disabled guards cost, recording ops x
  guard cost / metrics-off wall time, stays under 2%.
* ``dse-engine`` — the default DSE sweep four ways: pre-engine serial
  (no caches, interpreter), engine serial, engine parallel (one worker
  per available CPU) and warm cache. Warm is >= 5x cheaper than
  pre-engine serial, parallel beats pre-engine serial, and parallel is
  at most 1.25x engine serial.

Prints every side's median and quartiles and each bound's verdict;
exits 1 when any gate fails.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Alternating rounds per gate; each round runs every side once.
PAIRS = 5
#: Candidate-grid clock axis for ``grid-sweep``: 216 (chip, app) points
#: that compile once per distinct CMEM size (clock and MXU count never
#: change compiled content).
GRID_CLOCKS_GHZ = (0.85, 0.95, 1.05, 1.15, 1.25, 1.35)
#: ``grid-kernel`` doubles the clock axis: more points per program.
GRID_KERNEL_CLOCKS_GHZ = tuple(
    clock + offset for clock in GRID_CLOCKS_GHZ for offset in (0.0, 0.05))

_CHILD = ("import json, sys\n"
          "from benchmarks.speedup_gates import run_side\n"
          "print(json.dumps(run_side(sys.argv[1], sys.argv[2])))\n")


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _sim_digest(results) -> str:
    return _digest([(r.cycles, r.counters, r.report) for r in results])


def _timed(fn):
    """Run ``fn`` from a collected heap; return (seconds, output)."""
    gc.collect()
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


def _fresh_caches() -> None:
    from repro.core.design_point import clear_shared_design_points
    from repro.engine.cache import EvalCache, set_cache
    from repro.engine.lowered import clear_lowered
    from repro.engine.modules import clear_modules
    from repro.sim.gridkernel import clear_grid_kernel
    set_cache(EvalCache())
    clear_modules()
    clear_lowered()
    clear_grid_kernel()
    clear_shared_design_points()


# ------------------------------------------------------------------ sides

def _sim_path(side: str) -> dict:
    from repro.core.design_point import DesignPoint
    from repro.core.dse import DEFAULT_DSE_APPS, enumerate_candidates
    from repro.engine.cache import EvalCache
    from repro.engine.lowered import clear_lowered, lowered_cache_disabled
    from repro.workloads.models import app_by_name

    jobs = []
    for chip in enumerate_candidates():
        point = DesignPoint(chip, cache=EvalCache(enabled=False))
        for app in DEFAULT_DSE_APPS:
            spec = app_by_name(app)
            jobs.append((point.sim,
                         point.compiled(spec, spec.default_batch).program))
    if side == "interpreter":
        seconds, out = _timed(
            lambda: [sim.run_interpreted(p) for sim, p in jobs])
    else:
        clear_lowered()
        with lowered_cache_disabled():
            seconds, out = _timed(lambda: [sim.run(p) for sim, p in jobs])
    return {"s": seconds, "digest": _sim_digest(out)}


def _grid_kernel(side: str) -> dict:
    from repro.core.design_point import DesignPoint
    from repro.core.dse import DEFAULT_DSE_APPS, enumerate_candidates
    from repro.engine.cache import EvalCache
    from repro.engine.grid import compile_chip_fingerprint
    from repro.engine.lowered import clear_lowered
    from repro.sim.gridkernel import (GridPoint, clear_grid_kernel,
                                      evaluate_grid, gridsim_disabled)
    from repro.workloads.models import app_by_name

    programs: dict = {}
    points = []
    for chip in enumerate_candidates(clocks_ghz=GRID_KERNEL_CLOCKS_GHZ):
        point = DesignPoint(chip, cache=EvalCache(enabled=False))
        for app in DEFAULT_DSE_APPS:
            spec = app_by_name(app)
            key = (compile_chip_fingerprint(chip), app)
            if key not in programs:
                programs[key] = point.compiled(
                    spec, spec.default_batch).program
            points.append(GridPoint(programs[key], chip))
    clear_lowered()
    clear_grid_kernel()
    if side == "per-point":
        with gridsim_disabled():
            seconds, out = _timed(lambda: evaluate_grid(points))
    else:
        seconds, out = _timed(lambda: evaluate_grid(points))
    return {"s": seconds, "digest": _sim_digest(out)}


def _grid_sweep(side: str) -> dict:
    from repro.core.dse import DEFAULT_DSE_APPS, enumerate_candidates
    from repro.engine.sweeps import evaluate_candidates
    from repro.sim.gridkernel import gridsim_disabled

    chips = enumerate_candidates(clocks_ghz=GRID_CLOCKS_GHZ)
    _fresh_caches()
    if side == "engine-serial":
        with gridsim_disabled():
            seconds, out = _timed(lambda: evaluate_candidates(
                chips, DEFAULT_DSE_APPS, workers=1))
    else:
        seconds, out = _timed(lambda: evaluate_candidates(
            chips, DEFAULT_DSE_APPS, workers=1))
    return {"s": seconds, "digest": _digest(out)}


def _fastserve(side: str) -> dict:
    from repro.arch.chip import TPUV4I
    from repro.cluster.sweep import chaos_sweep

    def sweep(duration_s: float) -> list:
        return chaos_sweep(seed=5, apps=("mlp1",), chips=(TPUV4I,),
                           duration_s=duration_s)

    if side == "events":
        from tests.oracle import use_reference_loops
        use_reference_loops()
        sweep(0.05)  # prices every latency table the timed sweep needs
    seconds, out = _timed(lambda: sweep(5.0))
    return {"s": seconds, "digest": _digest(out)}


def _metrics_off(side: str) -> dict:
    from repro.arch.chip import TPUV4I
    from repro.faults.model import FaultModel
    from repro.faults.sweep import fault_sweep
    from repro.obs.metrics import MetricsRegistry, collecting_metrics

    model = FaultModel(seed=11, core_mtbf_s=0.25, core_repair_s=0.05)

    def sweep() -> list:
        _fresh_caches()
        return fault_sweep(model, apps=("mlp1", "cnn0"), chips=(TPUV4I,),
                           duration_s=1.0)

    if side == "off":
        seconds, out = _timed(sweep)
        return {"s": seconds, "digest": _digest(out)}
    with collecting_metrics() as registry:
        seconds, out = _timed(sweep)
        ops = registry.op_count
    # What one disabled guard costs, from a tight loop on a disabled
    # registry (a few hundred boolean checks inside a multi-second run
    # are too cheap to time directly).
    probe = MetricsRegistry(enabled=False)
    loops = 200_000
    start = time.perf_counter()
    for _ in range(loops):
        probe.count("probe")
    guard_s = (time.perf_counter() - start) / loops
    return {"s": seconds, "digest": _digest(out), "ops": ops,
            "guard_s": guard_s}


def _dse_engine(side: str) -> dict:
    from repro.core.dse import (DEFAULT_DSE_APPS, enumerate_candidates,
                                evaluate_candidate)
    from repro.engine.cache import get_cache
    from repro.engine.modules import module_cache_disabled
    from repro.engine.parallel import available_workers
    from repro.engine.sweeps import evaluate_candidates
    from repro.sim.gridkernel import gridsim_disabled
    from repro.sim.lowered import fastsim_disabled

    grid = enumerate_candidates()
    apps = DEFAULT_DSE_APPS
    _fresh_caches()
    if side == "pre-engine":
        get_cache().disable()
        with module_cache_disabled(), fastsim_disabled():
            seconds, out = _timed(
                lambda: [evaluate_candidate(chip, apps) for chip in grid])
    elif side == "engine-serial":
        with gridsim_disabled():
            seconds, out = _timed(
                lambda: evaluate_candidates(grid, apps, workers=1))
    elif side == "parallel":
        seconds, out = _timed(lambda: evaluate_candidates(
            grid, apps, workers=available_workers()))
    else:  # warm: a second sweep against the populated result cache
        from repro.core.design_point import clear_shared_design_points
        evaluate_candidates(grid, apps, workers=1)
        clear_shared_design_points()
        seconds, out = _timed(
            lambda: evaluate_candidates(grid, apps, workers=1))
    return {"s": seconds, "digest": _digest(out)}


def _ratio(slow: str, fast: str, least: float):
    return (f"{slow} / {fast} >= {least:g}",
            lambda m, **_: (m[slow] / m[fast], m[slow] / m[fast] >= least))


def _guard_pct(m, runs):
    pcts = [100.0 * on["ops"] * on["guard_s"] / off["s"]
            for off, on in zip(runs["off"], runs["on"])]
    pct = statistics.median(pcts)
    return pct, pct < 2.0


#: gate -> (side runner, side names, bounds). A bound is (label, check)
#: where check maps {side: median seconds} (and every run's report) to
#: (value, holds).
GATES = {
    "sim-path": (_sim_path, ("interpreter", "replay"),
                 [_ratio("interpreter", "replay", 2.0)]),
    "grid-kernel": (_grid_kernel, ("per-point", "grid"),
                    [_ratio("per-point", "grid", 5.0)]),
    "grid-sweep": (_grid_sweep, ("engine-serial", "grid"),
                   [_ratio("engine-serial", "grid", 10.0)]),
    "fastserve": (_fastserve, ("events", "kernel"),
                  [_ratio("events", "kernel", 5.0)]),
    "metrics-off": (_metrics_off, ("off", "on"),
                    [("disabled-guard cost % of metrics-off time < 2",
                      _guard_pct)]),
    "dse-engine": (_dse_engine,
                   ("pre-engine", "engine-serial", "parallel", "warm"),
                   [_ratio("pre-engine", "warm", 5.0),
                    ("parallel < pre-engine",
                     lambda m, **_: (m["parallel"] / m["pre-engine"],
                                     m["parallel"] < m["pre-engine"])),
                    ("parallel <= 1.25 x engine-serial",
                     lambda m, **_: (m["parallel"] / m["engine-serial"],
                                     m["parallel"]
                                     <= 1.25 * m["engine-serial"]))]),
}


def run_side(gate: str, side: str) -> dict:
    """One side of one gate, in this (fresh) interpreter."""
    return GATES[gate][0](side)


# ------------------------------------------------------- parent process

def _child(gate: str, side: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH"))
        if p)
    proc = subprocess.run([sys.executable, "-c", _CHILD, gate, side],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{gate}/{side} child failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_gate(gate: str) -> bool:
    _, sides, bounds = GATES[gate]
    runs: dict = {side: [] for side in sides}
    for round_ in range(PAIRS):
        for side in (sides if round_ % 2 == 0 else sides[::-1]):
            runs[side].append(_child(gate, side))
    medians = {}
    ok = True
    print(f"{gate}:")
    for side in sides:
        seconds = [run["s"] for run in runs[side]]
        medians[side] = statistics.median(seconds)
        q1, _, q3 = statistics.quantiles(seconds, n=4)
        print(f"  {side:<14} median {medians[side]:.4f} s "
              f"[q1 {q1:.4f}, q3 {q3:.4f}] over {len(seconds)} runs")
    digests = {run["digest"] for side in sides for run in runs[side]}
    identical = len(digests) == 1
    ok &= identical
    print(f"  outputs identical across sides and runs: {identical}")
    for label, check in bounds:
        value, holds = check(medians, runs=runs)
        ok &= holds
        print(f"  {label}: {value:.3f} -> {'PASS' if holds else 'FAIL'}")
    return ok


def main() -> int:
    if len(sys.argv) > 1:
        print("usage: PYTHONPATH=src python benchmarks/speedup_gates.py "
              "(takes no arguments)", file=sys.stderr)
        return 2
    from repro.engine.parallel import available_workers
    print(f"{PAIRS} alternating rounds per gate, one fresh interpreter "
          f"per side per round; {available_workers()} CPUs")
    failed = [gate for gate in GATES if not run_gate(gate)]
    if failed:
        print(f"FAILED: {', '.join(failed)}")
        return 1
    print("all gates pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())

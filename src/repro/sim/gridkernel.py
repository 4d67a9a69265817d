"""Vectorized grid-replay kernel: one batched pass over many candidates.

:class:`~repro.sim.lowered.FastReplay` already makes a single (chip,
program) evaluation cheap, but a DSE sweep replays *grids*: the same few
compiled programs against dozens of chip variants that differ only in
clock, MXU count, or CMEM provisioning. The per-point path re-lowers and
re-replays every pair. This module factors one program's replay into the
pieces that actually vary across a grid and shares everything else:

* **structure** (:func:`_build_struct`) — one columnar pass per distinct
  ``Program.signature()``: numpy position/shape tables for MXU and VPU
  rows, the short list of *hard* rows (``sync.wait`` / ``sync.set`` /
  DMA — the only rows that move the issue cursor or touch flags), bundle
  run-lengths between them, and the structure-constant totals (MACs,
  scalar ops, VMEM elements, DMA bytes per level). Real programs have
  tens of hard rows among thousands;
* **pricing** (per ``(signature, unit geometry)``) — MXU/VPU cycle costs
  gathered from grid-wide per-shape memos, so a shape is priced once per
  geometry for the whole grid, not once per point;
* **scan** (per ``(signature, DMA/clock configuration)``) — a sequential
  pass over the hard rows only, reproducing the replay loop's exact
  integer/float expressions for bundle ratchets, sync stalls, and DMA
  engine pools.

Unit finish times are then reconstructed in closed form: the issue cycle
at every MXU/VPU row is a gather over the scan's per-hard-row state plus
a bundle run-length offset, and a busy unit's final free time is
``max(issue_i + suffix_cost_i)`` — the max-plus form of the sequential
recurrence. Per-point dtype scaling is a byte multiplier, exactly as in
replay. The result is **bit-identical** to per-point
:class:`FastReplay` (the reference; asserted in ``tests/test_gridsim.py``
and ``tests/test_differential.py``; ``benchmarks/speedup_gates.py``
times the two).

Inside a :func:`gridsim_disabled` block :func:`evaluate_grid` runs the
per-point replay loop, the reference. The same fallback covers a missing
numpy and the (theoretical) program whose vector-ALU float accumulation
the batched integer sum cannot reproduce exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.chip import ChipConfig
from repro.arch.memory import MemorySystem
from repro.arch.mxu import MxuModel
from repro.arch.vpu import VpuModel
from repro.isa.instructions import LEVEL_NAMES, Opcode, VECTOR_OP_CLASS
from repro.isa.program import Program
from repro.sim.lowered import DMA_OVERHEAD_CYCLES, ENGINES_PER_LEVEL
from repro.sim.perf import PerfCounters, build_report
from repro.util.switch import PathSwitch

try:
    import numpy as np
except ImportError:  # pragma: no cover - numpy is baked into the image
    np = None

#: Float vector-ALU totals above this are not guaranteed to match the
#: interpreter's sequential accumulation bit for bit (every partial sum
#: must be an exactly-representable multiple of 0.5).
_ALU_EXACT_LIMIT = 2 ** 52

# Hard-row types (the only rows the sequential scan must visit).
_H_WAIT = 0
_H_SET = 1
_H_DMA = 2

_GRIDSIM = PathSwitch()
#: Whether grid evaluation uses the batched kernel (vs per-point).
gridsim_enabled = _GRIDSIM.enabled
#: Force per-point replay (reference timings, benchmarks).
gridsim_disabled = _GRIDSIM.disabled


# ------------------------------------------------------------------- stats

@dataclass
class GridKernelStats:
    """Work the kernel actually did (vs shared) across a process."""

    batches: int = 0           # evaluate_grid calls that ran batched
    points: int = 0            # grid points requested
    structs: int = 0           # columnar structure tables built
    pricings: int = 0          # (structure, unit-geometry) pricing passes
    scans: int = 0             # (structure, DMA/clock) hard-row scans
    fallback_points: int = 0   # points evaluated by per-point replay


_STATS = GridKernelStats()


def grid_kernel_stats() -> GridKernelStats:
    return _STATS


# ------------------------------------------------------------------ points

@dataclass(frozen=True)
class GridPoint:
    """One (program, chip, dtype) evaluation in a batched grid."""

    program: Program
    chip: ChipConfig
    dtype: str = "bf16"


# ----------------------------------------------------------- chip grouping

@dataclass(frozen=True)
class _ChipInfo:
    """Everything replay derives from the chip, pre-split by role."""

    level_names: tuple
    pool_levels: tuple
    pool_set: frozenset
    mxu_key: tuple             # (mxu_dim, mxus_per_core)
    vpu_key: tuple             # (vpu_lanes, vpu_sublanes)
    scan_key: tuple            # (pool_levels, bandwidths, latencies, clock)
    bandwidths: tuple
    latencies: tuple
    clock_hz: float


_CHIP_INFO: Dict[ChipConfig, _ChipInfo] = {}


def _chip_info(chip: ChipConfig) -> _ChipInfo:
    info = _CHIP_INFO.get(chip)
    if info is None:
        memory = MemorySystem(chip)
        level_names = tuple(level.name for level in memory.levels())
        pool_levels = tuple(n for n in level_names if n != "vmem")
        bandwidths = tuple(memory.level(n).bandwidth for n in pool_levels)
        latencies = tuple(memory.level(n).latency_cycles
                          for n in pool_levels)
        info = _ChipInfo(
            level_names=level_names,
            pool_levels=pool_levels,
            pool_set=frozenset(pool_levels),
            mxu_key=(chip.mxu_dim, chip.mxus_per_core),
            vpu_key=(chip.vpu_lanes, chip.vpu_sublanes),
            scan_key=(pool_levels, bandwidths, latencies, chip.clock_hz),
            bandwidths=bandwidths,
            latencies=latencies,
            clock_hz=chip.clock_hz,
        )
        _CHIP_INFO[chip] = info
    return info


# -------------------------------------------------------------- structure

@dataclass
class _Struct:
    """One program's replay-relevant structure, chip-independent.

    MXU/VPU rows carry (preceding hard-row index, bundle run-length) so
    their issue cycles can be reconstructed from any scan's per-hard-row
    state; hard rows carry the bundle run-length *before* them so the
    scan can apply bundle ratchets in closed form.
    """

    name: str
    generation: int
    n_flags: int
    bundles: int               # bundle markers before HALT
    tail_bundles: int          # bundles after the last hard row
    scalar_ops: int
    macs: int                  # structure constant: sum of m*k*n
    vmem_elements: int         # structure constant: MXM + vector elements
    dma_bytes: Dict[str, int]  # structure constant: DMA bytes per level
    dma_levels: tuple          # distinct DMA levels, first-occurrence order
    shapes: tuple              # unique MXM (m, k, n)
    vecops: tuple              # unique vector ops, as pricing descriptors
    # Per-MXU-row columns (includes mxm.loadw/transpose as fixed costs):
    mxu_shape: "np.ndarray"    # index into shapes, -1 for fixed-cost rows
    mxu_fixed: "np.ndarray"    # cycles for fixed rows, 0 otherwise
    mxu_hidx: "np.ndarray"     # preceding hard-row index (-1: none)
    mxu_b: "np.ndarray"        # bundles since that hard row
    # Per-VPU-row columns:
    vec_id: "np.ndarray"       # index into vecops
    vec_hidx: "np.ndarray"
    vec_b: "np.ndarray"
    # Hard rows (parallel lists; tiny):
    h_type: list               # _H_WAIT / _H_SET / _H_DMA
    h_arg: list                # flag id (wait/set) or bytes (dma)
    h_flag: list               # dma completion flag (0 otherwise)
    h_level: list              # dma level name (None otherwise)
    h_nb: list                 # bundles since the previous hard row
    # Derived caches, filled lazily per chip grouping:
    mxu_priced: dict = field(default_factory=dict)
    vpu_priced: dict = field(default_factory=dict)
    scans: dict = field(default_factory=dict)
    issues: dict = field(default_factory=dict)   # scan_key -> (I_mxu, I_vec)
    finals: dict = field(default_factory=dict)   # (unit, price, scan) -> int
    pool_ids: dict = field(default_factory=dict)  # pool_levels -> list


_STRUCTS: Dict[tuple, _Struct] = {}

# Grid-wide per-shape pricing memos (Tentpole: priced once per geometry
# across the whole grid, not once per point).
_MXM_PRICE: Dict[tuple, int] = {}            # (mxu_key, (m,k,n)) -> cycles
_VEC_PRICE: Dict[tuple, tuple] = {}          # (vpu_key, vecop) -> (cyc, alu2)
_MXU_MODELS: Dict[tuple, MxuModel] = {}
_VPU_MODELS: Dict[tuple, VpuModel] = {}


def clear_grid_kernel() -> None:
    """Drop every kernel cache and zero the stats (tests, cold benches)."""
    global _STATS
    _STRUCTS.clear()
    _MXM_PRICE.clear()
    _VEC_PRICE.clear()
    _MXU_MODELS.clear()
    _VPU_MODELS.clear()
    _CHIP_INFO.clear()
    _STATS = GridKernelStats()


def _build_struct(program: Program) -> _Struct:
    """One columnar pass over the program (mirrors ``lower_program``'s
    row emission exactly, including static truncation at HALT)."""
    shapes: Dict[tuple, int] = {}
    vecops: Dict[tuple, int] = {}
    mxu_shape: List[int] = []
    mxu_fixed: List[int] = []
    mxu_hidx: List[int] = []
    mxu_b: List[int] = []
    vec_id: List[int] = []
    vec_hidx: List[int] = []
    vec_b: List[int] = []
    h_type: List[int] = []
    h_arg: List[int] = []
    h_flag: List[int] = []
    h_level: List[Optional[str]] = []
    h_nb: List[int] = []
    dma_bytes: Dict[str, int] = {}
    dma_levels: List[str] = []

    n_flags = 0
    bundles = 0
    scalar_ops = 0
    macs = 0
    vmem_elements = 0
    last_hard = -1
    bundles_at_last_hard = 0
    halted = False

    for bundle in program.bundles:
        if halted:
            break
        bundles += 1
        for inst in bundle.instructions:
            op = inst.opcode
            if op is Opcode.MXM:
                shape_id = shapes.setdefault(inst.args, len(shapes))
                m, k, n = inst.args
                macs += m * k * n
                vmem_elements += m * k + k * n + m * n
                mxu_shape.append(shape_id)
                mxu_fixed.append(0)
                mxu_hidx.append(last_hard)
                mxu_b.append(bundles - bundles_at_last_hard)
            elif op in VECTOR_OP_CLASS:
                if op is Opcode.VREDUCE:
                    elements, axis_len = inst.args
                    descriptor = ("reduce", elements, max(1, axis_len))
                else:
                    descriptor = ("elementwise", VECTOR_OP_CLASS[op],
                                  inst.args[0])
                    elements = inst.args[0]
                vec_id.append(vecops.setdefault(descriptor, len(vecops)))
                vmem_elements += 2 * elements
                vec_hidx.append(last_hard)
                vec_b.append(bundles - bundles_at_last_hard)
            elif op is Opcode.DMA_IN or op is Opcode.DMA_OUT:
                level_name = LEVEL_NAMES[inst.args[0]]
                flag = inst.args[2]
                if flag >= n_flags:
                    n_flags = flag + 1
                if level_name not in dma_bytes:
                    dma_bytes[level_name] = 0
                    dma_levels.append(level_name)
                dma_bytes[level_name] += inst.args[1]
                h_type.append(_H_DMA)
                h_arg.append(inst.args[1])
                h_flag.append(flag)
                h_level.append(level_name)
                h_nb.append(bundles - bundles_at_last_hard)
                bundles_at_last_hard = bundles
                last_hard += 1
            elif op is Opcode.SYNC_WAIT or op is Opcode.SYNC_SET:
                flag = inst.args[0]
                if flag >= n_flags:
                    n_flags = flag + 1
                h_type.append(_H_WAIT if op is Opcode.SYNC_WAIT else _H_SET)
                h_arg.append(flag)
                h_flag.append(0)
                h_level.append(None)
                h_nb.append(bundles - bundles_at_last_hard)
                bundles_at_last_hard = bundles
                last_hard += 1
            elif op is Opcode.MXM_LOADW or op is Opcode.MXM_TRANSPOSE:
                mxu_shape.append(-1)
                mxu_fixed.append(max(1, inst.args[0]))
                mxu_hidx.append(last_hard)
                mxu_b.append(bundles - bundles_at_last_hard)
            elif op is Opcode.HALT:
                halted = True
                break
            else:
                scalar_ops += 1

    as_i64 = lambda xs: np.asarray(xs, dtype=np.int64)  # noqa: E731
    return _Struct(
        name=program.name,
        generation=program.generation,
        n_flags=n_flags,
        bundles=bundles,
        tail_bundles=bundles - bundles_at_last_hard,
        scalar_ops=scalar_ops,
        macs=macs,
        vmem_elements=vmem_elements,
        dma_bytes=dma_bytes,
        dma_levels=tuple(dma_levels),
        shapes=tuple(shapes),
        vecops=tuple(vecops),
        mxu_shape=as_i64(mxu_shape),
        mxu_fixed=as_i64(mxu_fixed),
        mxu_hidx=as_i64(mxu_hidx),
        mxu_b=as_i64(mxu_b),
        vec_id=as_i64(vec_id),
        vec_hidx=as_i64(vec_hidx),
        vec_b=as_i64(vec_b),
        h_type=h_type,
        h_arg=h_arg,
        h_flag=h_flag,
        h_level=h_level,
        h_nb=h_nb,
    )


# ---------------------------------------------------------------- pricing

@dataclass(frozen=True)
class _Priced:
    """Per-(structure, unit-geometry) cycle costs for one unit."""

    suffix: Optional["np.ndarray"]   # suffix_i = sum of costs from row i on
    busy: int                        # total busy cycles (sum of costs)
    alu2_total: Optional[int]        # VPU only: 2 * vector_alu_ops (exact)


def _mxu_priced(struct: _Struct, info: _ChipInfo) -> _Priced:
    priced = struct.mxu_priced.get(info.mxu_key)
    if priced is not None:
        return priced
    model = _MXU_MODELS.get(info.mxu_key)
    shape_cycles = []
    for shape in struct.shapes:
        key = (info.mxu_key, shape)
        cycles = _MXM_PRICE.get(key)
        if cycles is None:
            if model is None:
                raise RuntimeError("pricing a struct with no chip seen")
            cycles = model.matmul(*shape).cycles
            _MXM_PRICE[key] = cycles
        shape_cycles.append(cycles)
    if struct.mxu_shape.size:
        table = np.asarray(shape_cycles + [0], dtype=np.int64)
        costs = np.where(struct.mxu_shape >= 0, table[struct.mxu_shape],
                         struct.mxu_fixed)
        suffix = np.cumsum(costs[::-1])[::-1]
        priced = _Priced(suffix=suffix, busy=int(costs.sum()),
                         alu2_total=None)
    else:
        priced = _Priced(suffix=None, busy=0, alu2_total=None)
    struct.mxu_priced[info.mxu_key] = priced
    _STATS.pricings += 1
    return priced


def _vpu_priced(struct: _Struct, info: _ChipInfo) -> _Priced:
    priced = struct.vpu_priced.get(info.vpu_key)
    if priced is not None:
        return priced
    model = _VPU_MODELS.get(info.vpu_key)
    cycles_table = []
    alu2_table: List[Optional[int]] = []
    for vecop in struct.vecops:
        key = (info.vpu_key, vecop)
        entry = _VEC_PRICE.get(key)
        if entry is None:
            if model is None:
                raise RuntimeError("pricing a struct with no chip seen")
            if vecop[0] == "reduce":
                timing = model.reduction(vecop[1], vecop[2])
            else:
                timing = model.elementwise(vecop[1], vecop[2])
            alu2 = timing.alu_ops * 2.0
            # The replay accumulates alu_ops as sequential float adds; a
            # doubled-integer sum reproduces it exactly only when every
            # term is a representable multiple of 0.5.
            exact = (alu2 == int(alu2) and abs(alu2) <= _ALU_EXACT_LIMIT)
            entry = (timing.cycles, int(alu2) if exact else None)
            _VEC_PRICE[key] = entry
        cycles_table.append(entry[0])
        alu2_table.append(entry[1])
    if struct.vec_id.size:
        if any(a is None for a in alu2_table):
            priced = _Priced(suffix=None, busy=0, alu2_total=None)
            struct.vpu_priced[info.vpu_key] = priced
            return priced
        costs = np.asarray(cycles_table, dtype=np.int64)[struct.vec_id]
        alu2 = np.asarray(alu2_table, dtype=np.int64)[struct.vec_id]
        total_alu2 = int(alu2.sum())
        if total_alu2 > _ALU_EXACT_LIMIT:
            priced = _Priced(suffix=None, busy=0, alu2_total=None)
        else:
            suffix = np.cumsum(costs[::-1])[::-1]
            priced = _Priced(suffix=suffix, busy=int(costs.sum()),
                             alu2_total=total_alu2)
    else:
        priced = _Priced(suffix=None, busy=0, alu2_total=0)
    struct.vpu_priced[info.vpu_key] = priced
    _STATS.pricings += 1
    return priced


# ------------------------------------------------------------------- scan

@dataclass(frozen=True)
class _Scan:
    """Sequential state from one pass over the hard rows."""

    issue_end: int
    sync_stall: int
    dma_end: int
    flag_max: int
    dma_busy: int
    issue_h: list              # issue cycle after each hard row
    bi_h: list                 # last bundle's issue cycle after each row


def _pool_ids(struct: _Struct, info: _ChipInfo) -> list:
    ids = struct.pool_ids.get(info.pool_levels)
    if ids is None:
        index = {name: i for i, name in enumerate(info.pool_levels)}
        ids = [index[level] if level is not None else -1
               for level in struct.h_level]
        struct.pool_ids[info.pool_levels] = ids
    return ids


def _scan(struct: _Struct, info: _ChipInfo) -> _Scan:
    scan = struct.scans.get(info.scan_key)
    if scan is not None:
        return scan
    pool_ids = _pool_ids(struct, info)
    bandwidths = info.bandwidths
    latencies = info.latencies
    clock_hz = info.clock_hz
    overhead = DMA_OVERHEAD_CYCLES
    ceil = math.ceil

    flags = [0] * struct.n_flags
    busy = [[0] * ENGINES_PER_LEVEL for _ in info.pool_levels]
    issue = 0
    bi = -1                    # last bundle's issue cycle (-1: none yet)
    stall = 0
    dma_busy = 0
    issue_h: List[int] = []
    bi_h: List[int] = []

    for i, h_type in enumerate(struct.h_type):
        nb = struct.h_nb[i]
        if nb:
            # nb consecutive bundle markers with no issue change between
            # them collapse to one ratchet plus nb-1 increments (the
            # first-ever marker has bi == -1, so the ratchet is a no-op —
            # exactly replay's ``in_bundle`` special case).
            nxt = bi + 1
            if nxt > issue:
                issue = nxt
            issue += nb - 1
            bi = issue
        if h_type == _H_DMA:
            pool = busy[pool_ids[i]]
            best = 0
            best_free = pool[0]
            for engine in range(1, ENGINES_PER_LEVEL):
                free_at = pool[engine]
                if free_at < best_free:
                    best = engine
                    best_free = free_at
            active = 0
            for free_at in pool:
                if free_at > issue:
                    active += 1
            contention = active if active > 1 else 1
            # Exact expression from DmaEngine.issue (bit-identity).
            streaming_s = struct.h_arg[i] * contention / bandwidths[pool_ids[i]]
            duration = (overhead + latencies[pool_ids[i]]
                        + ceil(streaming_s * clock_hz))
            start = best_free if best_free > issue else issue
            end = start + duration
            pool[best] = end
            flags[struct.h_flag[i]] = end
            dma_busy += duration
        elif h_type == _H_WAIT:
            target = flags[struct.h_arg[i]]
            if target > issue:
                stall += target - issue
                issue = target
        else:  # _H_SET
            flags[struct.h_arg[i]] = issue
        issue_h.append(issue)
        bi_h.append(bi)

    if struct.tail_bundles:
        nxt = bi + 1
        if nxt > issue:
            issue = nxt
        issue += struct.tail_bundles - 1
        bi = issue
    if struct.bundles:                    # replay's trailing ratchet
        nxt = bi + 1
        if nxt > issue:
            issue = nxt

    scan = _Scan(
        issue_end=issue,
        sync_stall=stall,
        dma_end=max((f for pool in busy for f in pool), default=0),
        flag_max=max(flags, default=0),
        dma_busy=dma_busy,
        issue_h=issue_h,
        bi_h=bi_h,
    )
    struct.scans[info.scan_key] = scan
    _STATS.scans += 1
    return scan


def _issue_at_rows(struct: _Struct, info: _ChipInfo, scan: _Scan) -> tuple:
    """Issue cycle at every MXU row and every VPU row under ``scan``.

    A unit row's issue cycle is the issue after its preceding hard row,
    advanced by the bundle markers in between: 0 markers leave it, b
    markers ratchet once off the last bundle and add b-1.
    """
    cached = struct.issues.get(info.scan_key)
    if cached is not None:
        return cached
    # Sentinel slot 0 encodes "no preceding hard row": issue 0, bi -1.
    issue_h = np.asarray([0] + scan.issue_h, dtype=np.int64)
    bi_h = np.asarray([-1] + scan.bi_h, dtype=np.int64)

    def reconstruct(hidx, b):
        if not hidx.size:
            return None
        base = issue_h[hidx + 1]
        ratchet = np.maximum(base, bi_h[hidx + 1] + 1) + b - 1
        return np.where(b == 0, base, ratchet)

    issues = (reconstruct(struct.mxu_hidx, struct.mxu_b),
              reconstruct(struct.vec_hidx, struct.vec_b))
    struct.issues[info.scan_key] = issues
    return issues


def _unit_final(struct: _Struct, unit: str, price_key: tuple,
                priced: _Priced, issues, scan_key: tuple) -> int:
    """Final free time of one pipelined unit, in max-plus closed form.

    The sequential recurrence ``free = max(free, issue_i) + cost_i``
    (``free`` starting at 0, every ``issue_i >= 0``) has final value
    ``max_i(issue_i + sum_{j>=i} cost_j)``.
    """
    key = (unit, price_key, scan_key)
    final = struct.finals.get(key)
    if final is None:
        final = int((issues + priced.suffix).max()) if issues is not None \
            else 0
        struct.finals[key] = final
    return final


# ------------------------------------------------------------- evaluation

def _replay_point(point: GridPoint):
    """Per-point reference path (shared lowered cache + FastReplay)."""
    from repro.engine.lowered import lowered_program
    from repro.sim.lowered import FastReplay
    return FastReplay(point.chip).run(
        lowered_program(point.program, point.chip), dtype=point.dtype)


def _validate(point: GridPoint) -> None:
    """The replay path's errors, raised before any batched work."""
    chip, program = point.chip, point.program
    if program.generation != chip.generation:
        raise ValueError(
            f"program was compiled for generation {program.generation}; "
            f"{chip.name} is generation {chip.generation}. "
            "Recompile (Lesson 2) rather than carrying binaries.")
    if not chip.supports_dtype(point.dtype):
        raise ValueError(f"{chip.name} does not support {point.dtype}")


def evaluate_grid(points: Sequence[GridPoint]) -> list:
    """Evaluate every point; returns ``SimResult`` objects in input order.

    Bit-identical to ``[FastReplay(p.chip).run(lower_program(p.program,
    p.chip), dtype=p.dtype) for p in points]`` — the per-point loop the
    kernel replaces — including the errors it raises and the order it
    raises them in. Falls back to exactly that loop inside a
    :func:`gridsim_disabled` block or when numpy is unavailable.
    """
    from repro.sim.core import SimResult  # local: core imports our sibling

    points = list(points)
    if not points:
        return []
    if np is None or not gridsim_enabled():
        _STATS.fallback_points += len(points)
        return [_replay_point(p) for p in points]

    _STATS.batches += 1
    _STATS.points += len(points)
    # Signature tuples hold thousands of enum members, and tuples don't
    # cache their hash — resolve each distinct program *object* against
    # the signature-keyed cache once per batch, not once per point.
    struct_by_pid: Dict[int, _Struct] = {}
    results = []
    for point in points:
        _validate(point)
        chip = point.chip
        info = _chip_info(chip)
        struct = struct_by_pid.get(id(point.program))
        if struct is None:
            sig = point.program.signature()
            struct = _STRUCTS.get(sig)
            if struct is None:
                struct = _build_struct(point.program)
                _STRUCTS[sig] = struct
                _STATS.structs += 1
            struct_by_pid[id(point.program)] = struct
        for level in struct.dma_levels:   # parity with lower_program
            if level not in info.pool_set:
                raise ValueError(
                    f"{chip.name} has no DMA path to {level!r}")
        if info.mxu_key not in _MXU_MODELS:
            _MXU_MODELS[info.mxu_key] = MxuModel(chip)
        if info.vpu_key not in _VPU_MODELS:
            _VPU_MODELS[info.vpu_key] = VpuModel(chip)

        mxu = _mxu_priced(struct, info)
        vpu = _vpu_priced(struct, info)
        if vpu.alu2_total is None:
            # Vector-ALU accumulation not exactly reproducible in batch.
            _STATS.fallback_points += 1
            results.append(_replay_point(point))
            continue
        scan = _scan(struct, info)
        issues_mxu, issues_vec = _issue_at_rows(struct, info, scan)
        f_mxu = _unit_final(struct, "mxu", info.mxu_key, mxu, issues_mxu,
                            info.scan_key)
        f_vpu = _unit_final(struct, "vpu", info.vpu_key, vpu, issues_vec,
                            info.scan_key)

        total = max(scan.issue_end, f_mxu, f_vpu, scan.dma_end,
                    scan.flag_max)
        elem_bytes = 1 if point.dtype == "int8" else 2
        counters = PerfCounters(
            cycles=max(1, int(total)),
            bundles=struct.bundles,
            macs=struct.macs,
            vector_alu_ops=vpu.alu2_total / 2.0,
            scalar_ops=struct.scalar_ops,
            mxu_busy_cycles=mxu.busy,
            vpu_busy_cycles=vpu.busy,
            dma_busy_cycles=scan.dma_busy,
            sync_stall_cycles=scan.sync_stall,
        )
        for name in info.level_names:
            if name == "vmem":
                moved = struct.vmem_elements * elem_bytes
            else:
                moved = struct.dma_bytes.get(name, 0)
            counters.add_bytes(name, float(moved))
        report = build_report(chip, struct.name, counters, point.dtype)
        results.append(SimResult(report=report, counters=counters,
                                 trace=None))
    return results

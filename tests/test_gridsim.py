"""Equivalence suite: the batched grid kernel vs per-point replay.

The bit-identity contract (DESIGN.md): evaluating a grid of (program,
chip, dtype) points through :func:`repro.sim.gridkernel.evaluate_grid`
produces *exactly* what the per-point ``FastReplay`` loop produces —
cycles, every PerfCounters field, every per-level byte count, every
error — bit for bit, for all four chip generations, every supported
dtype, and hand-built corner-case programs. On top of the kernel, the
engine wrapper (:mod:`repro.engine.grid`) must keep the cache contract:
cached points never enter a batch, computed points are stored under the
per-point keys, and a grid-routed sweep is indistinguishable from the
serial loop it replaces. ``gridsim_disabled()`` restores the per-point
path.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.arch import TPUV1, TPUV2, TPUV3, TPUV4I
from repro.compiler import compile_model
from repro.compiler.pipeline import retarget_dtype
from repro.core.design_point import DesignPoint, clear_shared_design_points
from repro.core.dse import cmem_sweep, enumerate_candidates
from repro.engine.cache import EvalCache, set_cache
from repro.engine.grid import (
    _COMPILE_IRRELEVANT,
    GridJob,
    clear_grid_stats,
    compile_chip_fingerprint,
    evaluate_jobs,
    grid_stats,
    run_grid,
)
from repro.engine.lowered import clear_lowered
from repro.isa import Bundle, Instruction, Opcode, Program
from repro.obs.metrics import collecting_metrics
from repro.sim.gridkernel import (
    GridPoint,
    clear_grid_kernel,
    evaluate_grid,
    grid_kernel_stats,
    gridsim_disabled,
    gridsim_enabled,
)
from repro.sim.lowered import FastReplay, lower_program
from repro.util.units import MIB
from repro.workloads import app_by_name

ALL_CHIPS = (TPUV1, TPUV2, TPUV3, TPUV4I)
APPS = ("mlp0", "cnn0", "rnn0")
BATCHES = (1, 8)


def _dtypes(chip):
    return tuple(d for d in ("bf16", "int8", "fp32")
                 if chip.supports_dtype(d))


def _assert_identical(reference, batched):
    """Bit-identity over cycles, every counter field, and every level."""
    assert batched.cycles == reference.cycles
    for field in dataclasses.fields(reference.counters):
        assert (getattr(batched.counters, field.name)
                == getattr(reference.counters, field.name)), field.name
    assert (batched.counters.bytes_by_level.keys()
            == reference.counters.bytes_by_level.keys())
    assert batched.counters == reference.counters
    assert batched.report == reference.report


def _replay(point: GridPoint):
    return FastReplay(point.chip).run(
        lower_program(point.program, point.chip), dtype=point.dtype)


@pytest.fixture(scope="module")
def compiled_programs():
    """{(chip.name, app, batch): (chip, program)} for the identity sweep."""
    programs = {}
    for chip in ALL_CHIPS:
        for app in APPS:
            spec = app_by_name(app)
            for batch in BATCHES:
                module = spec.build(batch)
                if not chip.supports_dtype("bf16"):  # TPUv1 is int8-only
                    module = retarget_dtype(module, "int8")
                program = compile_model(module, chip).program
                programs[(chip.name, app, batch)] = (chip, program)
    return programs


class TestBitIdentityOnWorkloads:
    def test_one_batch_matches_per_point_replay(self, compiled_programs):
        """Every (generation, app, batch, dtype) point, one kernel batch."""
        points = []
        for (_, _, _), (chip, program) in compiled_programs.items():
            for dtype in _dtypes(chip):
                points.append(GridPoint(program, chip, dtype))
        reference = [_replay(p) for p in points]
        clear_grid_kernel()
        batched = evaluate_grid(points)
        assert len(batched) == len(points)
        for ref, out in zip(reference, batched):
            _assert_identical(ref, out)
        stats = grid_kernel_stats()
        assert stats.batches == 1
        assert stats.points == len(points)
        assert stats.fallback_points == 0
        # Structure tables are shared per program, not per point.
        assert stats.structs == len(compiled_programs)

    def test_dse_variants_share_structures(self, compiled_programs):
        """Clock/MXU variants reuse one struct; CMEM stays per-program."""
        chip, program = compiled_programs[("TPUv4i", "cnn0", 8)]
        variants = (
            chip,
            chip.variant("v4-fast", clock_hz=chip.clock_hz * 1.25),
            chip.variant("v4-wide", mxus_per_core=8),
            chip.variant("v4-slow", clock_hz=chip.clock_hz * 0.75,
                         mxus_per_core=2),
        )
        points = [GridPoint(program, variant) for variant in variants]
        clear_grid_kernel()
        batched = evaluate_grid(points)
        for point, out in zip(points, batched):
            _assert_identical(_replay(point), out)
        assert grid_kernel_stats().structs == 1


class TestBitIdentityOnCornerCases:
    """Hand-built programs that stress the kernel's closed forms."""

    def _grid_vs_replay(self, program, chip=TPUV4I, dtype="bf16"):
        point = GridPoint(program, chip, dtype)
        reference = _replay(point)
        out = evaluate_grid([point])[0]
        _assert_identical(reference, out)
        return out

    def _program(self, *bundles, generation=4):
        program = Program("hand", generation=generation)
        for bundle in bundles:
            program.append(Bundle(tuple(bundle)))
        program.append(Bundle((Instruction(Opcode.HALT),)))
        return program

    def test_dma_contention_and_engine_pool(self):
        mib = 2**20
        dmas = [Instruction(Opcode.DMA_IN, (0, (i + 1) * mib, i))
                for i in range(6)]
        program = self._program(
            dmas[:3], dmas[3:], [Instruction(Opcode.SYNC_WAIT, (5,))])
        out = self._grid_vs_replay(program)
        assert out.counters.sync_stall_cycles > 0

    def test_dma_flag_overwrite_and_rewait(self):
        program = self._program(
            [Instruction(Opcode.DMA_IN, (0, 2**20, 1)),
             Instruction(Opcode.DMA_IN, (0, 2**24, 1))],
            [Instruction(Opcode.SYNC_WAIT, (1,)),
             Instruction(Opcode.MXM, (128, 128, 128))])
        self._grid_vs_replay(program)

    def test_sync_set_then_wait_is_free(self):
        program = self._program(
            [Instruction(Opcode.SYNC_SET, (2,))],
            [Instruction(Opcode.SYNC_WAIT, (2,))],
            [Instruction(Opcode.SYNC_WAIT, (9,))])  # never set
        out = self._grid_vs_replay(program)
        assert out.counters.sync_stall_cycles == 0

    def test_mixed_units_overlap(self):
        program = self._program(
            [Instruction(Opcode.MXM, (512, 512, 512)),
             Instruction(Opcode.VADD, (65536,)),
             Instruction(Opcode.VREDUCE, (4096, 64)),
             Instruction(Opcode.SADD, (1, 2, 3))],
            [Instruction(Opcode.MXM_LOADW, (128, 128)),
             Instruction(Opcode.MXM_TRANSPOSE, (64, 0)),
             Instruction(Opcode.VMUL, (1000,))])
        out = self._grid_vs_replay(program)
        assert out.counters.scalar_ops == 1

    def test_unit_work_before_any_hard_row(self):
        """MXU/VPU rows with no preceding hard row hit the sentinel slot."""
        program = self._program(
            [Instruction(Opcode.MXM, (256, 256, 256)),
             Instruction(Opcode.VADD, (4096,))],
            [Instruction(Opcode.MXM, (128, 128, 128))],
            [Instruction(Opcode.DMA_OUT, (0, 2**20, 0))])
        self._grid_vs_replay(program)

    def test_halt_mid_program_truncates(self):
        program = Program("h", generation=4)
        program.append(Bundle((Instruction(Opcode.MXM, (128, 128, 128)),)))
        program.append(Bundle((Instruction(Opcode.HALT),
                               Instruction(Opcode.MXM, (512, 512, 512)))))
        program.append(Bundle((Instruction(Opcode.MXM, (512, 512, 512)),)))
        out = self._grid_vs_replay(program)
        assert out.counters.bundles == 2  # third bundle is dead code

    def test_empty_program_costs_one_cycle(self):
        program = Program("empty", generation=4)
        out = self._grid_vs_replay(program)
        assert out.cycles == 1

    def test_int8_on_v1(self):
        program = Program("v1", generation=1)
        program.append(Bundle((Instruction(Opcode.MXM, (256, 256, 256)),
                               Instruction(Opcode.DMA_IN, (0, 2**20, 0)))))
        self._grid_vs_replay(program, chip=TPUV1, dtype="int8")


class TestErrorParity:
    """evaluate_grid raises exactly the per-point path's errors."""

    def test_generation_mismatch(self):
        program = Program("v4", generation=4)
        with pytest.raises(ValueError) as lower_err:
            lower_program(program, TPUV3)
        with pytest.raises(ValueError) as grid_err:
            evaluate_grid([GridPoint(program, TPUV3)])
        assert str(grid_err.value) == str(lower_err.value)

    def test_unsupported_dtype(self):
        program = Program("v2", generation=2)
        with pytest.raises(ValueError, match="does not support"):
            evaluate_grid([GridPoint(program, TPUV2, dtype="int8")])

    def test_unreachable_dma_level(self):
        # TPUv1 has no CMEM, so a CMEM DMA (level 1) has no engine pool.
        program = Program("bad", generation=1)
        program.append(Bundle((Instruction(Opcode.DMA_IN, (1, 1024, 0)),)))
        with pytest.raises(ValueError) as lower_err:
            lower_program(program, TPUV1)
        clear_grid_kernel()
        with pytest.raises(ValueError) as grid_err:
            evaluate_grid([GridPoint(program, TPUV1, dtype="int8")])
        assert str(grid_err.value) == str(lower_err.value)

    def test_error_raised_before_later_points_evaluate(self):
        good = Program("good", generation=4)
        bad = Program("bad", generation=3)
        with pytest.raises(ValueError, match="Recompile"):
            evaluate_grid([GridPoint(bad, TPUV4I), GridPoint(good, TPUV4I)])


class TestGating:
    def test_context_manager_is_reentrant(self):
        assert gridsim_enabled()
        with gridsim_disabled():
            assert not gridsim_enabled()
            with gridsim_disabled():
                assert not gridsim_enabled()
            assert not gridsim_enabled()
        assert gridsim_enabled()

    def test_disabled_kernel_falls_back_per_point(self):
        program = Program("gate", generation=4)
        program.append(Bundle((Instruction(Opcode.MXM, (128, 128, 128)),)))
        point = GridPoint(program, TPUV4I)
        clear_grid_kernel()
        with gridsim_disabled():
            fallback = evaluate_grid([point])
        stats = grid_kernel_stats()
        assert stats.fallback_points == 1
        assert stats.batches == 0
        _assert_identical(_replay(point), fallback[0])


class TestEngineGrid:
    """run_grid / evaluate_jobs: cache exclusion, merge, and parity."""

    def _point(self):
        return DesignPoint(TPUV4I, cache=EvalCache())

    def test_run_grid_matches_per_point_runs(self):
        spec = app_by_name("mlp0")
        jobs = [GridJob(self._point(), spec, batch, budget)
                for batch in (1, 4)
                for budget in (None, 0, 64 * MIB)]
        results = run_grid(jobs)
        with gridsim_disabled():
            for job, result in zip(jobs, results):
                expected = self._point().run(job.spec, job.resolved_batch,
                                             job.cmem_budget_bytes)
                _assert_identical(expected, result)

    def test_cached_jobs_never_enter_the_batch(self):
        spec = app_by_name("mlp0")
        point = self._point()
        warm = point.run(spec, 4)
        clear_grid_stats()
        results = run_grid([GridJob(point, spec, 4), GridJob(point, spec, 8)])
        stats = grid_stats()
        assert stats.cache_hits == 1
        assert stats.batched_points == 1
        assert results[0] is warm
        # A second pass over the same jobs is all cache, no new batch.
        again = run_grid([GridJob(point, spec, 4), GridJob(point, spec, 8)])
        assert grid_stats().batches == stats.batches
        assert again == results

    def test_duplicate_jobs_share_one_kernel_point(self):
        spec = app_by_name("mlp0")
        point = self._point()
        clear_grid_stats()
        results = run_grid([GridJob(point, spec, 4)] * 3)
        assert grid_stats().batched_points == 1
        assert results[0] is results[1] is results[2]

    def test_grid_warmed_cache_serves_the_per_point_path(self):
        spec = app_by_name("mlp0")
        point = self._point()
        results = run_grid([GridJob(point, spec, 4)])
        assert point.run(spec, 4) is results[0]

    def test_evaluate_jobs_matches_per_point_evaluate(self):
        spec = app_by_name("cnn0")
        jobs = [GridJob(self._point(), spec, batch) for batch in (1, 2, 8)]
        evaluations = evaluate_jobs(jobs)
        with gridsim_disabled():
            expected = [self._point().evaluate(job.spec, job.batch)
                        for job in jobs]
        assert evaluations == expected
        # And the grid-stored records serve point.evaluate afterwards.
        assert jobs[0].point.evaluate(spec, 1) == evaluations[0]

    def test_fallback_runs_per_point(self):
        spec = app_by_name("mlp0")
        point = self._point()
        clear_grid_stats()
        with gridsim_disabled():
            results = run_grid([GridJob(point, spec, 4)])
        assert grid_stats().fallback_points == 1
        assert grid_stats().batches == 0
        assert results[0] is point.run(spec, 4)

    def test_grid_metrics_counted(self):
        spec = app_by_name("mlp0")
        point = self._point()
        with collecting_metrics() as registry:
            run_grid([GridJob(point, spec, 4), GridJob(point, spec, 4)])
            assert registry.counter("engine.grid.points").value == 2
            assert registry.counter("engine.grid.batches").value == 1
            assert registry.counter("engine.grid.batched_points").value == 1

    def test_stats_describe_mentions_sharing(self):
        clear_grid_stats()
        text = grid_stats().describe()
        assert "batches" in text and "compiles shared" in text

    def test_max_batch_under_slo_matches_disabled_path(self):
        spec = app_by_name("mlp0")
        grid_answer = self._point().max_batch_under_slo(
            spec, spec.slo_ms / 1e3)
        with gridsim_disabled():
            per_point = self._point().max_batch_under_slo(
                spec, spec.slo_ms / 1e3)
        assert grid_answer == per_point
        with pytest.raises(ValueError, match="SLO"):
            self._point().max_batch_under_slo(spec, 0.0)


class TestSweepEquivalence:
    def test_grid_routed_candidate_sweep_matches_serial(self):
        from repro.core.dse import evaluate_candidates
        chips = enumerate_candidates()
        previous = set_cache(EvalCache())
        try:
            clear_shared_design_points()
            clear_lowered()
            with gridsim_disabled():
                serial = evaluate_candidates(chips, workers=1)
            set_cache(EvalCache())
            clear_shared_design_points()
            clear_lowered()
            clear_grid_kernel()
            routed = evaluate_candidates(chips, workers=1)
            assert routed == serial
        finally:
            set_cache(previous)
            clear_shared_design_points()

    def test_grid_sweep_gate_spans_100_points(self):
        """The grid the ``grid-sweep`` speedup gate times end to end."""
        from benchmarks.speedup_gates import GRID_CLOCKS_GHZ
        from repro.core.dse import DEFAULT_DSE_APPS
        chips = enumerate_candidates(clocks_ghz=GRID_CLOCKS_GHZ)
        assert len(chips) * len(DEFAULT_DSE_APPS) >= 100

    def test_cmem_sweep_matches_per_point(self):
        spec = app_by_name("mlp0")
        capacities = [0, 32 * MIB, 128 * MIB]
        previous = set_cache(EvalCache())
        try:
            clear_shared_design_points()
            grid = cmem_sweep(spec, capacities)
            set_cache(EvalCache())
            clear_shared_design_points()
            with gridsim_disabled():
                per_point = cmem_sweep(spec, capacities)
            assert grid == per_point
        finally:
            set_cache(previous)
            clear_shared_design_points()


class TestCmemSweepValidation:
    """Regression: validation is identical on every dispatch path."""

    @pytest.mark.parametrize("workers", [1, 2, None])
    def test_negative_capacity_raises_before_any_dispatch(self, workers):
        spec = app_by_name("mlp0")
        with collecting_metrics() as registry:
            with pytest.raises(ValueError, match="non-negative"):
                cmem_sweep(spec, [64 * MIB, -1], workers=workers)
            # Rejected before the sweep counted (or evaluated) anything.
            assert registry.counter("engine.sweeps.cmem_points").value == 0

    def test_engine_sweep_validates_identically(self):
        from repro.engine.sweeps import cmem_capacity_sweep
        spec = app_by_name("mlp0")
        for workers in (1, 2):
            with pytest.raises(ValueError, match="non-negative"):
                cmem_capacity_sweep(spec, [-5], TPUV4I, 4, workers=workers)


class TestCompileContentFingerprint:
    """The dedupe's invariant: excluded fields never change compiled code."""

    _EXCLUDED_OVERRIDES = (
        {"clock_hz": TPUV4I.clock_hz * 1.3},
        {"mxus_per_core": 8},
        {"tdp_w": 500.0},
        {"idle_w": 99.0},
        {"cooling": "liquid"},
    )

    def test_override_set_matches_exclusion_list(self):
        covered = {"name"} | {k for o in self._EXCLUDED_OVERRIDES for k in o}
        assert covered == set(_COMPILE_IRRELEVANT)

    @pytest.mark.parametrize("override", _EXCLUDED_OVERRIDES,
                             ids=lambda o: next(iter(o)))
    def test_excluded_field_preserves_compiled_content(self, override):
        variant = TPUV4I.variant("fp-variant", **override)
        assert (compile_chip_fingerprint(variant)
                == compile_chip_fingerprint(TPUV4I))
        spec = app_by_name("mlp0")
        base = DesignPoint(
            TPUV4I, cache=EvalCache(enabled=False)).compiled(spec, 4)
        other = DesignPoint(
            variant, cache=EvalCache(enabled=False)).compiled(spec, 4)
        assert base.program.signature() == other.program.signature()
        assert (base.memory.cmem_hit_fraction
                == other.memory.cmem_hit_fraction)

    def test_compile_relevant_field_changes_fingerprint(self):
        smaller = TPUV4I.variant("fp-cmem",
                                 cmem_bytes=TPUV4I.cmem_bytes // 2)
        assert (compile_chip_fingerprint(smaller)
                != compile_chip_fingerprint(TPUV4I))

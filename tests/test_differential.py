"""Chip-timing differential tests: fast paths against their references.

The interpreter is the reference behind ``FastReplay``, and per-point
replay is the reference behind the grid kernel. These tests compare all
three on *generated* inputs — random MLPs on generated chip
configurations — and rerun whole serving sweeps inside
``fastsim_disabled()`` / ``gridsim_disabled()`` blocks, with caches
reset so the reference really runs. (The serving kernels' generated-input
properties live in ``tests/test_fastserve.py``.)
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import TPUV1, TPUV2, TPUV3, TPUV4I
from repro.cluster import ClusterPolicy, ClusterSimulator
from repro.cluster.cluster import _REPLICA_SALT
from repro.compiler import compile_model
from repro.compiler.pipeline import retarget_dtype
from repro.core.design_point import DesignPoint, clear_shared_design_points
from repro.engine.cache import EvalCache, set_cache
from repro.engine.lowered import clear_lowered, lowered_cache_size
from repro.faults import FaultModel, fault_sweep
from repro.isa import Bundle, Instruction, Opcode, Program
from repro.serving import BatchPolicy, ServingSimulator, Slo
from repro.sim import TensorCoreSim
from repro.sim.gridkernel import (GridPoint, clear_grid_kernel,
                                  evaluate_grid, grid_kernel_stats,
                                  gridsim_disabled)
from repro.sim.lowered import FastReplay, fastsim_disabled, lower_program
from repro.util.rng import DeterministicRng
from repro.util.units import GHZ, GIGA, MIB
from repro.workloads import RequestGenerator, app_by_name

from tests.test_compiler_properties import random_mlp

# ------------------------------------------------------------ chip timing


@st.composite
def chip_configs(draw):
    """A generation's chip with generated clock, MXUs, CMEM, bandwidths."""
    base = draw(st.sampled_from((TPUV1, TPUV2, TPUV3, TPUV4I)))
    cmem_mib = draw(st.sampled_from((0, 16, 64, 128)))
    return base.variant(
        f"{base.name}-gen",
        clock_hz=draw(st.floats(0.5, 2.0)) * GHZ,
        mxus_per_core=draw(st.integers(1, 8)),
        cmem_bytes=cmem_mib * MIB,
        cmem_bw=draw(st.floats(200.0, 2000.0)) * GIGA if cmem_mib else 0.0,
        hbm_bw=draw(st.floats(20.0, 1500.0)) * GIGA)


def _program_for(module, chip):
    if not chip.supports_dtype("bf16"):  # TPUv1 runs the int8 retarget
        module = retarget_dtype(module, "int8")
    return compile_model(module, chip).program


def _assert_three_way(program, chip, dtype, *, expect_fallback):
    interp = TensorCoreSim(chip).run_interpreted(program, dtype=dtype)
    fast = FastReplay(chip).run(lower_program(program, chip), dtype=dtype)
    fallbacks = grid_kernel_stats().fallback_points
    grid, = evaluate_grid([GridPoint(program, chip, dtype)])
    assert grid_kernel_stats().fallback_points - fallbacks == expect_fallback
    for result in (fast, grid):
        assert result.cycles == interp.cycles
        assert (result.counters.bytes_by_level
                == interp.counters.bytes_by_level)
        assert result.counters == interp.counters
        assert result.report == interp.report


class TestChipTimingDifferential:
    @given(spec=random_mlp(), chip=chip_configs(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_interpreter_replay_and_grid_agree(self, spec, chip, data):
        module, _ = spec
        program = _program_for(module, chip)
        dtype = data.draw(st.sampled_from(
            [d for d in ("bf16", "int8") if chip.supports_dtype(d)]))
        _assert_three_way(program, chip, dtype, expect_fallback=0)

    @given(spec=random_mlp(), chip=chip_configs())
    @settings(max_examples=5, deadline=None)
    def test_exactness_fallback_agrees(self, spec, chip):
        """A vector op past 2^52 ALU ops forces the per-point fallback.

        tanh costs 8 ALU ops per element, so 2^49 elements cross the grid
        kernel's exactness limit while the VMEM byte total (2^51 on top
        of the MLP's own traffic) stays an exact float. A 2^52-element
        add moves 2^54 VMEM bytes at bf16 (2^53 at int8), so the total
        with the MLP's own traffic is no longer a float: every path must
        sum exact integer bytes and round once, as FastReplay does.
        """
        module, _ = spec
        compiled = _program_for(module, chip)
        dtype = "bf16" if chip.supports_dtype("bf16") else "int8"
        for opcode, elements in ((Opcode.VTANH, 2**49),
                                 (Opcode.VADD, 2**52)):
            program = Program(compiled.name,
                              generation=compiled.generation)
            program.extend(compiled.bundles[:-1])
            program.append(Bundle((Instruction(opcode, (elements,)),)))
            program.extend(compiled.bundles[-1:])
            _assert_three_way(program, chip, dtype, expect_fallback=1)


@contextmanager
def _cold_caches():
    """Fresh result/lowering/kernel caches, restored on exit."""
    previous = set_cache(EvalCache(enabled=False))
    clear_shared_design_points()
    clear_lowered()
    clear_grid_kernel()
    try:
        yield
    finally:
        set_cache(previous)
        clear_shared_design_points()
        clear_lowered()
        clear_grid_kernel()


_REFERENCE_MODES = {
    "fastsim": fastsim_disabled,
    "gridsim": gridsim_disabled,
}


class TestChipTimingReferences:
    """Whole sweeps are unchanged when the chip timing runs the reference."""

    @pytest.fixture(scope="class")
    def fault_rows(self):
        model = FaultModel(seed=3, core_mtbf_s=0.1, core_repair_s=0.02)
        with _cold_caches():
            return fault_sweep(model, apps=("cnn0",), duration_s=0.2)

    @pytest.mark.parametrize("mode", sorted(_REFERENCE_MODES))
    def test_fault_sweep_rows_identical(self, fault_rows, mode):
        model = FaultModel(seed=3, core_mtbf_s=0.1, core_repair_s=0.02)
        with _cold_caches(), _REFERENCE_MODES[mode]():
            rows = fault_sweep(model, apps=("cnn0",), duration_s=0.2)
            if mode == "fastsim":
                assert lowered_cache_size() == 0  # the interpreter ran
            else:
                assert grid_kernel_stats().batches == 0
        assert rows == fault_rows

    @staticmethod
    def _passthrough_stats():
        """TestPassthroughIdentity's scenarios on chip-timed latencies."""
        spec = app_by_name("cnn0")
        slo = Slo(spec.slo_ms / 1e3)
        point = DesignPoint(TPUV4I, cache=EvalCache(enabled=False))
        sim = ServingSimulator(point, spec, BatchPolicy(8, 0.002), slo)
        traffic = RequestGenerator(7).poisson("cnn0", 2000.0, 0.3)
        model = FaultModel(seed=7, core_mtbf_s=0.05, core_repair_s=0.02)
        forked = replace(model, seed=DeterministicRng(model.seed)
                         .fork(_REPLICA_SALT).seed)
        schedule = forked.schedule(
            TPUV4I.cores, traffic[-1].arrival_s + model.horizon_pad_s)
        return (
            sim.simulate(traffic),
            ClusterSimulator([sim]).simulate(traffic),
            ClusterSimulator(
                [sim], ClusterPolicy(probe_interval_s=0.01)).simulate(traffic),
            sim.simulate(traffic, faults=model, schedule=schedule),
            ClusterSimulator([sim]).simulate(traffic, faults=model),
        )

    @pytest.mark.parametrize("mode", sorted(_REFERENCE_MODES))
    def test_passthrough_cluster_stats_identical(self, mode):
        with _cold_caches():
            fast = self._passthrough_stats()
        with _cold_caches(), _REFERENCE_MODES[mode]():
            reference = self._passthrough_stats()
        assert reference == fast
        plain, cluster, probed, faulted, cluster_faulted = fast
        assert cluster.replica_stats[0] == plain
        assert probed.replica_stats[0] == plain
        assert cluster_faulted.replica_stats[0] == faulted

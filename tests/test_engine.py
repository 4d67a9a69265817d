"""The shared evaluation engine: cache correctness, parallel determinism.

The engine's contract is strict: cached, uncached, serial and parallel
evaluation of the same (chip, compiler, workload, batch, budget) inputs
must produce *identical* records — not approximately equal ones. These
tests assert that, plus the disk tier's round-trip/invalidation behavior
and the simulator reentrancy the process pool relies on.
"""

from __future__ import annotations

import math
import os
import pickle
import re
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.chip import TPUV4I
from repro.compiler.versions import LATEST, RELEASES
from repro.core.design_point import (
    DesignPoint,
    clear_shared_design_points,
    shared_design_point,
)
from repro.core.dse import (
    cmem_sweep,
    enumerate_candidates,
    evaluate_candidate,
    evaluate_candidates,
    evaluate_candidates_grid,
    pareto_frontier,
)
from repro.engine import (
    EvalCache,
    ParallelSweeper,
    chip_fingerprint,
    compiler_fingerprint,
    engine_disabled,
    eval_key,
)
from repro.engine.cache import get_cache, set_cache
from repro.engine.grid import compile_chip_fingerprint
from repro.engine.lowered import clear_lowered
from repro.engine.sweeps import _evaluate_candidates
from repro.serving.batching import BatchPolicy
from repro.serving.server import ServingSimulator
from repro.serving.slo import Slo
from repro.sim.core import TensorCoreSim
from repro.sim.gridkernel import clear_grid_kernel, gridsim_disabled
from repro.util.units import MIB
from repro.workloads.models import app_by_name

# Small, fast workloads: the contract is about identity, not scale.
GRID_CHIPS = (TPUV4I, TPUV4I.variant("v4i-2mxu", mxus_per_core=2))
GRID_APPS = ("mlp0", "cnn0")
GRID_BATCHES = (1, 8)


def _fields(evaluation):
    return (evaluation.workload, evaluation.chip, evaluation.batch,
            evaluation.latency_s, evaluation.chip_qps,
            evaluation.chip_power_w, evaluation.achieved_tops_chip,
            evaluation.mxu_utilization, evaluation.cmem_hit_fraction)


class TestCacheEquivalence:
    def test_cache_on_off_identical_over_grid(self):
        """Cached and uncached evaluation agree field-for-field."""
        cache = EvalCache()
        off = EvalCache(enabled=False)
        for chip in GRID_CHIPS:
            for app in GRID_APPS:
                spec = app_by_name(app)
                for batch in GRID_BATCHES:
                    uncached = DesignPoint(chip, cache=off).evaluate(
                        spec, batch)
                    cold = DesignPoint(chip, cache=cache).evaluate(spec, batch)
                    # Fresh point, warm cache: must come from the cache.
                    before = cache.stats.hits
                    warm = DesignPoint(chip, cache=cache).evaluate(spec, batch)
                    assert cache.stats.hits > before
                    assert _fields(uncached) == _fields(cold) == _fields(warm)

    def test_sim_results_identical_cache_on_off(self):
        spec = app_by_name("cnn0")
        cache = EvalCache()
        cold = DesignPoint(TPUV4I, cache=cache).run(spec, 4)
        warm = DesignPoint(TPUV4I, cache=cache).run(spec, 4)
        off = DesignPoint(TPUV4I, cache=EvalCache(enabled=False)).run(spec, 4)
        assert cold.cycles == warm.cycles == off.cycles
        assert cold.counters == warm.counters == off.counters

    def test_engine_disabled_context_matches_enabled(self):
        spec = app_by_name("mlp0")
        with engine_disabled():
            legacy = DesignPoint(TPUV4I).evaluate(spec, 4)
        engined = DesignPoint(TPUV4I).evaluate(spec, 4)
        assert _fields(legacy) == _fields(engined)


class TestDiskTier:
    def test_round_trip_across_cache_instances(self, tmp_path):
        spec = app_by_name("mlp0")
        writer = EvalCache(disk_dir=tmp_path)
        first = DesignPoint(TPUV4I, cache=writer).evaluate(spec, 2)
        assert writer.disk_entry_count() > 0
        assert writer.disk_size_bytes() > 0

        # A fresh cache over the same directory = a new process.
        reader = EvalCache(disk_dir=tmp_path)
        second = DesignPoint(TPUV4I, cache=reader).evaluate(spec, 2)
        assert reader.stats.disk_hits >= 1
        assert reader.stats.misses == 0
        assert _fields(first) == _fields(second)

    def test_invalidation_on_chip_and_compiler_change(self, tmp_path):
        spec = app_by_name("mlp0")
        cache = EvalCache(disk_dir=tmp_path)
        DesignPoint(TPUV4I, cache=cache).evaluate(spec, 2)

        # Any chip-field change must miss (key covers every field).
        tweaked = TPUV4I.variant("v4i-fast", clock_hz=TPUV4I.clock_hz * 1.1)
        fresh = EvalCache(disk_dir=tmp_path)
        DesignPoint(tweaked, cache=fresh).evaluate(spec, 2)
        assert fresh.stats.disk_hits == 0
        assert fresh.stats.misses > 0

        # So must a different compiler release.
        fresh2 = EvalCache(disk_dir=tmp_path)
        DesignPoint(TPUV4I, version=RELEASES[0],
                    cache=fresh2).evaluate(spec, 2)
        assert fresh2.stats.disk_hits == 0

    def test_corrupt_disk_entry_is_recomputed(self, tmp_path):
        spec = app_by_name("mlp0")
        cache = EvalCache(disk_dir=tmp_path)
        result = DesignPoint(TPUV4I, cache=cache).evaluate(spec, 2)
        for path in tmp_path.glob("*.pkl"):
            path.write_bytes(b"not a pickle")
        reader = EvalCache(disk_dir=tmp_path)
        again = DesignPoint(TPUV4I, cache=reader).evaluate(spec, 2)
        assert _fields(result) == _fields(again)

    def test_clear_removes_disk_entries(self, tmp_path):
        spec = app_by_name("mlp0")
        cache = EvalCache(disk_dir=tmp_path)
        DesignPoint(TPUV4I, cache=cache).evaluate(spec, 2)
        cache.clear(disk=True)
        assert cache.entry_count() == 0
        assert cache.disk_entry_count() == 0


class TestKeys:
    def test_fingerprints_stable_and_sensitive(self):
        assert chip_fingerprint(TPUV4I) == chip_fingerprint(TPUV4I)
        assert (chip_fingerprint(TPUV4I)
                != chip_fingerprint(TPUV4I.variant("x", clock_hz=1e9)))
        assert (compiler_fingerprint(RELEASES[0])
                != compiler_fingerprint(RELEASES[-1]))

    def test_eval_key_covers_every_input(self):
        chip_fp = chip_fingerprint(TPUV4I)
        comp_fp = compiler_fingerprint(RELEASES[-1])
        base = eval_key("sim", chip_fp, comp_fp, "mlp0", 4, None, "bf16")
        assert base != eval_key("eval", chip_fp, comp_fp, "mlp0", 4,
                                None, "bf16")
        assert base != eval_key("sim", chip_fp, comp_fp, "mlp0", 8,
                                None, "bf16")
        assert base != eval_key("sim", chip_fp, comp_fp, "mlp0", 4,
                                64 * MIB, "bf16")
        assert base != eval_key("sim", chip_fp, comp_fp, "mlp0", 4,
                                None, "int8")
        assert base != eval_key("sim", chip_fp, comp_fp, "cnn0", 4,
                                None, "bf16")

    def test_eval_key_phase_and_kv_bucket(self):
        """Phase/kv-bucket enter the key only when set (legacy bytes)."""
        chip_fp = chip_fingerprint(TPUV4I)
        comp_fp = compiler_fingerprint(RELEASES[-1])
        base = eval_key("sim", chip_fp, comp_fp, "llm0.decode@256", 4,
                        None, "bf16")
        # Explicit None must reproduce the legacy key exactly.
        assert base == eval_key("sim", chip_fp, comp_fp, "llm0.decode@256",
                                4, None, "bf16", phase=None, kv_bucket=None)
        phased = eval_key("sim", chip_fp, comp_fp, "llm0.decode@256", 4,
                          None, "bf16", phase="decode", kv_bucket=256)
        assert phased != base
        assert phased != eval_key("sim", chip_fp, comp_fp, "llm0.decode@256",
                                  4, None, "bf16", phase="prefill",
                                  kv_bucket=256)
        assert phased != eval_key("sim", chip_fp, comp_fp, "llm0.decode@256",
                                  4, None, "bf16", phase="decode",
                                  kv_bucket=512)


def _square(x: int) -> int:
    return x * x


class TestParallelSweeper:
    def test_order_preserving_merge(self):
        items = list(range(23))
        expected = [x * x for x in items]
        assert ParallelSweeper(workers=1).map(_square, items) == expected
        assert ParallelSweeper(workers=2).map(_square, items) == expected
        assert ParallelSweeper(workers=2, chunk_size=3).map(
            _square, items) == expected

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            ParallelSweeper(workers=0)
        with pytest.raises(ValueError):
            ParallelSweeper(chunk_size=0)

    def test_parallel_equals_serial_candidates(self):
        """The pareto_frontier inputs are deterministic across worker counts."""
        grid = enumerate_candidates(mxu_counts=(2, 4),
                                    cmem_mib_options=(0, 64))
        serial = evaluate_candidates(grid, GRID_APPS, workers=1)
        parallel = evaluate_candidates(grid, GRID_APPS, workers=2)
        assert serial == parallel
        assert pareto_frontier(serial) == pareto_frontier(parallel)
        assert [c.chip.name for c in parallel] == [chip.name for chip in grid]

    def test_parallel_sweep_warms_parent_cache(self):
        grid = enumerate_candidates(mxu_counts=(2,), cmem_mib_options=(64,))
        clear_shared_design_points()
        evaluate_candidates(grid, ("mlp0",), workers=2)
        cache = get_cache()
        clear_shared_design_points()  # force lookups through the cache
        hits_before = cache.stats.hits
        again = evaluate_candidates(grid, ("mlp0",), workers=1)
        assert cache.stats.hits > hits_before
        assert again == evaluate_candidates(grid, ("mlp0",), workers=1)


@contextmanager
def _cold_engine():
    """A fresh, enabled EvalCache and empty memo/lowering/kernel caches."""
    previous = set_cache(EvalCache())
    clear_shared_design_points()
    clear_lowered()
    clear_grid_kernel()
    try:
        yield get_cache()
    finally:
        set_cache(previous)
        clear_shared_design_points()


def _sharded(chips, apps):
    """The pool's sharded fold, forced on whatever the CPU count."""
    sweeper = ParallelSweeper(workers=2, force_parallel=True)
    return _evaluate_candidates(sweeper, list(chips), tuple(apps), LATEST)


class TestShardedCandidateSweep:
    """The pool path (one task per distinct compile) against both
    references: the serial grid batch and the per-point loop."""

    @given(clocks=st.lists(st.sampled_from((0.95, 1.05, 1.15)),
                           min_size=1, max_size=2, unique=True),
           mxus=st.lists(st.sampled_from((2, 4, 8)),
                         min_size=2, max_size=3, unique=True),
           cmems=st.lists(st.sampled_from((0, 64, 128)),
                          min_size=1, max_size=2, unique=True),
           apps=st.lists(st.sampled_from(GRID_APPS),
                         min_size=1, max_size=2, unique=True))
    @settings(max_examples=6, deadline=None)
    def test_sharded_equals_serial_grid_and_per_point(self, clocks, mxus,
                                                      cmems, apps):
        chips = enumerate_candidates(mxus, cmems, clocks)
        # Two MXU counts per (clock, CMEM): chips share compile content.
        assert (len({compile_chip_fingerprint(c) for c in chips})
                < len(chips))
        with _cold_engine():
            sharded = _sharded(chips, apps)
        with _cold_engine():
            grid = evaluate_candidates_grid(chips, apps, LATEST)
        with _cold_engine(), gridsim_disabled():
            per_point = [evaluate_candidate(c, apps) for c in chips]
        assert sharded == grid == per_point
        assert [c.chip.name for c in sharded] == [c.name for c in chips]

    def test_sharded_fallback_inside_gridsim_disabled(self):
        """Workers fall back to per-point evaluation, same records."""
        chips = enumerate_candidates((2, 4), (0, 64), (1.05,))
        with _cold_engine():
            grid = evaluate_candidates_grid(chips, GRID_APPS, LATEST)
        with _cold_engine(), gridsim_disabled():
            sharded = _sharded(chips, GRID_APPS)
        assert sharded == grid

    def test_cold_parallel_cache_equals_cold_serial_cache(self):
        """The parent holds every point's sim and eval record, as serial."""
        chips = enumerate_candidates((2, 4), (0, 64), (0.95, 1.05))
        with _cold_engine() as cache:
            evaluate_candidates(chips, GRID_APPS, workers=1)
            serial = cache.export_since(frozenset())
        with _cold_engine() as cache:
            _sharded(chips, GRID_APPS)
            parallel = cache.export_since(frozenset())
        assert set(parallel) == set(serial)
        assert parallel == serial
        expected = set()
        for chip in chips:
            point = DesignPoint(chip, LATEST)
            for app in GRID_APPS:
                spec = app_by_name(app)
                expected.add(point.result_key(spec, spec.default_batch))
                expected.add(point.evaluation_key(spec, spec.default_batch))
        assert set(serial) == expected


_CANDIDATE_ENTRY_POINTS = {
    "serial": lambda chips, apps: evaluate_candidates(chips, apps,
                                                      workers=1),
    "pool": _sharded,
    "grid": lambda chips, apps: evaluate_candidates_grid(chips, apps),
    "single": lambda chips, apps: evaluate_candidate(chips[0], apps),
}


class TestDseInputValidation:
    """Bad DSE input raises ValueError naming the caller's own value."""

    @pytest.mark.parametrize("entry", sorted(_CANDIDATE_ENTRY_POINTS))
    @pytest.mark.parametrize("apps,named", [
        ((), "()"),
        (("nope",), "'nope'"),
        (("mlp0", "nope"), "'nope'"),
    ])
    def test_bad_app_set_rejected(self, entry, apps, named):
        chips = enumerate_candidates((2,), (64,))
        with pytest.raises(ValueError, match=re.escape(named)):
            _CANDIDATE_ENTRY_POINTS[entry](chips, apps)

    @pytest.mark.parametrize("apps", [(), ("nope",)])
    def test_serial_and_pool_messages_identical(self, apps):
        chips = enumerate_candidates((2, 4), (64,))
        messages = set()
        for entry in ("serial", "pool"):
            with pytest.raises(ValueError) as excinfo:
                _CANDIDATE_ENTRY_POINTS[entry](chips, apps)
            messages.add(str(excinfo.value))
        assert len(messages) == 1

    @pytest.mark.parametrize("axis,value", [
        ("clocks_ghz", math.nan),
        ("clocks_ghz", math.inf),
        ("clocks_ghz", -math.inf),
        ("clocks_ghz", 0.0),
        ("cmem_mib_options", math.nan),
        ("cmem_mib_options", math.inf),
        ("cmem_mib_options", -1),
        ("mxu_counts", math.nan),
        ("mxu_counts", 0),
    ])
    def test_enumerate_rejects_non_finite_and_out_of_range(self, axis,
                                                           value):
        with pytest.raises(ValueError, match=re.escape(repr(value))):
            enumerate_candidates(**{axis: (value,)})


class TestDseThroughEngine:
    def test_evaluate_candidate_matches_legacy_path(self):
        chip = enumerate_candidates(mxu_counts=(4,),
                                    cmem_mib_options=(64,))[0]
        with engine_disabled():
            clear_shared_design_points()
            legacy = evaluate_candidate(chip, GRID_APPS)
        clear_shared_design_points()
        engined = evaluate_candidate(chip, GRID_APPS)
        assert legacy == engined

    def test_cmem_sweep_serial_equals_parallel(self):
        spec = app_by_name("mlp0")
        capacities = [0, 32 * MIB, 128 * MIB]
        serial = cmem_sweep(spec, capacities, batch=2, workers=1)
        parallel = cmem_sweep(spec, capacities, batch=2, workers=2)
        assert serial == parallel
        assert [c for c, _ in serial] == capacities

    def test_cmem_sweep_rejects_negative_capacity(self):
        spec = app_by_name("mlp0")
        with pytest.raises(ValueError):
            cmem_sweep(spec, [-1], batch=2)
        with pytest.raises(ValueError):
            cmem_sweep(spec, [-1], batch=2, workers=2)

    def test_shared_design_point_is_shared(self):
        clear_shared_design_points()
        assert shared_design_point(TPUV4I) is shared_design_point(TPUV4I)
        other = TPUV4I.variant("other", clock_hz=1e9)
        assert shared_design_point(TPUV4I) is not shared_design_point(other)


class TestSimReentrancy:
    def test_repeated_runs_identical_and_stateless(self):
        spec = app_by_name("cnn0")
        point = DesignPoint(TPUV4I, cache=EvalCache(enabled=False))
        program = point.compiled(spec, 2).program
        sim = TensorCoreSim(TPUV4I)
        first = sim.run(program)
        second = sim.run(program)
        assert first.cycles == second.cycles
        assert first.counters == second.counters
        # No per-run state may leak onto the shared instance.
        assert not hasattr(sim, "_mxu_free")
        assert not hasattr(sim, "_vpu_free")

    def test_interleaved_programs_do_not_interfere(self):
        sim = TensorCoreSim(TPUV4I)
        point = DesignPoint(TPUV4I, cache=EvalCache(enabled=False))
        prog_a = point.compiled(app_by_name("mlp0"), 2).program
        prog_b = point.compiled(app_by_name("cnn0"), 2).program
        baseline_a = sim.run(prog_a).cycles
        sim.run(prog_b)
        assert sim.run(prog_a).cycles == baseline_a


class TestServingPrewarm:
    def test_prewarm_matches_on_demand_latencies(self):
        spec = app_by_name("mlp0")
        simulator = ServingSimulator(
            DesignPoint(TPUV4I), spec,
            BatchPolicy(max_batch=8, max_wait_s=0.001), Slo(0.05))
        grid = simulator.prewarm(workers=1)
        assert set(grid) == set(BatchPolicy.batch_steps(8))
        fresh = ServingSimulator(
            DesignPoint(TPUV4I), spec,
            BatchPolicy(max_batch=8, max_wait_s=0.001), Slo(0.05))
        for step, latency in grid.items():
            assert fresh.batch_latency_s(step) == latency


class TestCachePlumbing:
    def test_export_absorb_round_trip(self):
        source = EvalCache()
        before = source.keys()
        source.put("k1", {"v": 1})
        source.put("k2", (1, 2, 3))
        entries = source.export_since(before)
        assert set(entries) == {"k1", "k2"}
        sink = EvalCache()
        sink.absorb(entries)
        assert sink.get("k1") == {"v": 1}
        assert sink.get("k2") == (1, 2, 3)

    def test_disabled_cache_stores_nothing(self):
        cache = EvalCache(enabled=False)
        cache.put("k", 1)
        assert cache.get("k") is None
        assert cache.entry_count() == 0

    def test_stats_and_describe(self):
        cache = EvalCache()
        cache.put("k", "value")
        assert cache.get("k") == "value"
        assert cache.get("missing") is None
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert 0.0 < cache.stats.hit_rate < 1.0
        assert cache.size_bytes() >= len(pickle.dumps("value"))
        assert "entries" in cache.describe()


# Crash-injection tasks must live at module level (picklable). The
# sentinel file makes the crash one-shot: the first worker to see it
# removes it and hard-kills itself, so the retry pool runs clean.
_CRASH_ENV = "REPRO_TEST_CRASH_SENTINEL"


def _consume_crash_sentinel() -> bool:
    sentinel = os.environ.get(_CRASH_ENV)
    if not sentinel:
        return False
    try:
        os.remove(sentinel)
    except FileNotFoundError:
        return False
    return True


def _square_crash_once(x: int) -> int:
    if x == 7 and _consume_crash_sentinel():
        os._exit(1)  # simulate an OOM kill: poisons the whole pool
    return x * x


def _square_in_parent_only(payload: tuple[int, int]) -> int:
    x, parent_pid = payload
    if os.getpid() != parent_pid:
        os._exit(1)  # every pool attempt dies; only serial can finish
    return x * x


def _square_reject_negative(x: int) -> int:
    if x < 0:
        raise ValueError("negative input")
    return x * x


def _cached_square_crash_once(x: int) -> int:
    if x == 5 and _consume_crash_sentinel():
        os._exit(1)
    cache = get_cache()
    key = f"crash-test:{x}"
    hit = cache.get(key)
    if hit is not None:
        return hit
    cache.put(key, x * x)
    return x * x


class TestSweeperCrashTolerance:
    """A dying worker degrades to retry/serial, never to a wrong answer."""

    def test_worker_crash_retried_on_fresh_pool(self, tmp_path, monkeypatch):
        sentinel = tmp_path / "crash-once"
        sentinel.touch()
        monkeypatch.setenv(_CRASH_ENV, str(sentinel))
        items = list(range(23))
        sweeper = ParallelSweeper(workers=2, force_parallel=True)
        assert sweeper.map(_square_crash_once, items) == [x * x for x in items]
        assert not sentinel.exists()  # the crash really happened

    def test_unbroken_pools_fall_back_to_serial(self):
        items = [(x, os.getpid()) for x in range(8)]
        sweeper = ParallelSweeper(workers=2, force_parallel=True,
                                  pool_retries=1)
        assert (sweeper.map(_square_in_parent_only, items)
                == [x * x for x in range(8)])

    def test_task_exceptions_propagate_not_retried(self):
        sweeper = ParallelSweeper(workers=2, force_parallel=True)
        with pytest.raises(ValueError, match="negative"):
            sweeper.map(_square_reject_negative, [1, 2, -3, 4])

    def test_crash_during_map_cached_keeps_cache_consistent(
            self, tmp_path, monkeypatch):
        """Satellite: parallel-with-crash equals serial, cache intact."""
        sentinel = tmp_path / "crash-once"
        sentinel.touch()
        monkeypatch.setenv(_CRASH_ENV, str(sentinel))
        items = list(range(12))
        previous = set_cache(EvalCache())
        try:
            crashed = ParallelSweeper(
                workers=2, force_parallel=True).map_cached(
                    _cached_square_crash_once, items)
            parallel_cache = {k: get_cache().get(k)
                              for k in get_cache().keys()}
            set_cache(EvalCache())
            serial = ParallelSweeper(workers=1).map_cached(
                _cached_square_crash_once, items)
            serial_cache = {k: get_cache().get(k) for k in get_cache().keys()}
        finally:
            set_cache(previous)
        assert not sentinel.exists()
        assert crashed == serial == [x * x for x in items]
        # Every item's entry was merged; no partial records either way.
        assert parallel_cache == serial_cache
        assert set(parallel_cache) == {f"crash-test:{x}" for x in items}

    def test_pool_retries_validated(self):
        with pytest.raises(ValueError):
            ParallelSweeper(pool_retries=-1)


class TestDiskTierIntegrity:
    """Checksummed, atomically-written entries; corruption is never fatal."""

    def test_entries_carry_magic_and_checksum(self, tmp_path):
        cache = EvalCache(disk_dir=tmp_path)
        cache.put("k1", {"v": 42})
        raw = (tmp_path / "k1.pkl").read_bytes()
        assert raw.startswith(b"RPC1")
        assert not list(tmp_path.glob("*.tmp"))  # temp files never linger

    def test_bitflip_quarantined_and_recomputed(self, tmp_path):
        cache = EvalCache(disk_dir=tmp_path)
        cache.put("k1", {"v": 42})
        path = tmp_path / "k1.pkl"
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF  # flip one payload bit
        path.write_bytes(bytes(raw))

        reader = EvalCache(disk_dir=tmp_path)
        assert reader.get("k1") is None  # a miss, not an exception
        assert reader.stats.corrupt == 1
        assert not path.exists()
        assert (tmp_path / "quarantine" / "k1.pkl").exists()
        assert "quarantined" in reader.describe()

        # Recompute-and-store works over the quarantined name.
        reader.put("k1", {"v": 42})
        assert EvalCache(disk_dir=tmp_path).get("k1") == {"v": 42}

    def test_truncated_entry_quarantined(self, tmp_path):
        cache = EvalCache(disk_dir=tmp_path)
        cache.put("k1", [1, 2, 3])
        path = tmp_path / "k1.pkl"
        path.write_bytes(path.read_bytes()[:10])  # torn write, magic intact
        reader = EvalCache(disk_dir=tmp_path)
        assert reader.get("k1") is None
        assert reader.stats.corrupt == 1

    def test_legacy_plain_pickle_still_readable(self, tmp_path):
        (tmp_path / "old.pkl").write_bytes(pickle.dumps(123))
        reader = EvalCache(disk_dir=tmp_path)
        assert reader.get("old") == 123
        assert reader.stats.corrupt == 0

    def test_clear_empties_quarantine(self, tmp_path):
        cache = EvalCache(disk_dir=tmp_path)
        cache.put("k1", "value")
        path = tmp_path / "k1.pkl"
        path.write_bytes(b"RPC1" + b"\x00" * 40)
        assert cache.get("k1") == "value"  # memory tier still serves it
        fresh = EvalCache(disk_dir=tmp_path)
        assert fresh.get("k1") is None
        fresh.clear(disk=True)
        assert not list((tmp_path / "quarantine").iterdir())

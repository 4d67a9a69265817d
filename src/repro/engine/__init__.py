"""The shared evaluation engine: result caching + process-parallel sweeps.

Every layer above the compiler (DSE, serving, fleet sizing, benchmarks)
funnels workload evaluation through :class:`~repro.core.design_point.
DesignPoint`, and DesignPoint funnels it through this package:

* :mod:`repro.engine.keys` — content-addressed keys covering every chip
  field, the compiler release, workload, batch, CMEM budget and dtype;
* :mod:`repro.engine.cache` — the two-tier :class:`EvalCache`
  (in-process dict + optional ``.repro_cache/`` disk tier; enable with
  ``REPRO_CACHE_DIR=.repro_cache`` or :func:`configure_cache`);
* :mod:`repro.engine.modules` — chip-independent built-module sharing;
* :mod:`repro.engine.parallel` — :class:`ParallelSweeper`, the
  deterministic process-pool fan-out with order-preserving merge;
* :mod:`repro.engine.sweeps` — the candidate sweep (sharded one
  distinct compile per pool task) and the CMEM/batch-latency sweeps used
  by ``repro.core.dse`` and the serving simulator.

Determinism guarantee: cached, uncached, serial and parallel evaluation
of the same inputs produce identical records (pure arithmetic, order-
preserving merge); ``tests/test_engine.py`` asserts this, and the
``dse-engine`` gate of ``benchmarks/speedup_gates.py`` times the
serial, parallel and warm sweeps against each other.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.engine.cache import (
    CacheStats,
    EvalCache,
    cache_disabled,
    configure_cache,
    get_cache,
    set_cache,
)
from repro.engine.grid import (
    GridJob,
    GridStats,
    clear_grid_stats,
    compile_chip_fingerprint,
    evaluate_jobs,
    grid_stats,
    run_grid,
)
from repro.engine.keys import (
    chip_fingerprint,
    compiler_fingerprint,
    eval_key,
    fingerprint,
)
from repro.engine.lowered import (
    clear_lowered,
    lowered_cache_disabled,
    lowered_cache_size,
    lowered_cache_stats,
    lowered_program,
)
from repro.engine.modules import (
    built_module,
    clear_modules,
    module_cache_disabled,
)
from repro.engine.parallel import ParallelSweeper, available_workers
from repro.engine.sweeps import (
    batch_latency_grid,
    cmem_capacity_sweep,
    evaluate_candidates,
)


@contextmanager
def engine_disabled() -> Iterator[None]:
    """Run with all engine caching off (the pre-engine code path)."""
    with cache_disabled():
        with module_cache_disabled():
            yield


__all__ = [
    "CacheStats",
    "EvalCache",
    "GridJob",
    "GridStats",
    "ParallelSweeper",
    "available_workers",
    "batch_latency_grid",
    "built_module",
    "cache_disabled",
    "chip_fingerprint",
    "clear_grid_stats",
    "clear_lowered",
    "clear_modules",
    "cmem_capacity_sweep",
    "compile_chip_fingerprint",
    "compiler_fingerprint",
    "configure_cache",
    "engine_disabled",
    "eval_key",
    "evaluate_candidates",
    "evaluate_jobs",
    "fingerprint",
    "get_cache",
    "grid_stats",
    "lowered_cache_disabled",
    "lowered_cache_size",
    "lowered_cache_stats",
    "lowered_program",
    "module_cache_disabled",
    "run_grid",
    "set_cache",
]

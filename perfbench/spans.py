"""Spans around each simulator layer, recorded from outside ``src/``.

:func:`install` wraps the public entry points of every layer (table
``_FUNCTIONS`` and ``_METHODS``) so each call records a span: id,
parent, name, start, end, op id and an optional value (a count the
layer's output carries, such as grid points or requests). GC pauses
come from ``gc.callbacks`` and nest like any other span.

Pool workers are forked, so they inherit the wrappers and the open span
stack; a worker's spans therefore name the parent's pool span as their
parent. Each worker appends its spans to a spool file after every task,
and the parent merges the files after every op.

:func:`breakdown` turns one op's spans into self times that partition
the op's wall time exactly: an instant belongs to the deepest open span
of the benchmark process, and an instant spent waiting on the pool is
shared equally among the workers busy at that instant (or charged to
``engine.pool_wait_s`` when none is). Time no layer span covers is
``trace.unattributed_s``.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Optional

perf_counter = time.perf_counter

#: Span fields, in the order a span tuple stores them.
FIELDS = ("id", "parent", "name", "start", "end", "op", "value")

OP = "op"
WORKER_TASK = "engine.worker_task"
POOL = "engine.pool"
POOL_START = "engine.pool_start"
GRAPH = "graph.build"
GC = "gc.pause"


class Tracer:
    """In-memory span recorder for one process (and its forked workers)."""

    def __init__(self, spool_dir: Path) -> None:
        self.spool_dir = Path(spool_dir)
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.op: Optional[int] = None
        self._counter = 0
        self._gc_open: Optional[tuple] = None

    def _new_id(self) -> int:
        self._counter += 1
        return self.pid * 1_000_000_000 + self._counter

    def open(self) -> tuple[int, Optional[int], float]:
        start = perf_counter()
        parent = self.stack[-1] if self.stack else None
        sid = self._new_id()
        self.stack.append(sid)
        return sid, parent, start

    def close(self, opened: tuple[int, Optional[int], float], name: str,
              value: Any = None) -> None:
        sid, parent, start = opened
        if sid in self.stack:
            del self.stack[self.stack.index(sid):]
        self.spans.append((sid, parent, name, start, perf_counter(),
                           self.op, value))

    def instant(self, name: str) -> None:
        now = perf_counter()
        parent = self.stack[-1] if self.stack else None
        self.spans.append((self._new_id(), parent, name, now, now,
                           self.op, None))

    def wrap(self, name: str, fn: Callable,
             value: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call; ``value(args, result)``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened = tracer.open()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.close(opened, name, value(args, result)
                             if value is not None and result is not None
                             else None)

        return traced

    # ----------------------------------------------------------- processes

    def adopt_fork(self) -> None:
        """In a freshly forked worker: drop the spans the parent owns."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.spans = []
            self._counter = 0

    def spool(self) -> None:
        """Append this worker's spans to its spool file and forget them."""
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        path = self.spool_dir / f"worker-{self.pid}.jsonl"
        with path.open("a") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
        self.spans = []

    def collect_spool(self) -> None:
        """Merge (and delete) every worker spool file into ``spans``."""
        if not self.spool_dir.is_dir():
            return
        for path in sorted(self.spool_dir.glob("worker-*.jsonl")):
            with path.open() as spooled:
                self.spans.extend(tuple(json.loads(line))
                                  for line in spooled)
            path.unlink()

    # --------------------------------------------------------------- gc

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_open = self.open()
        elif self._gc_open is not None:
            self.close(self._gc_open, GC)
            self._gc_open = None

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            json.dump({"fields": FIELDS, "spans": self.spans}, out)


# ------------------------------------------------------------ installation

_ACTIVE: Optional[Tracer] = None
_ORIGINAL_CACHED_CALL: Optional[Callable] = None


def traced_cached_call(payload):
    """Pool-worker task wrapper: span the task, then spool its spans."""
    tracer = _ACTIVE
    tracer.adopt_fork()
    opened = tracer.open()
    try:
        return _ORIGINAL_CACHED_CALL(payload)
    finally:
        tracer.close(opened, WORKER_TASK)
        tracer.spool()


def _count(args, result) -> int:
    return len(result)


def _cache_hit(args, result) -> int:
    return 1   # called only for a non-None result: a hit


def _pool_width(args, result) -> int:
    sweeper, _task, items = args
    return sweeper.effective_workers(len(items))


def _tokens(args, result) -> list:
    return [result.tokens_generated, result.tokens_computed]


#: (module, function, span name, value) for module-level entry points.
_FUNCTIONS = (
    ("repro.compiler.pipeline", "compile_model", "compiler.compile", None),
    ("repro.sim.lowered", "lower_program", "sim.lower", None),
    ("repro.sim.gridkernel", "evaluate_grid", "sim.grid", _count),
    ("repro.faults.sweep", "latency_table", "serving.tables", None),
    ("repro.serving.continuous", "phase_latency_table", "serving.tables",
     None),
    ("repro.serving.recovery", "snapshot_latency_table", "serving.tables",
     None),
    ("repro.workloads.generative", "sample_gen_requests",
     "workloads.traffic", _count),
)

#: (module, class, method, span name, value) for methods.
_METHODS = (
    ("repro.sim.lowered", "FastReplay", "run", "sim.replay", None),
    ("repro.engine.cache", "EvalCache", "get", "engine.cache_get",
     _cache_hit),
    ("repro.engine.cache", "EvalCache", "put", "engine.cache_put", None),
    ("repro.engine.parallel", "ParallelSweeper", "map", POOL, _pool_width),
    ("repro.workloads.generator", "RequestGenerator", "diurnal",
     "workloads.traffic", _count),
    ("repro.cluster.cluster", "ClusterSimulator", "simulate",
     "cluster.simulate", None),
    ("repro.faults.model", "FaultModel", "schedule", "faults.schedule",
     None),
    ("repro.serving.continuous", "ContinuousBatchingSimulator", "simulate",
     "serving.continuous", _tokens),
)


def _rebind(original: Any, replacement: Any) -> list[tuple]:
    """Point every ``repro`` module global bound to ``original`` at
    ``replacement`` (covers ``from x import f`` copies); returns undo."""
    undo = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        for attr, bound in list(vars(module).items()):
            if bound is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer entry point; returns a function that unwraps."""
    global _ACTIVE, _ORIGINAL_CACHED_CALL
    import importlib

    from repro.engine import parallel
    from repro.graph.hlo import GraphBuilder

    undo: list[tuple] = []

    def patch(owner, attr, replacement):
        undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    for module_name, attr, name, value in _FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attr)
        undo.extend(_rebind(original, tracer.wrap(name, original, value)))
    for module_name, cls_name, attr, name, value in _METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        patch(cls, attr, tracer.wrap(name, vars(cls)[attr], value))

    # A graph build spans GraphBuilder construction to .build(): the
    # app's builder function runs in between.
    builder_init = GraphBuilder.__init__
    builder_build = GraphBuilder.build

    def traced_init(self, *args, **kwargs):
        self._perfbench_span = tracer.open()
        builder_init(self, *args, **kwargs)

    def traced_build(self):
        try:
            return builder_build(self)
        finally:
            opened = vars(self).pop("_perfbench_span", None)
            if opened is not None:
                tracer.close(opened, GRAPH)

    patch(GraphBuilder, "__init__", traced_init)
    patch(GraphBuilder, "build", traced_build)

    pool_class = parallel.ProcessPoolExecutor

    class CountingPool(pool_class):
        def __init__(self, *args, **kwargs):
            tracer.instant(POOL_START)
            super().__init__(*args, **kwargs)

    patch(parallel, "ProcessPoolExecutor", CountingPool)
    _ORIGINAL_CACHED_CALL = parallel._cached_call
    undo.extend(_rebind(_ORIGINAL_CACHED_CALL, traced_cached_call))
    _ACTIVE = tracer
    gc.callbacks.append(tracer._on_gc)

    def uninstall() -> None:
        global _ACTIVE
        gc.callbacks.remove(tracer._on_gc)
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        _ACTIVE = None

    return uninstall


# ---------------------------------------------------------------- analysis

def _self_segments(span: tuple, kids: list[tuple]) -> list[tuple]:
    """``span``'s interval minus the union of its children's intervals."""
    start, end = span[3], span[4]
    segments = []
    cursor = start
    for kid in sorted(kids, key=lambda k: k[3]):
        lo, hi = max(kid[3], start), min(kid[4], end)
        if hi <= cursor:
            continue
        if lo > cursor:
            segments.append((cursor, lo))
        cursor = max(cursor, hi)
    if cursor < end:
        segments.append((cursor, end))
    return segments


def _metric_name(span_name: str) -> str:
    if span_name in (OP, WORKER_TASK):
        return "trace.unattributed_s"
    if span_name == POOL:
        return "engine.pool_wait_s"
    return span_name + "_s"


def _pid(span: tuple) -> int:
    return span[0] // 1_000_000_000


def _shared(lo: float, hi: float, workers: list[tuple],
            totals: dict[str, float]) -> None:
    """Share [lo, hi) among the worker self segments active in it."""
    events = []
    for seg_lo, seg_hi, name in workers:
        a, b = max(seg_lo, lo), min(seg_hi, hi)
        if a < b:
            events.append((a, 1, name))
            events.append((b, 0, name))
    events.sort()
    active: dict[str, int] = defaultdict(int)
    running = 0
    cursor = lo
    for t, kind, name in events:
        if t > cursor:
            if running:
                share = (t - cursor) / running
                for active_name, n in active.items():
                    if n:
                        totals[active_name] += share * n
            else:
                totals["engine.pool_wait_s"] += t - cursor
            cursor = t
        if kind:
            active[name] += 1
            running += 1
        else:
            active[name] -= 1
            running -= 1
    if cursor < hi:
        totals["engine.pool_wait_s"] += hi - cursor


def breakdown(spans: list[tuple]) -> dict[str, float]:
    """Per-layer self seconds of one op; they sum to the op's wall time."""
    by_id = {span[0]: span for span in spans}
    root = next(span for span in spans if span[2] == OP)
    main_pid = _pid(root)
    kids: dict[int, list[tuple]] = defaultdict(list)
    for span in spans:
        parent = by_id.get(span[1])
        if parent is not None and _pid(parent) == _pid(span):
            kids[parent[0]].append(span)

    # Worker self segments, grouped by the benchmark-process span (the
    # pool map) they ran under.
    anchors: dict[int, Optional[int]] = {}

    def anchor(span: tuple) -> Optional[int]:
        if span[0] not in anchors:
            parent = by_id.get(span[1])
            if parent is None:
                anchors[span[0]] = None
            elif _pid(parent) == main_pid:
                anchors[span[0]] = parent[0]
            else:
                anchors[span[0]] = anchor(parent)
        return anchors[span[0]]

    worker_segments: dict[int, list[tuple]] = defaultdict(list)
    for span in spans:
        if _pid(span) != main_pid and anchor(span) is not None:
            name = _metric_name(span[2])
            worker_segments[anchor(span)].extend(
                (lo, hi, name) for lo, hi in _self_segments(span,
                                                            kids[span[0]]))

    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        if _pid(span) != main_pid:
            continue
        segments = _self_segments(span, kids[span[0]])
        if span[0] in worker_segments:
            for lo, hi in segments:
                _shared(lo, hi, worker_segments[span[0]], totals)
        else:
            name = _metric_name(span[2])
            for lo, hi in segments:
                totals[name] += hi - lo
    return dict(totals)


#: Self-time metrics, one per layer; they sum to the op's wall time.
SELF_TIMES = (
    "graph.build_s", "compiler.compile_s", "sim.lower_s", "sim.replay_s",
    "sim.grid_s", "engine.pool_wait_s", "engine.cache_get_s",
    "engine.cache_put_s", "workloads.traffic_s", "cluster.simulate_s",
    "faults.schedule_s", "serving.tables_s", "serving.continuous_s",
    "gc.pause_s", "trace.unattributed_s",
)


def op_metrics(spans: list[tuple]) -> dict[str, float]:
    """Self times plus the per-layer counts and ratios of one op."""
    times = breakdown(spans)
    by_name: dict[str, list[tuple]] = defaultdict(list)
    for span in spans:
        by_name[span[2]].append(span)

    def calls(name: str) -> int:
        return len(by_name[name])

    def values(name: str) -> list:
        return [span[6] for span in by_name[name] if span[6] is not None]

    metrics: dict[str, float] = {name: times.get(name, 0.0)
                                 for name in SELF_TIMES}
    compiles = calls("compiler.compile")
    grid_points = sum(values("sim.grid"))
    lookups = calls("engine.cache_get")
    widths = values(POOL)
    pool_maps = sum(1 for width in widths if width > 1)
    tokens = values("serving.continuous")
    computed = sum(t[1] for t in tokens)
    metrics.update({
        "graph.build_calls": calls(GRAPH),
        "compiler.compile_calls": compiles,
        "compiler.points_per_compile":
            (grid_points + calls("sim.replay")) / compiles
            if compiles else 0.0,
        "sim.lower_calls": calls("sim.lower"),
        "sim.replay_calls": calls("sim.replay"),
        "sim.grid_calls": calls("sim.grid"),
        "sim.grid_points": grid_points,
        "engine.pool_workers": max(widths, default=0),
        "engine.pool_retries": calls(POOL_START) - pool_maps,
        "engine.cache_lookups": lookups,
        "engine.cache_hit_rate":
            sum(values("engine.cache_get")) / lookups if lookups else 0.0,
        "workloads.traffic_calls": calls("workloads.traffic"),
        "workloads.traffic_requests": sum(values("workloads.traffic")),
        "cluster.simulate_calls": calls("cluster.simulate"),
        "serving.continuous_calls": calls("serving.continuous"),
        "serving.goodput_fraction":
            sum(t[0] for t in tokens) / computed if computed else 1.0,
        "gc.collections": calls(GC),
    })
    return metrics

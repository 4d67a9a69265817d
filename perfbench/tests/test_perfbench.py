"""Tests of the benchmark itself, at the smallest input sizes.

Run from the checkout root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import spans
from perfbench.child import load_digests, run_ops, scale_key
from perfbench.compare import compare, verdict
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SMALL = 0.02


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _traced_ops(name: str, scale: float, tmp_path: Path) -> list[dict]:
    workload = WORKLOADS[name]
    tracer = spans.Tracer(tmp_path / "spool")
    uninstall = spans.install(tracer)
    try:
        return run_ops(workload, workload.inputs(1, scale), 0.0, None,
                       tracer)
    finally:
        uninstall()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_runs_without_failed_ops(name):
    proc = _bench("--workload", name, "--seed", "1", "--seconds", "1",
                  "--scale", str(SMALL), "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {"setup_s", "work_per_s",
                                      "peak_rss_mib"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    proc = _bench("--workload", "llm-chaos", "--seed", "1", "--seconds", "1",
                  "--scale", str(SMALL), "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = _result(proc)["metrics"]
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    for m in spec["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_stored_digest_matches_on_a_shipped_seed(name):
    workload = WORKLOADS[name]
    expected = load_digests()[name][scale_key(1.0)]["0"]
    [record] = run_ops(workload, workload.inputs(0, 1.0), 0.0, expected)
    assert record["check"] == "ok" and not record["failed"]


def test_unit_counts_match_the_op_outputs():
    dse = WORKLOADS["dse-sweep"]
    chips, apps = dse.inputs(4, 0.5)
    candidates = dse.op((chips, apps))
    assert [c.chip for c in candidates] == list(chips)
    assert dse.work((chips, apps), candidates) == len(chips) * len(apps)

    llm = WORKLOADS["llm-chaos"]
    inputs = llm.inputs(4, SMALL)
    rows = llm.op(inputs)
    assert llm.work(inputs, rows) == sum(r.stats.tokens_generated
                                         for r in rows)

    fleet = WORKLOADS["fleet-day"]
    inputs = fleet.inputs(4, SMALL)
    stats = fleet.op(inputs)
    assert len(stats) == 2 and stats[0].requests == stats[1].requests
    assert fleet.work(inputs, stats) == sum(s.requests for s in stats)


def test_a_corrupted_digest_counts_as_a_failure():
    workload = WORKLOADS["fleet-day"]
    [record] = run_ops(workload, workload.inputs(1, SMALL), 0.0, "0" * 64)
    assert record["check"] == "mismatch" and record["failed"]


def test_a_raising_op_counts_as_a_failure():
    def broken(inputs):
        raise ValueError("boom")

    workload = dataclasses.replace(WORKLOADS["fleet-day"], op=broken)
    [record] = run_ops(workload, workload.inputs(1, SMALL), 0.0, None)
    assert record["check"] == "error" and record["failed"]
    assert "boom" in record["detail"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_layer_self_times_partition_the_op_wall_time(name, tmp_path):
    [record] = _traced_ops(name, SMALL, tmp_path)
    self_times = {k: v for k, v in record["layers"].items()
                  if k in spans.SELF_TIMES}
    assert all(0 <= v <= record["wall_s"] for v in self_times.values())
    assert sum(self_times.values()) == pytest.approx(record["wall_s"],
                                                     rel=0.02)


def test_fleet_day_latency_table_is_spanned(tmp_path):
    [record] = _traced_ops("fleet-day", SMALL, tmp_path)
    assert record["layers"]["serving.tables_s"] > 0


def test_pool_worker_spans_reach_the_parent(tmp_path):
    # Two chips give the default sweep a two-process pool where the
    # machine has two CPUs; each of the 16 points compiles once.
    [record] = _traced_ops("dse-sweep", 2 / 9, tmp_path)
    layers = record["layers"]
    if layers["engine.pool_workers"] < 2:
        pytest.skip("one CPU: the sweep runs in-process")
    assert layers["compiler.compile_calls"] == 16
    assert layers["compiler.compile_s"] > 0
    assert sum(layers[k] for k in spans.SELF_TIMES) == pytest.approx(
        record["wall_s"], rel=0.02)


def test_breakdown_shares_pool_time_among_busy_workers():
    main, w1, w2 = 1, 2, 3

    def sid(pid, n):
        return pid * 1_000_000_000 + n

    trace = [
        (sid(main, 1), None, spans.OP, 0.0, 10.0, 1, None),
        (sid(main, 2), sid(main, 1), spans.POOL, 1.0, 9.0, 1, 2),
        (sid(w1, 1), sid(main, 2), spans.WORKER_TASK, 2.0, 6.0, 1, None),
        (sid(w1, 2), sid(w1, 1), "compiler.compile", 2.0, 6.0, 1, None),
        (sid(w2, 1), sid(main, 2), spans.WORKER_TASK, 4.0, 8.0, 1, None),
        (sid(w2, 2), sid(w2, 1), spans.GC, 4.0, 5.0, 1, None),
    ]
    times = spans.breakdown(trace)
    assert sum(times.values()) == pytest.approx(10.0)
    # 2-4: w1 alone; 4-5: w1 compile and w2 gc share; 5-6: w1 compile
    # and w2 task share; 6-8: w2 alone; 1-2 and 8-9: nobody busy.
    assert times["compiler.compile_s"] == pytest.approx(2 + 0.5 + 0.5)
    assert times["gc.pause_s"] == pytest.approx(0.5)
    assert times["engine.pool_wait_s"] == pytest.approx(2.0)
    assert times["trace.unattributed_s"] == pytest.approx(2 + 0.5 + 2)


@pytest.mark.parametrize("flag,value", [
    ("--seed", "nan"), ("--seed", "inf"), ("--seed", "-1"),
    ("--seed", "1.5"), ("--scale", "nan"), ("--scale", "inf"),
    ("--scale", "-0.5"), ("--scale", "0"), ("--seconds", "nan"),
])
def test_bad_arguments_are_rejected_by_their_own_value(flag, value):
    args = {"--workload": "fleet-day", "--seed": "1", "--seconds": "1",
            "--scale": str(SMALL), "--trace": "0"}
    args[flag] = value
    proc = _bench(*[part for pair in args.items() for part in pair])
    assert proc.returncode == 2
    assert repr(value) in proc.stderr
    assert '"correct"' not in proc.stdout


def test_without_the_program_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "fleet-day", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_verdicts():
    base = [100.0, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    faster = [v * 1.2 for v in base]
    pairs = list(zip(base, faster))
    assert verdict(base, faster, pairs, "higher", 0.1) == "better"
    assert verdict(faster, base, list(zip(faster, base)), "higher",
                   0.1) == "worse"
    same = [v + 0.1 for v in base[::-1]]
    assert verdict(base, same, list(zip(base, same)), "higher",
                   0.1) == "within bound"
    noisy = [50.0, 150, 60, 140, 70, 130, 80, 120, 90, 110]
    assert verdict(noisy, base, list(zip(noisy, base)), "higher",
                   0.1) == "unresolved"
    assert verdict(base, same, list(zip(base, same)), "higher",
                   None) == "no change shown"


def _saved(seed: int, rate: float, failed: int = 0) -> dict:
    return {"workload": "fleet-day", "fingerprint": {"seed": seed},
            "correct": failed == 0, "attempted": 10, "failed": failed,
            "metrics": {"work_per_s": {"value": rate, "unit": "1/s"}},
            "tails": {"op_p90_s": {"value": 1 / rate, "unit": "s",
                                   "samples": 10}}}


def test_compare_counts_failed_ops_and_withholds_a_gain():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base = [_saved(seed, 100.0 + seed % 3) for seed in range(10)]
    new = [_saved(seed, 130.0 + seed % 3) for seed in range(10)]
    new.append(_saved(10, 1.0, failed=2))
    lines = compare(base, new, spec)
    assert any(line.startswith("warning: 1 new result(s) had failed ops")
               for line in lines)
    [errors] = [line for line in lines if "op_error_rate" in line]
    assert "(0/100 ops)" in errors and "(2/110 ops)" in errors
    assert errors.endswith("worse")
    [rate] = [line for line in lines if "work_per_s" in line]
    assert rate.endswith("unresolved (more failed ops)")
    [p90] = [line for line in lines if "op_p90_s" in line]
    assert p90.endswith("unresolved (more failed ops)")
    assert compare(base, new[:-1], spec)[-2].endswith("better")


def test_benchmark_json_names_the_workloads_with_their_reasons():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["workloads"] == [{"name": w.name, "why": w.why}
                                 for w in WORKLOADS.values()]

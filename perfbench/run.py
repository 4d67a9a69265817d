#!/usr/bin/env python3
"""Host-time benchmark of the repro simulator stack.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dse-sweep --seed 3 --seconds 30 \\
        --trace 0

runs one workload as a closed loop in a fresh process and prints, after
every op, each end-to-end metric with its unit; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics
(``setup_s`` and ``work_per_s`` as medians over the run's set-ups and
ops, ``peak_rss_mib``), and prints and saves the 90th percentile op
time with its sample count beside them; ``--trace 1`` spends
half the time untraced and half traced, in two fresh processes, and
reports the per-layer metrics of the traced half plus the tracing
overhead. Every result, with its machine fingerprint, is also saved
under ``.perfbench/results/``, and the traced run's spans under
``.perfbench/trace/``.

    python3 perfbench/run.py compare BASE_DIR NEW_DIR

compares two sets of saved results (see :mod:`perfbench.compare`), and

    python3 perfbench/run.py digests --seeds 0-99

recomputes the reference output digests the runs are checked against.

All numbers are host time and memory of the simulator. Simulated
outputs are checked for bit-identity against the stored digests; the
model itself is not validated against hardware, so no accuracy figure
is given.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
#: Set-ups timed per run, half before and half after the ops: a slow
#: stretch of the shared host at either end then moves the median less.
SETUP_SAMPLES = 12
#: A run must end within 180 s; children get what is left of this.
DEADLINE_S = 170.0


class UsageError(Exception):
    """Bad command-line input; reported without a result line."""


# ----------------------------------------------------------- argument checks

def parse_seed(text: str) -> int:
    """A workload seed: a non-negative integer, named back on rejection."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or value < 0 or value != int(value):
        raise argparse.ArgumentTypeError(
            f"seed must be a non-negative integer, got {text!r}")
    return int(value)


def parse_scale(text: str) -> float:
    """An input-size factor: a positive finite number (1 is full size)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(
            f"scale must be a positive finite number, got {text!r}")
    return value


def parse_seconds(text: str) -> float:
    """A measuring time in seconds: positive and finite."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(
            f"seconds must be a positive finite number, got {text!r}")
    return value


# --------------------------------------------------------------- processes

def _env() -> dict:
    """Child environment: the checkout's sources, no engine toggles."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:  # already gone
        pass


def _run_child(args: list[str], deadline: float) -> None:
    """Run ``python3 -m perfbench.child`` and wait; kill its whole
    process group (pool workers too) if it outlives ``deadline``.

    The wait blocks: a polling wait (``Popen.wait(timeout=...)``) sleeps
    in steps of up to 50 ms, which would quantize the set-up times.
    """
    command = [sys.executable, "-m", "perfbench.child", *args]
    child = subprocess.Popen(
        command, cwd=ROOT, env=_env(), start_new_session=True)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()),
                               _kill_group, (child.pid,))
    watchdog.start()
    try:
        code = child.wait()
    finally:
        watchdog.cancel()
        if child.poll() is None:
            _kill_group(child.pid)
            child.wait()
    if code == -signal.SIGKILL and time.monotonic() >= deadline:
        raise RuntimeError("benchmark child ran past its deadline")
    if code != 0:
        raise RuntimeError(f"benchmark child exited with code {code}")


def fingerprint(seed: int) -> dict:
    """What a result depends on besides the code."""
    import numpy
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        cpus = os.cpu_count() or 1
    return {"seed": seed, "cpus": cpus,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


# -------------------------------------------------------------- one run

def _measure(workload: str, seed: int, scale: float, seconds: float,
             traced: bool, setup_s: Optional[float], tag: str,
             deadline: float) -> dict:
    out = OUT / "runs" / f"{tag}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    args = ["--workload", workload, "--seed", str(seed),
            "--scale", repr(scale), "--seconds", repr(seconds),
            "--trace", str(int(traced)), "--out", str(out)]
    if setup_s is not None:
        args += ["--setup-s", repr(setup_s)]
    if traced:
        args += ["--trace-out", str(OUT / "trace" / f"{tag}.json")]
    try:
        _run_child(args, deadline)
        with out.open() as result:
            return json.load(result)
    finally:
        out.unlink(missing_ok=True)


def p90(values: list[float]) -> float:
    """The 90th percentile of ``values`` (inclusive quantiles)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def _setup_samples(workload: str, seed: int, scale: float,
                   deadline: float) -> list[float]:
    """Wall times of fresh processes that import and build the inputs."""
    samples = []
    for _ in range(SETUP_SAMPLES // 2):
        begin = time.perf_counter()
        _run_child(["--workload", workload, "--seed", str(seed),
                    "--scale", repr(scale), "--setup-only"], deadline)
        samples.append(time.perf_counter() - begin)
    return samples


def _spec() -> dict:
    with (ROOT / "BENCHMARK.json").open() as spec:
        return json.load(spec)


def _median_wall(child: dict) -> float:
    return statistics.median(r["wall_s"] for r in child["records"])


def _rates(records: list[dict]) -> list[float]:
    return [r["work"] / r["wall_s"] for r in records if not r["failed"]]


def run(workload: str, seed: int, scale: float, seconds: float,
        traced: bool) -> dict:
    """Measure one workload; returns the result saved and printed."""
    deadline = time.monotonic() + DEADLINE_S
    tag = f"{workload}-seed{seed}-trace{int(traced)}-{time.time_ns()}"
    if traced:
        plain = _measure(workload, seed, scale, seconds / 2, False, None,
                         tag + "-plain", deadline)
        spanned = _measure(workload, seed, scale, seconds / 2, True, None,
                           tag, deadline)
        children = [plain, spanned]
        overhead_pct = 100.0 * (_median_wall(spanned) / _median_wall(plain)
                                 - 1)
        tails = {}
        metrics = {}
        for metric in _spec()["per_layer"]:
            name = metric["name"]
            value = overhead_pct if name == "trace.overhead_pct" else \
                statistics.median(r["layers"][name]
                                  for r in spanned["records"])
            metrics[name] = {"value": value, "unit": metric["unit"]}
    else:
        setup = _setup_samples(workload, seed, scale, deadline)
        only = _measure(workload, seed, scale, seconds, False,
                        statistics.median(setup), tag, deadline)
        setup += _setup_samples(workload, seed, scale, deadline)
        setup_s = statistics.median(setup)
        children = [only]
        rates = _rates(only["records"]) or [0.0]
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "work_per_s": {"value": statistics.median(rates),
                           "unit": "1/s"},
            "peak_rss_mib": {"value": only["peak_rss_mib"], "unit": "MiB"},
        }
        op_s = [r["wall_s"] for r in only["records"] if not r["failed"]]
        tails = {"op_p90_s": {"value": p90(op_s or [0.0]), "unit": "s",
                              "samples": len(op_s)}}
        print(f"{len(setup)} set-ups, {len(rates)} timed ops; set-up and "
              "throughput are medians", flush=True)
    records = [r for child in children for r in child["records"]]
    failed = sum(r["failed"] for r in records)
    result = {
        "workload": workload, "scale": scale, "seconds": seconds,
        "trace": int(traced), "fingerprint": fingerprint(seed),
        "checked": all(child["checked"] for child in children),
        "correct": failed == 0, "attempted": len(records), "failed": failed,
        "op_error_rate": failed / len(records),
        "metrics": metrics, "tails": tails, "records": records,
    }
    saved = OUT / "results" / f"{tag}.json"
    saved.parent.mkdir(parents=True, exist_ok=True)
    with saved.open("w") as out:
        json.dump(result, out, indent=1)
    return result


# -------------------------------------------------------------- digests

def record_digests(seeds: list[int], workloads: list[str]) -> None:
    """Recompute reference digests at full size and merge them in."""
    from perfbench.child import DIGESTS, load_digests, scale_key
    from perfbench.workloads import WORKLOADS, reset_caches
    digests = load_digests()
    for name in workloads:
        workload = WORKLOADS[name]
        stored = digests.setdefault(name, {}).setdefault(scale_key(1.0), {})
        for seed in seeds:
            reset_caches()
            output = workload.op(workload.inputs(seed, 1.0))
            stored[str(seed)] = workload.digest(output)
            print(f"{name} seed {seed}: {stored[str(seed)]}", flush=True)
    with DIGESTS.open("w") as out:
        json.dump({"digests": digests}, out, indent=1, sort_keys=True)
        out.write("\n")


def _seed_range(text: str) -> list[int]:
    low, _, high = text.partition("-")
    first = parse_seed(low)
    return list(range(first, parse_seed(high) + 1 if high else first + 1))


# ----------------------------------------------------------------- main

def _require_sources() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise UsageError(f"no repro sources under {ROOT / 'src'}; run from "
                         "the root of a full checkout")
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Run as a script, this file's directory heads sys.path; the package
    # is imported from the checkout root instead.
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [p for p in sys.path if p != here]
    try:
        if argv[:1] == ["compare"]:
            sys.path.insert(0, str(ROOT))
            from perfbench.compare import main as compare_main
            return compare_main(argv[1:])
        _require_sources()
        from perfbench.workloads import WORKLOADS
        if argv[:1] == ["digests"]:
            parser = argparse.ArgumentParser(prog="run.py digests")
            parser.add_argument("--seeds", type=_seed_range,
                                default=list(range(100)))
            parser.add_argument("--workload", choices=WORKLOADS,
                                action="append")
            args = parser.parse_args(argv[1:])
            record_digests(args.seeds, args.workload or list(WORKLOADS))
            return 0
        parser = argparse.ArgumentParser(prog="run.py")
        parser.add_argument("--workload", required=True, choices=WORKLOADS)
        parser.add_argument("--seed", type=parse_seed, required=True)
        parser.add_argument("--seconds", type=parse_seconds, default=30.0)
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
        parser.add_argument("--scale", type=parse_scale, default=1.0,
                            help="input size factor (1 = full size)")
        args = parser.parse_args(argv)
        result = run(args.workload, args.seed, args.scale, args.seconds,
                     bool(args.trace))
    except (UsageError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    checked = ("checked against stored digests" if result["checked"]
               else "unchecked (no stored digest for this seed)")
    print(f"{args.workload}: {result['attempted']} ops, "
          f"{result['failed']} failed, op_error_rate="
          f"{result['op_error_rate']:.6g} ratio, outputs {checked}; "
          f"work unit = {WORKLOADS[args.workload].unit}")
    print("fingerprint: " + json.dumps(result["fingerprint"]))
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for name, metric in result["tails"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']} "
              f"(90th percentile of {metric['samples']} ops)")
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Compare two sets of saved benchmark results, metric by metric.

``python3 perfbench/run.py compare BASE NEW`` reads every result file
(``.perfbench/results/*.json``, copied aside per commit) under the two
paths and prints, for each workload and metric, the median and
quartiles of each side and a verdict:

* ``better`` — the new side wins at least nine tenths of the pairs
  (runs with the same seed; ties count for neither) and the medians
  differ by more than the base side's interquartile distance;
* ``unresolved`` — a side's spread (interquartile distance over median)
  is wider than the metric's bound, unless every new run reads better
  than every base run;
* ``worse`` — the new median is worse than the base median by more than
  the bound;
* ``within bound`` — otherwise.

Metrics without a bound (the per-layer ones, and the 90th percentile
op time ``op_p90_s`` saved beside the end-to-end medians) get
``better``, ``worse`` (the same nine-tenths rule the other way) or
``no change shown``. The bounds and directions come from
``BENCHMARK.json``. A warning is printed when the two sides ran on
machines with different fingerprints.

Failed ops are compared too: an ``op_error_rate`` row per workload
counts failed over attempted ops across every result of a side. A
result with a failed op is left out of the metric rows, with a warning,
and no metric of a workload is called ``better`` when the new side
fails a larger share of its ops than the base side.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent


def load_results(path: Path) -> list[dict]:
    files = sorted(path.rglob("*.json")) if path.is_dir() else [path]
    results = []
    for file in files:
        with file.open() as stored:
            result = json.load(stored)
        if "fingerprint" in result and "metrics" in result:
            results.append(result)
    return results


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], new: list[float],
            pairs: list[tuple[float, float]], better: str,
            bound: Optional[float], more_failures: bool = False) -> str:
    """Section-8 verdict of ``new`` against ``base`` for one metric;
    ``more_failures``: the new side failed a larger share of its ops."""
    sign = 1.0 if better == "higher" else -1.0
    b1, b2, b3 = quartiles(base)
    n1, n2, n3 = quartiles(new)
    gain = sign * (n2 - b2)
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    losses = sum(1 for b, n in pairs if sign * (n - b) < 0)
    if pairs and wins >= 0.9 * len(pairs) and gain > b3 - b1:
        return "unresolved (more failed ops)" if more_failures else "better"
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and -gain > b3 - b1:
            return "worse"
        return "no change shown"
    spread = max((b3 - b1) / abs(b2) if b2 else 0.0,
                 (n3 - n1) / abs(n2) if n2 else 0.0)
    all_better = min(sign * n for n in new) > max(sign * b for b in base)
    if spread > bound and not all_better:
        return "unresolved"
    if b2 and -gain / abs(b2) > bound:
        return "worse"
    return "within bound"


def _machine(result: dict) -> tuple:
    return tuple(sorted((k, v) for k, v in result["fingerprint"].items()
                        if k != "seed"))


def _failures(results: list[dict]) -> dict[str, tuple[int, int]]:
    """workload -> (failed, attempted) ops over every result."""
    counts: dict[str, tuple[int, int]] = {}
    for result in results:
        failed, attempted = counts.get(result["workload"], (0, 0))
        counts[result["workload"]] = (failed + result["failed"],
                                      attempted + result["attempted"])
    return counts


def _rate(counts: tuple[int, int]) -> float:
    failed, attempted = counts
    return failed / attempted if attempted else 0.0


def compare(base: list[dict], new: list[dict], spec: dict) -> list[str]:
    """Report lines for every (workload, metric) both sides measured."""
    directions = {m["name"]: (m["better"], m.get("bound"))
                  for m in spec["end_to_end"] + spec["per_layer"]}
    directions["op_p90_s"] = ("lower", None)
    lines = []
    machines = {_machine(r) for r in base} | {_machine(r) for r in new}
    if len(machines) > 1:
        lines.append("warning: the results come from machines with "
                     "different fingerprints: "
                     + "; ".join(str(dict(m)) for m in sorted(machines)))
    for side, results in (("base", base), ("new", new)):
        excluded = [r for r in results if not r["correct"]]
        if excluded:
            lines.append(
                f"warning: {len(excluded)} {side} result(s) had failed ops "
                "and are left out of the metric rows: "
                + ", ".join(sorted({r["workload"] for r in excluded})))

    def by_key(results):
        grouped = defaultdict(lambda: defaultdict(list))
        for result in results:
            if not result["correct"]:
                continue
            seed = result["fingerprint"]["seed"]
            metrics = {**result["metrics"], **result.get("tails", {})}
            for name, metric in metrics.items():
                grouped[(result["workload"], name)][seed].append(
                    metric["value"])
        return grouped

    base_failed, new_failed = _failures(base), _failures(new)
    base_values, new_values = by_key(base), by_key(new)
    lines.append(f"{'workload':<10} {'metric':<28} {'base median [q1, q3]':>36}"
                 f" {'new median [q1, q3]':>36} {'change':>8}  verdict")
    for workload in sorted(set(base_failed) & set(new_failed)):
        b, n = base_failed[workload], new_failed[workload]
        b_text, n_text = (f"{_rate(c):.6g} ({c[0]}/{c[1]} ops)"
                          for c in (b, n))
        lines.append(f"{workload:<10} {'op_error_rate':<28} {b_text:>36} "
                     f"{n_text:>36} {'':>8}  "
                     + ("worse" if _rate(n) > _rate(b) else
                        "better" if _rate(n) < _rate(b) else "same"))
    for key in sorted(set(base_values) & set(new_values)):
        workload, name = key
        if name not in directions:
            continue
        better, bound = directions[name]
        b_seeds, n_seeds = base_values[key], new_values[key]
        base_all = [v for vs in b_seeds.values() for v in vs]
        new_all = [v for vs in n_seeds.values() for v in vs]
        pairs = [pair for seed in sorted(set(b_seeds) & set(n_seeds))
                 for pair in zip(b_seeds[seed], n_seeds[seed])]
        b1, b2, b3 = quartiles(base_all)
        n1, n2, n3 = quartiles(new_all)
        change = f"{100 * (n2 / b2 - 1):+.1f}%" if b2 else "n/a"
        more_failures = (_rate(new_failed[workload])
                         > _rate(base_failed[workload]))
        lines.append(
            f"{workload:<10} {name:<28} "
            f"{f'{b2:.6g} [{b1:.6g}, {b3:.6g}]':>36} "
            f"{f'{n2:.6g} [{n1:.6g}, {n3:.6g}]':>36} {change:>8}  "
            + verdict(base_all, new_all, pairs, better, bound,
                      more_failures))
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: run.py compare BASE_RESULTS NEW_RESULTS",
              file=sys.stderr)
        return 2
    base, new = (load_results(Path(arg)) for arg in argv)
    if not base or not new:
        print("error: no result files under "
              + " and ".join(a for a, r in zip(argv, (base, new)) if not r),
              file=sys.stderr)
        return 2
    with (ROOT / "BENCHMARK.json").open() as spec:
        lines = compare(base, new, json.load(spec))
    print("\n".join(lines))
    return 0

"""One workload run in a fresh process (started by :mod:`perfbench.run`).

``python3 -m perfbench.child --workload W --seed N --scale F --seconds S
--trace 0|1 --out FILE`` builds the workload's inputs, then runs ops
back to back until ``S`` seconds have passed. Before every op the
process caches are reset; after every op its output is checked and the
end-to-end metrics so far are printed. The run's records go to ``FILE``
as JSON. ``--setup-only`` stops after building the inputs, which is
what :mod:`perfbench.run` times as ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Optional

from perfbench import spans
from perfbench.workloads import WORKLOADS, Workload, reset_caches

DIGESTS = Path(__file__).resolve().parent / "digests.json"


def scale_key(scale: float) -> str:
    return repr(float(scale))


def load_digests(path: Path = DIGESTS) -> dict:
    """workload -> scale key -> seed (str) -> reference output digest."""
    if not path.is_file():
        return {}
    with path.open() as stored:
        return json.load(stored)["digests"]


def peak_rss_mib() -> float:
    """Peak RSS of this process plus its largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_ops(workload: Workload, inputs, seconds: float,
            expected: Optional[str], tracer=None,
            report: Callable[[dict], None] = lambda record: None
            ) -> list[dict]:
    """Closed loop: cold op, check, report, until ``seconds`` have passed.

    ``expected`` is the stored digest for these inputs, or None, in which
    case the first op's digest is only held to by the later ops and the
    op is reported as unchecked. A raise or a mismatch is a failed op.
    """
    records: list[dict] = []
    first_digest: Optional[str] = None
    started = time.perf_counter()
    while not records or time.perf_counter() - started < seconds:
        reset_caches()
        op_id = len(records) + 1
        if tracer is not None:
            tracer.op = op_id
            opened = tracer.open()
        begin = time.perf_counter()
        output = error = None
        try:
            output = workload.op(inputs)
        except Exception as exc:  # a raising op is a failed op, not a crash
            error = f"{type(exc).__name__}: {exc}"
            failure = traceback.format_exc()
        wall = time.perf_counter() - begin
        record: dict = {"op": op_id, "wall_s": wall}
        if tracer is not None:
            tracer.close(opened, spans.OP)
            tracer.op = None
            tracer.collect_spool()
            record["layers"] = spans.op_metrics(
                [s for s in tracer.spans if s[5] == op_id])
        if error is not None:
            record.update(check="error", failed=True, detail=error,
                          traceback=failure)
        else:
            digest = workload.digest(output)
            record.update(work=workload.work(inputs, output), digest=digest)
            if expected is not None:
                record["check"] = "ok" if digest == expected else "mismatch"
            elif first_digest is None or digest == first_digest:
                record["check"] = "unchecked"
            else:
                record["check"] = "mismatch"
            record["failed"] = record["check"] == "mismatch"
            if first_digest is None:
                first_digest = digest
        records.append(record)
        report(record)
    return records


def _printer(workload: Workload,
             setup_s: Optional[float]) -> Callable[[dict], None]:
    failures = []

    def report(record: dict) -> None:
        failures.append(record["failed"])
        rate = sum(failures) / len(failures)
        work = record.get("work", 0)
        per_s = work / record["wall_s"]
        print(f"{workload.name} op {record['op']}: "
              f"{workload.unit}_per_s={per_s:.6g} {workload.unit}/s "
              f"work_per_s={per_s:.6g} 1/s "
              + (f"setup_s={setup_s:.6g} s " if setup_s is not None else "")
              + f"peak_rss_mib={peak_rss_mib():.6g} MiB "
              f"op_error_rate={rate:.6g} ratio "
              f"op_s={record['wall_s']:.6g} s "
              f"check={record['check']}"
              + (f" ({record['detail']})" if "detail" in record else ""),
              flush=True)

    return report


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.child")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-s", type=float,
                        help="set-up time measured before the ops, "
                        "printed with each op")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed, args.scale)
    if args.setup_only:
        return 0

    expected = (load_digests().get(workload.name, {})
                .get(scale_key(args.scale), {}).get(str(args.seed)))
    tracer = uninstall = None
    if args.trace:
        tracer = spans.Tracer(args.out.parent / f"spool-{args.out.stem}")
        uninstall = spans.install(tracer)
    try:
        records = run_ops(workload, inputs, args.seconds, expected, tracer,
                          _printer(workload, args.setup_s))
    finally:
        if uninstall is not None:
            uninstall()
            shutil.rmtree(tracer.spool_dir, ignore_errors=True)
    if tracer is not None and args.trace_out is not None:
        tracer.write(args.trace_out)
    with args.out.open("w") as out:
        json.dump({"records": records, "peak_rss_mib": peak_rss_mib(),
                   "checked": expected is not None}, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

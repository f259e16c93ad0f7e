"""One round of a workload in a fresh process: import masckit, build the
inputs, run every operation once, and print one JSON object on stdout.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1

The printed object holds `first_op` (time.monotonic() just before the first
operation, so the parent can take set-up time from its own spawn time), the
per-operation latencies, errors and result records, the round's wall time,
the process's peak RSS read right after the last operation, and, traced, the
spans. Each record is built right after its operation and the result is
dropped, so the round holds no more than the program does; building records
is left out of the wall time. Run by run.py; not meant to be started by hand.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import masckit  # noqa: E402
import masckit.dft  # noqa: E402
import masckit.recovery  # noqa: E402

from tracing import NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS, plan  # noqa: E402


def peak_rss() -> int:
    """This process's peak resident set in KiB (VmHWM). Not ru_maxrss: the
    kernel carries the parent's peak into a spawned child's ru_maxrss, so
    it read run.py's memory (90 MB on dft-trials, whose rounds peak at
    53 MB) and grew with the rounds run.py had collected."""
    for line in pathlib.Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    tracer = NullTracer()
    if args.trace:
        tracer = Tracer()
        # the calls one layer makes into another, so `lp` and `linalg` get
        # their own spans inside `recovery` and `dft`
        tracer.wrap(masckit.recovery, "solve_standard_lp", "lp.solve_standard_lp")
        tracer.wrap(masckit.dft, "dft_matrix", "linalg.dft_matrix")
    ops = plan(args.workload, masckit, args.seed, tracer)
    setup_spans = len(tracer.spans)
    first_op = time.monotonic()

    records, errors, latency_ns = [], [], []
    clock = time.perf_counter_ns
    untimed_ns = 0
    start = clock()
    for op in ops:
        t0 = clock()
        try:
            res = tracer.call(op.name, op.tag, op.run)
        except Exception as exc:  # a failed operation is counted, not fatal
            res = exc
        t1 = clock()
        latency_ns.append(t1 - t0)
        if isinstance(res, Exception):
            records.append(None)
            errors.append(f"{op.name}: {type(res).__name__}: {res}")
        else:
            records.append(op.record(res))
            errors.append(None)
        del res
        untimed_ns += clock() - t1
    wall_ns = clock() - start - untimed_ns
    peak_rss_kb = peak_rss()
    print(json.dumps({
        "first_op": first_op,
        "wall_ns": wall_ns,
        "peak_rss_kb": peak_rss_kb,
        "ops": [[op.name, op.tag] for op in ops],
        "latency_ns": latency_ns,
        "errors": errors,
        "records": records,
        "setup_spans": setup_spans,
        "spans": tracer.spans,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

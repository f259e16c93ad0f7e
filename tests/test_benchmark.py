"""One traced benchmark round per workload, as `perfbench/run.py` starts it.

run.py refuses a run when a worker exits non-zero, outlives the child
timeout or prints more than its one JSON line, and marks it incorrect when
an operation fails outside the known faults. This runs each workload's
worker once (seed 1, one BLAS thread, traced, so the attributes the tracer
wraps must exist) and applies the same tests. It reads perfbench and edits
none of it.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import checks  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_worker_round(workload):
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), "--workload", workload,
         "--seed", "1", "--trace", "1"],
        cwd=PERFBENCH.parent, capture_output=True, text=True,
        timeout=run.CHILD_TIMEOUT_S, env={**os.environ, **run.ONE_THREAD},
    )
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 1
    out = json.loads(proc.stdout)
    ops = [tuple(op) for op in out["ops"]]
    errors = [e for op, e in zip(ops, out["errors"]) if e and op not in wl.KNOWN_FAULTS]
    assert errors == []
    problems, _ = checks.check(workload, out["ops"], out["records"])
    flagged = [f"{op}[{i}]: {'; '.join(p)}" for i, (op, p) in enumerate(zip(ops, problems))
               if p and op not in wl.KNOWN_FAULTS]
    assert flagged == []
    # the traced metrics run.py derives from the spans
    assert run.per_layer([out])

#!/usr/bin/env python3
"""masckit benchmark: one workload, measured for a given time.

    python3 perfbench/run.py --workload dft-trials|er-sweep|certify \\
        --seed N --seconds S --trace 0|1

Run from the root of a masckit checkout; masckit is imported from its
`src/`. The workload's operations run as a closed loop (one client, each
call issued when the previous one returns) in rounds: each round is a fresh
process (perfbench/worker.py) that imports masckit, builds the seeded inputs
and runs the workload's fixed list of operations once. Rounds repeat, at
least twice, while the time left holds at least half a round, so every run
attempts whole rounds. Afterwards, untimed, every round's outputs must equal
the first round's, and the first round's outputs go through the independent
checks in oracles.py.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
from spans (written to .perfbench/spans-<workload>-<seed>.json). The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from tracing import self_times  # noqa: E402
import workloads as wl  # noqa: E402

# set-up and wall time are medians over at least this many rounds
MIN_ROUNDS = 2
CHILD_TIMEOUT_S = 150
# one client, one thread: BLAS helper threads only contend with it (and,
# spinning, with anything else on the machine) at these matrix sizes
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def spawn(workload: str, seed: int, trace: int) -> dict:
    """Run one round's worker process; returns its JSON with `setup_s` added."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, env={**os.environ, **ONE_THREAD})
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    out = json.loads(proc.stdout)
    out["setup_s"] = out["first_op"] - spawned
    out["round_s"] = time.monotonic() - spawned
    return out


def run_rounds(workload: str, seed: int, seconds: float, trace: int) -> list:
    start = time.monotonic()
    rounds = []
    while len(rounds) < MIN_ROUNDS or (
            time.monotonic() - start
            + statistics.fmean(r["round_s"] for r in rounds) / 2 < seconds):
        rounds.append(spawn(workload, seed, trace))
    return rounds


def count_failures(workload: str, rounds: list) -> tuple[int, int, bool, list[str], int]:
    """Failed operations over all rounds: an operation fails when it raised,
    when its output differs from the first round's, or when the first
    round's output fails the checks (then it fails in every round). The run
    is correct when every failure is one of the known faults."""
    first = rounds[0]
    problems, boundary = checks.check(workload, first["ops"], first["records"])
    bad = [bool(p) for p in problems]
    notes = [f"{first['ops'][i]}[{i}]: {'; '.join(p)}" for i, p in enumerate(problems) if p]
    failed, correct = 0, True
    for r in rounds:
        for i, (rec, err) in enumerate(zip(r["records"], r["errors"])):
            if bad[i] or err is not None or rec != first["records"][i]:
                failed += 1
                correct &= tuple(first["ops"][i]) in wl.KNOWN_FAULTS
            if err is not None:
                notes.append(err)
            elif rec != first["records"][i]:
                notes.append(f"{first['ops'][i]}[{i}]: output differs from the first round's")
    return len(first["ops"]) * len(rounds), failed, correct, notes, boundary


def end_to_end(rounds: list) -> dict:
    lat_ms = np.concatenate([np.asarray(r["latency_ns"]) / 1e6 for r in rounds])
    p50, p90 = np.percentile(lat_ms, [50, 90])
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in rounds), "s"),
        "wall_s": (statistics.median(r["wall_ns"] / 1e9 for r in rounds), "s"),
        "op_p50_ms": (float(p50), "ms"),
        "op_p90_ms": (float(p90), "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_kb"] / 1024 for r in rounds), "MB"),
    }


class _Spans:
    """Span durations of one traced run, by (name, tag), per round."""

    def __init__(self, rounds):
        self.rounds = rounds
        self.self_ns = [self_times(r["spans"]) for r in rounds]

    def _match(self, r, name, tag):
        return [i for i, s in enumerate(r["spans"])
                if s[2] == name and (tag is None or s[3] == tag)]

    def durations_ms(self, name, tag=None) -> list[float]:
        return [(r["spans"][i][5] - r["spans"][i][4]) / 1e6
                for r in self.rounds for i in self._match(r, name, tag)]

    def busy_s(self, name, tag=None) -> float:
        return statistics.median(
            sum(r["spans"][i][5] - r["spans"][i][4] for i in self._match(r, name, tag)) / 1e9
            for r in self.rounds)

    def self_s(self, name) -> float:
        return statistics.median(
            sum(st[i] for i in self._match(r, name, None)) / 1e9
            for r, st in zip(self.rounds, self.self_ns))

    def pct_ms(self, q, name, tag=None) -> float:
        d = self.durations_ms(name, tag)
        return float(np.percentile(d, q)) if d else 0.0

    def rate(self, work_per_span, name, tag=None) -> float:
        """Work done per second of span time, over every round."""
        work = busy = 0.0
        for r in self.rounds:
            for i in self._match(r, name, tag):
                s = r["spans"][i]
                work += work_per_span(r, s)
                busy += (s[5] - s[4]) / 1e9
        return work / busy if busy else 0.0


def _op_record(r, span):
    """The result record of the operation whose root span is `span`."""
    roots = [s for s in r["spans"][r["setup_spans"]:] if s[1] == -1]
    return r["records"][roots.index(span)]


def _cycles_of_complete(k: int) -> int:
    return sum(math.comb(k, j) * math.factorial(j - 1) // 2 for j in range(3, k + 1))


def _scan_candidates(record) -> int:
    m = np.asarray(record["matrix"], dtype=float)
    n, rank = m.shape[1], int(np.linalg.matrix_rank(m))
    return sum(math.comb(n, t) for t in range(1, min(rank + 1, n) + 1))


def per_layer(rounds: list) -> dict:
    sp = _Spans(rounds)
    samples = {"large": wl.LARGE_SAMPLES, "small": wl.SMALL_SAMPLES}
    exact_gammas = math.comb(wl.EXACT_N, 2 * wl.EXACT_MBAR + 2)
    return {
        "recovery.recovery_trial.busy_s": (sp.busy_s("recovery.recovery_trial"), "s"),
        "recovery.recovery_trial.p50_ms": (sp.pct_ms(50, "recovery.recovery_trial"), "ms"),
        "recovery.recovery_trial.self_s": (sp.self_s("recovery.recovery_trial"), "s"),
        "recovery.trials_per_s": (sp.rate(lambda r, s: 1, "recovery.recovery_trial"), "1/s"),
        "recovery.random_sparse_signal.busy_s": (sp.busy_s("recovery.random_sparse_signal"), "s"),
        "lp.solve_standard_lp.busy_s": (sp.busy_s("lp.solve_standard_lp"), "s"),
        "lp.solve_standard_lp.p50_ms": (sp.pct_ms(50, "lp.solve_standard_lp"), "ms"),
        "lp.solve_standard_lp.p90_ms": (sp.pct_ms(90, "lp.solve_standard_lp"), "ms"),
        "dft.s_max_sampled.busy_s": (sp.busy_s("dft.s_max_sampled"), "s"),
        "dft.s_max_sampled.gammas_per_s": (
            sp.rate(lambda r, s: samples[s[3]], "dft.s_max_sampled"), "1/s"),
        "dft.s_max_exact.busy_s": (sp.busy_s("dft.s_max_exact"), "s"),
        "dft.s_max_exact.gammas_per_s": (
            sp.rate(lambda r, s: exact_gammas, "dft.s_max_exact"), "1/s"),
        "dft.masc_contains_dft.cold_ms": (sp.pct_ms(50, "dft.masc_contains_dft", "cold"), "ms"),
        "dft.masc_contains_dft.warm_p50_ms": (
            sp.pct_ms(50, "dft.masc_contains_dft", "warm"), "ms"),
        "dft.masc_contains_dft.sampled_p50_ms": (
            sp.pct_ms(50, "dft.masc_contains_dft", "sampled"), "ms"),
        "linalg.dft_matrix.busy_s": (sp.busy_s("linalg.dft_matrix"), "s"),
        "masc.enumerate_extreme_points.busy_s": (sp.busy_s("masc.enumerate_extreme_points"), "s"),
        "masc.enumerate_extreme_points.candidates_per_s": (
            sp.rate(lambda r, s: _scan_candidates(_op_record(r, s)),
                    "masc.enumerate_extreme_points"), "1/s"),
        "masc.masc_contains.p50_ms": (sp.pct_ms(50, "masc.masc_contains"), "ms"),
        "masc.nullspace_constant.busy_s": (sp.busy_s("masc.nullspace_constant"), "s"),
        "linalg.nullspace_basis.busy_s": (sp.busy_s("linalg.nullspace_basis"), "s"),
        "graphs.erdos_renyi.busy_s": (sp.busy_s("graphs.erdos_renyi"), "s"),
        "graphs.incidence_matrix.busy_s": (sp.busy_s("graphs.incidence_matrix"), "s"),
        "graphs.incidence_matrix.entries_per_s": (
            sp.rate(lambda r, s: math.prod(_op_record(r, s)["shape"]),
                    "graphs.incidence_matrix"), "1/s"),
        "graphs.girth.busy_s": (sp.busy_s("graphs.girth"), "s"),
        "graphs.masc_contains_graph.busy_s": (sp.busy_s("graphs.masc_contains_graph"), "s"),
        "graphs.masc_contains_graph.cycles_per_s": (
            sp.rate(lambda r, s: _cycles_of_complete(_op_record(r, s)["vertices"]),
                    "graphs.masc_contains_graph"), "1/s"),
        "trace.wall_s": (statistics.median(r["wall_ns"] / 1e9 for r in rounds), "s"),
        "trace.self_sum_s": (statistics.median(
            sum(st[r["setup_spans"]:]) / 1e9 for r, st in zip(rounds, sp.self_ns)), "s"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "masckit" / "__init__.py").is_file():
        print(f"no masckit sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    rounds = run_rounds(args.workload, args.seed, args.seconds, args.trace)
    attempted, failed, correct, notes, boundary = count_failures(args.workload, rounds)
    if args.trace:
        metrics = per_layer(rounds)
        out = ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        fields = ["id", "parent", "name", "tag", "start_ns", "end_ns"]
        out.write_text(json.dumps({"fields": fields, "rounds": [
            {"setup_spans": r["setup_spans"], "spans": r["spans"]} for r in rounds]}))
    else:
        metrics = end_to_end(rounds)

    for note in notes:
        print(f"FAILED {note}")
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds of "
          f"{len(rounds[0]['ops'])} operations, {attempted} attempted, {failed} failed, "
          f"{boundary} boundary trials per round")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

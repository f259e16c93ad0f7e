#!/usr/bin/env python3
"""Collect sets of benchmark runs and compare two of them.

    python3 perfbench/compare.py collect DIR [--seeds 1-10]
    python3 perfbench/compare.py diff BASE NEW

`collect` runs the command of BENCHMARK.json untraced, once per workload and
seed, with its `run_seconds`, and stores each run's last stdout line as
DIR/<workload>/seed-<n>.json. `diff` reads two such directories and prints,
per workload and end-to-end metric, each set's median and quartiles, the
spread (quartile distance over the median), whether NEW's median is within
the metric's bound of BASE's, and the attempted and failed operations of
each side. Given one directory twice, it shows one set's own spread.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def _bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(out: pathlib.Path, seeds) -> int:
    bench = _bench()
    for w in [x["name"] for x in bench["workloads"]]:
        (out / w).mkdir(parents=True, exist_ok=True)
        for seed in seeds:
            cmd = [*bench["command"], "--workload", w, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                return proc.returncode
            last = proc.stdout.strip().splitlines()[-1]
            (out / w / f"seed-{seed}.json").write_text(last + "\n")
            print(f"{w} seed {seed}: {last}", flush=True)
    return 0


def _load(d: pathlib.Path) -> dict:
    runs = {}
    for f in sorted(d.glob("*/seed-*.json")):
        runs.setdefault(f.parent.name, []).append(json.loads(f.read_text()))
    return runs


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def diff(base: pathlib.Path, new: pathlib.Path) -> int:
    bench = _bench()
    a, b = _load(base), _load(new)
    worse = 0
    for w in sorted(set(a) & set(b)):
        print(f"== {w}: {len(a[w])} vs {len(b[w])} runs")
        for side, runs in (("base", a[w]), ("new", b[w])):
            att = sum(r["attempted"] for r in runs)
            fail = sum(r["failed"] for r in runs)
            print(f"   {side}: {att} attempted, {fail} failed"
                  f" ({fail / att:.4%}), correct in {sum(r['correct'] for r in runs)}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            va = [r["metrics"][name]["value"] for r in a[w]]
            vb = [r["metrics"][name]["value"] for r in b[w]]
            qa, qb = _quartiles(va), _quartiles(vb)
            change = (qb[1] - qa[1]) / qa[1]
            if metric["better"] == "higher":
                change = -change
            ok = change <= bound
            worse += not ok
            print(f"   {name:12s} base {qa[1]:10.4g} [{qa[0]:.4g}, {qa[2]:.4g}]"
                  f" spread {(qa[2] - qa[0]) / qa[1]:6.2%} | new {qb[1]:10.4g}"
                  f" [{qb[0]:.4g}, {qb[2]:.4g}] spread {(qb[2] - qb[0]) / qb[1]:6.2%}"
                  f" | worse by {change:+7.2%} (bound {bound:.0%}) {'ok' if ok else 'OVER'}")
    return 1 if worse else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("out", type=pathlib.Path)
    c.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    d = sub.add_parser("diff")
    d.add_argument("base", type=pathlib.Path)
    d.add_argument("new", type=pathlib.Path)
    args = ap.parse_args(argv)
    if args.cmd == "collect":
        return collect(args.out, args.seeds)
    return diff(args.base, args.new)


if __name__ == "__main__":
    sys.exit(main())

"""Runs the oracles over one round's result records.

`check(workload, ops, records)` returns one list of problems per operation
(empty when the operation's output is right) and a count of boundary
trials. It runs after every timed operation, in the parent process.
"""

from __future__ import annotations

import numpy as np

import oracles as orc
import workloads as wl

# the circuit oracle scans every support up to |V| columns; 10 edges (K5)
# take well under a second
GENERIC_EDGES = 10


def check(workload: str, ops, records) -> tuple[list[list[str]], int]:
    problems = [[] if rec is not None else ["operation raised"] for rec in records]
    live = [(i, tuple(op), rec) for i, (op, rec) in enumerate(zip(ops, records))
            if rec is not None]
    boundary = {"count": 0}
    {"dft-trials": _dft_trials, "er-sweep": _er_sweep, "certify": _certify}[workload](
        live, problems, boundary)
    return problems, boundary["count"]


def _trial(a, rec, guaranteed, problems, i, boundary):
    problems[i] += orc.check_signal(a.shape[1], rec["s"], rec["idx"], rec["val"])
    found, status = orc.check_trial(a, rec["idx"], rec["val"], rec["recovered"], guaranteed)
    problems[i] += found
    boundary["count"] += status == "boundary"


def _dft_trials(live, problems, boundary):
    mats, guarantees = [], []
    for n, mbar, _ in wl.DFT_SPECS:
        omega = wl.band(n, mbar)
        mats.append(orc.realified(orc.dft_rows(n, omega)))
        guarantees.append(orc.coherence_guarantee(n, len(omega)))
    for i, _op, rec in live:
        spec = rec["spec"]
        _trial(mats[spec], rec, rec["s"] <= guarantees[spec], problems, i, boundary)


def _er_sweep(live, problems, boundary):
    graphs = {}
    for i, (name, _tag), rec in live:
        if name == "graphs.erdos_renyi":
            edges = [tuple(e) for e in rec["edges"]]
            g = graphs[rec["graph"]] = {"v": rec["vertices"], "edges": edges, "girth": None,
                                        "a": orc.incidence(rec["vertices"], edges)}
            problems[i] += orc.check_graph(g["v"], edges)
        elif name == "graphs.incidence_matrix":
            problems[i] += orc.check_incidence(g["v"], g["edges"], rec)
        elif name == "recovery.recovery_trial":  # the fixed tie trial
            a = orc.incidence(rec["vertices"], rec["edges"])
            _trial(a, {**rec, "s": len(rec["idx"])}, False, problems, i, boundary)
        elif name == "graphs.girth":
            problems[i] += orc.check_girth(g["v"], g["edges"], rec["girth"])
            g["girth"] = rec["girth"]
        else:
            g = graphs[rec["graph"]]
            # paper: on incidence matrices, 2s < girth guarantees recovery
            # (a forest, girth None, recovers every support)
            guaranteed = g["girth"] is None or 2 * rec["s"] < g["girth"]
            _trial(g["a"], rec, guaranteed, problems, i, boundary)


def _certify(live, problems, boundary):
    by_name = {}
    for i, (name, tag), rec in live:
        by_name.setdefault((name, tag), []).append((i, rec))

    # s_max: exact against SVD weights, and the paper's ordering
    exact_omega = wl.band(wl.EXACT_N, wl.EXACT_MBAR)
    guar_exact = orc.coherence_guarantee(wl.EXACT_N, len(exact_omega))
    exact_value = None
    for i, rec in by_name.get(("dft.s_max_exact", None), []):
        gammas = orc.all_gammas(wl.EXACT_N, len(exact_omega) + 1)
        want = orc.s_max_of_weights(orc.gamma_weights(wl.EXACT_N, exact_omega, gammas))
        if rec["value"] != want:
            problems[i].append(f"s_max_exact {rec['value']}, oracle {want}")
        exact_value = rec["value"]
    for i, rec in by_name.get(("dft.s_max_sampled", "small"), []):
        problems[i] += orc.check_s_max_order(guar_exact, exact_value, rec["value"])
    for i, rec in by_name.get(("dft.s_max_sampled", "large"), []):
        guar = orc.coherence_guarantee(rec["n"], rec["m"])
        problems[i] += orc.check_s_max_order(guar, None, rec["value"])

    # masc_contains_dft: exhaustive at n = 19, sampled at n = 61
    n19, omega19 = wl.DFT19[0], wl.band(*wl.DFT19)
    exhaustive = by_name.get(("dft.masc_contains_dft", "cold"), []) + \
        by_name.get(("dft.masc_contains_dft", "warm"), [])
    if exhaustive:
        gammas = orc.all_gammas(n19, len(omega19) + 1)
        weights = orc.gamma_weights(n19, omega19, gammas)
        for i, rec in exhaustive:
            problems[i] += orc.check_dft_verdict(weights, gammas, n19, omega19, rec)
    n61, omega61 = wl.DFT61[0], wl.band(*wl.DFT61)
    for i, rec in by_name.get(("dft.masc_contains_dft", "sampled"), []):
        problems[i] += orc.check_dft_sampled(n61, omega61, rec)

    # generic path: basis, circuits, membership and the nullspace constant
    circuits = {}
    for name in ("linalg.nullspace_basis", "masc.enumerate_extreme_points",
                 "masc.masc_contains", "masc.nullspace_constant"):
        for i, rec in by_name.get((name, None), []):
            key = str(rec["matrix"])
            if key not in circuits:
                matrix = np.array(rec["matrix"], dtype=float)
                found = orc.circuits(matrix)
                circuits[key] = (found, orc.circuit_vectors(matrix.shape[1], found))
            found, vectors = circuits[key]
            if name == "linalg.nullspace_basis":
                problems[i] += orc.check_basis(rec["matrix"], rec["basis"])
            elif name == "masc.enumerate_extreme_points":
                problems[i] += orc.check_points(found, rec["points"], len(rec["matrix"][0]))
            elif name == "masc.masc_contains":
                problems[i] += orc.check_masc_verdict(vectors, rec)
            else:
                problems[i] += orc.check_nsc(vectors, rec["s"], rec["value"])

    # cycle path: own cycle search; generic cross-check where it is small
    cycle_cache, generic = {}, {}
    for (name, tag), items in by_name.items():
        if name != "graphs.masc_contains_graph":
            continue
        for i, rec in items:
            v, edges = rec["vertices"], [tuple(e) for e in rec["edges"]]
            key = (v, tuple(edges))
            if key not in cycle_cache:
                cycle_cache[key] = orc.simple_cycles(v, edges)
            problems[i] += orc.check_graph_verdict(cycle_cache[key], v, edges, rec)
            if len(edges) <= GENERIC_EDGES:
                # cycles are the extreme points: the generic circuit oracle
                # on the incidence matrix must give the same verdict
                if key not in generic:
                    found = orc.circuits(orc.incidence(v, edges))
                    generic[key] = orc.circuit_vectors(len(edges), found)
                problems[i] += orc.check_masc_verdict(generic[key], rec)

"""The three workloads: fixed inputs built from the seed, then a fixed list of
operations, each one call into a public function of masckit.

`plan(name, mk, seed, tracer)` builds the inputs (this is the set-up time)
and returns the operations. An operation's `run` is what is timed;
`record` turns its result into the JSON the correctness checks read, and
runs after the timing. Operations of one workload share state (a graph, a
basis) through the closures, in list order.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

WORKLOADS = ("dft-trials", "er-sweep", "certify")

# dft-trials: (n, mbar, sparsities); the sparsities straddle each spec's
# recovery transition, and the n = 19 spec adds s = 2, its coherence
# guarantee, so recovery is also checked where the paper promises it. Equal
# counts per spec put the median latency in the middle of the (61, 15)
# trials and the 90th percentile inside the (61, 22) ones, away from the
# gaps between the specs' latency ranges.
DFT_SPECS = ((61, 15, (6, 8, 10)), (61, 22, (17, 20, 23)), (19, 7, (2, 8, 11)))
DFT_TRIALS = 15

# er-sweep: fig4's call pattern and seeding on 100-vertex graphs. fig4 also
# runs s = 2; it is left out here because at s = 2 some seeded trials are
# non-unique ties that recovery_trial reports as recovered, so failures would
# depend on the seed. TIE_TRIAL keeps that fault in view instead: K5 (edges
# low to high) with x = 0.6 e_(0,4) + 0.8 e_(1,3) is not the unique
# minimizer (the 4-cycle 0-4-1-3 is a tie) and is reported recovered.
ER_VERTICES = 100
# (exponent e of p = p_crit^e, graphs, trials per graph). Trial latency
# depends on the graph more than on the signal, so the percentiles need many
# graphs; a graph at e = 1/9 costs about 1.3 s to build, so there are fewer
# of those and more of the cheap ones. The counts put the median latency
# among the e = 1 and e = 5/9 trials and the 90th percentile in the middle of
# the e = 1/9 trials and girths and the e = 5/9 incidence matrices (at their
# lower edge it jumped between them), and keep a round near 12-16 s.
ER_EXPONENTS = ((1.0, 7, 6), (5 / 9, 3, 3), (1 / 9, 3, 3))
ER_SPARSITY = 1
TIE_TRIAL = (5, ((0, 4), (1, 3)), (0.6, 0.8))
# operations that fail on every run because of that known fault; they count
# as failed but leave the run correct
KNOWN_FAULTS = {("recovery.recovery_trial", "tie")}

# certify
LARGE_N, LARGE_MBAR, LARGE_SAMPLES = 1009, 123, 1000
EXACT_N, EXACT_MBAR, SMALL_SAMPLES = 23, 8, 200
# query counts: below the median latency lie the exhaustive n = 19 queries,
# the generic membership queries and the K5 ones; the median falls among the
# sampled n = 61 queries, whose cost hardly depends on the seed, and the
# 90th percentile among the K7 ones (1172 cycles whatever the seed)
DFT19, DFT19_QUERIES = (19, 7), 10
DFT61, DFT61_SAMPLES, DFT61_QUERIES = (61, 15), 200, 50
GENERIC_QUERIES = 7
MATRIX_SHAPE = (5, 11)
# (k, queries) on complete graphs: K5 has 37 simple cycles, small enough
# for the generic cross-check, K7 has 1172
GRAPH_QUERIES = ((5, 5), (7, 20))


@dataclass
class Op:
    name: str  # span name: "<module>.<function>", or "op.trial"
    tag: str | None
    run: Callable[[], Any]
    record: Callable[[Any], dict]


def band(n: int, mbar: int) -> list[int]:
    return list(range(mbar + 1)) + list(range(n - mbar, n))


def complete_graph_edges(k: int, rng: random.Random) -> list[tuple[int, int]]:
    """K_k with vertex labels, edge order and orientations drawn from rng."""
    label = list(range(k))
    rng.shuffle(label)
    edges = []
    for i in range(k):
        for j in range(i + 1, k):
            u, v = label[i], label[j]
            edges.append((u, v) if rng.random() < 0.5 else (v, u))
    rng.shuffle(edges)
    return edges


def _trial_op(mk, tracer, matrix, s, entropy, **extra) -> Op:
    """One trial: draw the seeded s-sparse signal, then `recovery_trial` on
    the matrix `matrix()` returns (built in set-up, or by an earlier op)."""
    def run():
        a = matrix()
        x = tracer.call("recovery.random_sparse_signal", None,
                        mk.recovery.random_sparse_signal, a.shape[1], s, entropy)
        ok = tracer.call("recovery.recovery_trial", None, mk.recovery_trial, a, x)
        return x, ok

    def record(res):
        x, ok = res
        idx = np.flatnonzero(x)
        return {**extra, "s": s, "idx": idx.tolist(), "val": x[idx].tolist(),
                "recovered": bool(ok)}

    return Op("op.trial", None, run, record)


def spread(*groups: list) -> list:
    """Merge lists so that each one's items are spread evenly over the
    result, keeping their order: a class of operations then samples the
    whole round, not one stretch of it (the machine's speed drifts)."""
    keyed = [((i + 0.5) / len(g), gi, i, op)
             for gi, g in enumerate(groups) for i, op in enumerate(g)]
    return [op for *_key, op in sorted(keyed, key=lambda k: k[:3])]


def _dft_trials(mk, seed, tracer):
    groups = []
    for si, (n, mbar, sparsities) in enumerate(DFT_SPECS):
        a = mk.realify(mk.symmetrize_omega(n, band(n, mbar)).partial_matrix())
        for s in sparsities:
            groups.append([_trial_op(mk, tracer, lambda a=a: a, s, (seed, si, s, t), spec=si)
                           for t in range(DFT_TRIALS)])
    return spread(*groups)


def _tagged(record, **extra):
    return lambda res: {**record(res), **extra}


def _er_sweep(mk, seed, tracer):
    p_crit = math.log(ER_VERTICES) / ER_VERTICES
    k, support, values = TIE_TRIAL
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    tie_a = mk.incidence_matrix(mk.DirectedSimpleGraph(k, tuple(edges))).to_float_array()
    tie_x = np.zeros(len(edges))
    tie_x[[edges.index(e) for e in support]] = values
    ops = [Op("recovery.recovery_trial", "tie", lambda: mk.recovery_trial(tie_a, tie_x),
              lambda ok: {"vertices": k, "edges": edges, "idx": np.flatnonzero(tie_x).tolist(),
                          "val": tie_x[tie_x != 0].tolist(), "recovered": bool(ok)})]
    per_exponent = [[_er_graph_ops(mk, tracer, p_crit**expo, seed * 100003 + e_i * 1009 + gi,
                                   trials) for gi in range(graphs)]
                    for e_i, (expo, graphs, trials) in enumerate(ER_EXPONENTS)]
    for graph_ops in spread(*per_exponent):
        ops += graph_ops
    return ops


def _er_graph_ops(mk, tracer, prob, g_seed, trials):
    state = {}

    def make_graph():
        state["g"] = mk.erdos_renyi(ER_VERTICES, prob, g_seed)
        return state["g"]

    def make_matrix():
        state["a"] = mk.incidence_matrix(state["g"]).to_float_array()
        return state["a"]

    def matrix_record(a):
        a = np.ascontiguousarray(a, dtype=float)
        return {"shape": list(a.shape), "sha256": hashlib.sha256(a.tobytes()).hexdigest()}

    ops = [
        Op("graphs.erdos_renyi", None, make_graph,
           lambda g: {"graph": g_seed, "vertices": g.vertex_count,
                      "edges": [list(e) for e in g.edges]}),
        Op("graphs.incidence_matrix", None, make_matrix, matrix_record),
        # the last use of the graph and of the matrix drops them, as fig4
        # does before it builds the next graph
        Op("graphs.girth", None, lambda: mk.girth(state.pop("g")),
           lambda girth: {"girth": None if math.isinf(girth) else int(girth)}),
    ]
    t_seed = g_seed * 31 + ER_SPARSITY
    for t in range(trials):
        matrix = (lambda: state.pop("a")) if t == trials - 1 else (lambda: state["a"])
        ops.append(_trial_op(mk, tracer, matrix, ER_SPARSITY, (t_seed, t), graph=g_seed))
    return ops


def _verdict_record(v) -> dict:
    wit = v.witness
    return {
        "decided": v.decided,
        "in_masc": v.in_masc,
        "margin": float(v.margin),
        "witness": None if wit is None else {
            "support": list(wit.support.indices),
            "vector": [float(x) for x in wit.vector],
        },
    }


def _certify(mk, seed, tracer):
    SupportSet = mk.SupportSet
    rng = random.Random(seed)
    large = mk.symmetrize_omega(LARGE_N, band(LARGE_N, LARGE_MBAR))
    exact = mk.symmetrize_omega(EXACT_N, band(EXACT_N, EXACT_MBAR))
    spec19 = mk.symmetrize_omega(DFT19[0], band(*DFT19))
    spec61 = mk.symmetrize_omega(DFT61[0], band(*DFT61))
    mrng = np.random.default_rng(seed)
    # nonzero entries keep the matrix generic: few circuits below full size,
    # so the scan's work hardly depends on the seed
    entries = mrng.integers(1, 6, size=MATRIX_SHAPE) * mrng.choice([-1, 1], size=MATRIX_SHAPE)
    rows = entries.tolist()
    matrix = mk.RealMatrix.from_rows(rows)
    graphs = [(k, mk.DirectedSimpleGraph(k, tuple(complete_graph_edges(k, rng))), q)
              for k, q in GRAPH_QUERIES]
    state = {}

    def contiguous(n, size):
        a = rng.randrange(n)
        return [(a + i) % n for i in range(size)]

    large_ops = [
        Op("dft.s_max_sampled", "large",
           lambda: mk.s_max_sampled(large, LARGE_SAMPLES, seed),
           lambda r: {"n": LARGE_N, "m": large.m, "value": r}),
    ]
    exact_ops = [
        Op("dft.s_max_exact", None, lambda: mk.s_max_exact(exact),
           lambda r: {"n": EXACT_N, "mbar": EXACT_MBAR, "value": r}),
        Op("dft.s_max_sampled", "small",
           lambda: mk.s_max_sampled(exact, SMALL_SAMPLES, seed),
           lambda r: {"n": EXACT_N, "m": exact.m, "value": r}),
    ]
    dft19 = []
    for q in range(DFT19_QUERIES):
        # contiguous runs of 3 (inside) and 4 (outside), plus random sets
        if q % 3 < 2:
            sup = contiguous(19, 3 + q % 3)
        else:
            sup = rng.sample(range(19), rng.choice((3, 4)))
        dft19.append(Op("dft.masc_contains_dft", "cold" if q == 0 else "warm",
                        _bind(mk.masc_contains_dft, spec19, SupportSet.of(19, sup)),
                        _tagged(_verdict_record, support=sorted(sup))))
    dft61 = []
    for q in range(DFT61_QUERIES):
        # single indices, inside the coherence guarantee (s <= 1 at n = 61,
        # |omega| = 31) for every seed: a rejection's witness is wrong on
        # about 1 seeded query in 750, so rejecting queries are left out
        sup = contiguous(61, 1)
        dft61.append(Op("dft.masc_contains_dft", "sampled",
                        _bind(mk.masc_contains_dft, spec61, SupportSet.of(61, sup),
                              sampled=True, sample_size=DFT61_SAMPLES, seed=seed + q),
                        _tagged(_verdict_record, support=sorted(sup))))

    def basis():
        state["basis"] = mk.nullspace_basis(matrix)
        return state["basis"]

    def points():
        state["pts"] = mk.enumerate_extreme_points(state["basis"])
        return state["pts"]

    # the scan comes first: the membership queries and nullspace_constant
    # calls use its points
    scan = [
        Op("linalg.nullspace_basis", None, basis,
           lambda b: {"matrix": rows,
                      "basis": [[str(x) for x in v] for v in b.basis_vectors]}),
        Op("masc.enumerate_extreme_points", None, points,
           lambda pts: {"matrix": rows, "points": [
               {"support": list(p.support.indices), "vector": [float(x) for x in p.vector]}
               for p in pts]}),
    ]
    n = MATRIX_SHAPE[1]
    generic = []
    for q in range(GENERIC_QUERIES):
        sup = rng.sample(range(n), 1 + q % 3)
        generic.append(Op("masc.masc_contains", None,
                          lambda sup=sup: mk.masc_contains(state["basis"], SupportSet.of(n, sup),
                                                           pts=state["pts"]),
                          _tagged(_verdict_record, support=sorted(sup), matrix=rows)))
    nsc = [Op("masc.nullspace_constant", None,
              lambda s=s: mk.nullspace_constant(s, state["basis"], pts=state["pts"]),
              lambda r, s=s: {"matrix": rows, "s": s, "value": float(r)})
           for s in range(1, 6)]
    cycle = []
    for k, g, queries in graphs:
        for q in range(queries):
            sup = rng.sample(range(g.edge_count), 1 + q % 4)
            cycle.append(Op("graphs.masc_contains_graph", f"K{k}",
                            _bind(mk.masc_contains_graph, g, SupportSet.of(g.edge_count, sup)),
                            _tagged(_verdict_record, support=sorted(sup), vertices=k,
                                    edges=[list(e) for e in g.edges])))
    return scan + spread(large_ops, exact_ops, dft19, dft61, generic, nsc, cycle)


def _bind(fn, *args, **kwargs):
    return lambda: fn(*args, **kwargs)


_PLANS = {"dft-trials": _dft_trials, "er-sweep": _er_sweep, "certify": _certify}


def plan(name: str, mk, seed: int, tracer) -> list[Op]:
    """Build the workload's inputs and its list of operations."""
    return _PLANS[name](mk, seed, tracer)

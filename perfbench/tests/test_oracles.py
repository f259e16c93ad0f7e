"""The benchmark's correctness oracles on cases small enough to check by
hand: a triangle, a 4-cycle, band(5, 1) and a 2x4 matrix with known
circuits. Each oracle must accept the right answer and flag a wrong one.

    python3 -m pytest perfbench/tests -q
"""

import hashlib
import math
import pathlib
import sys

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

import oracles as orc  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402
from workloads import band  # noqa: E402

TRIANGLE = [(0, 1), (1, 2), (2, 0)]  # oriented around the cycle
SQUARE = [(0, 1), (1, 2), (2, 3), (3, 0)]


def signal(n, values):
    idx = sorted(values)
    return idx, [values[i] for i in idx]


def verdict(support, in_masc, witness=None, decided=True):
    return {"support": support, "in_masc": in_masc, "decided": decided, "witness": witness}


# --- recovery trials --------------------------------------------------------

def test_triangle_trials():
    a = orc.incidence(3, TRIANGLE)
    # one edge: the other two carry half each, t* = 1/2
    status, t_star = orc.dual_certificate(a, np.array([0.7, 0.0, 0.0]))
    assert status == "recover" and t_star == pytest.approx(0.5)
    # two edges traversed the same way hold 2 of the cycle's 3 units: no recovery
    assert orc.dual_certificate(a, np.array([0.6, 0.8, 0.0]))[0] == "fail"
    # opposite signs cancel along the cycle: recovered
    assert orc.dual_certificate(a, np.array([0.6, -0.8, 0.0]))[0] == "recover"

    idx, val = signal(3, {0: 1.0})
    assert orc.check_trial(a, idx, val, True, guaranteed=True)[0] == []
    assert orc.check_trial(a, idx, val, False)[0]  # wrong verdict
    assert orc.check_trial(a, idx, val, False, guaranteed=True)[0]
    idx, val = signal(3, {0: 0.6, 1: 0.8})
    assert orc.check_trial(a, idx, val, False)[0] == []
    assert orc.check_trial(a, idx, val, True)[0]


def test_square_opposite_edges_is_a_boundary_trial():
    a = orc.incidence(4, SQUARE)
    idx, val = signal(4, {0: 0.6, 2: 0.8})
    problems, status = orc.check_trial(a, idx, val, False)
    assert status == "boundary" and problems == []
    assert orc.check_trial(a, idx, val, True)[0]  # recovery claimed on a tie


def test_k5_tie_trial_is_a_boundary_trial():
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    x = np.zeros(len(edges))
    x[edges.index((0, 4))], x[edges.index((1, 3))] = 0.6, 0.8
    status, t_star = orc.dual_certificate(orc.incidence(5, edges), x)
    assert status == "boundary" and t_star == pytest.approx(1.0)


def test_signal_check():
    assert orc.check_signal(5, 2, [1, 3], [0.6, -0.8]) == []
    assert orc.check_signal(5, 2, [1, 3], [0.6, 0.6])  # not unit norm
    assert orc.check_signal(5, 2, [1, 1], [0.6, 0.8])  # repeated index
    assert orc.check_signal(5, 3, [1, 3], [0.6, 0.8])  # wrong size


# --- band(5, 1) ---------------------------------------------------------------

def test_band_5_1_weights_by_hand():
    omega = band(5, 1)
    assert omega == [0, 1, 4]
    gammas = orc.all_gammas(5, 4)
    w = orc.gamma_weights(5, omega, gammas)
    # Gamma = all but r: |f'(xi^k)| = 5 / |xi^k - xi^r|, so w_k ~ sin(pi |k-r| / 5)
    for g, row in zip(gammas, w):
        r = (set(range(5)) - set(g)).pop()
        want = np.array([math.sin(math.pi * abs(k - r) / 5) for k in g])
        np.testing.assert_allclose(row, want / want.sum(), rtol=1e-12)
    # heaviest weight sin(72)/(2 sin 36 + 2 sin 72) = 0.309 < 1/2, two hold 0.618
    assert orc.s_max_of_weights(w) == 1
    assert orc.coherence_guarantee(5, 3) == 1  # 5 / (2 * 2) = 1.25


def test_band_5_1_verdicts_and_order():
    omega = band(5, 1)
    gammas = orc.all_gammas(5, 4)
    w = orc.gamma_weights(5, omega, gammas)
    assert orc.check_dft_verdict(w, gammas, 5, omega, verdict([2], True)) == []
    assert orc.check_dft_verdict(w, gammas, 5, omega, verdict([2], False))
    # {0, 1}: Gamma = {0, 1, 2, 4} puts 0.618 on it; the witness is its null vector
    g = np.array([[0, 1, 2, 4]])
    null = np.linalg.svd(orc.dft_rows(5, omega)[:, g[0]])[2][-1]
    z = np.zeros(5)
    z[g[0]] = (null / null[0]).real
    z /= np.abs(z).sum()
    good = {"support": [0, 1, 2, 4], "vector": z.tolist()}
    assert orc.check_dft_verdict(w, gammas, 5, omega, verdict([0, 1], False, good)) == []
    assert orc.check_dft_verdict(w, gammas, 5, omega, verdict([0, 1], True))
    bad = {"support": [0, 1, 2, 4], "vector": [0.5, 0.5, 0.0, 0.0, 0.0]}
    assert orc.check_dft_verdict(w, gammas, 5, omega, verdict([0, 1], False, bad))
    assert orc.check_s_max_order(1, 1, 1) == []
    assert orc.check_s_max_order(1, 2, 1)  # sampled below exact
    assert orc.check_s_max_order(2, None, 1)  # sampled below the guarantee


def test_band_5_1_sampled_is_one_sided():
    omega = band(5, 1)
    assert orc.check_dft_sampled(5, omega, verdict([2], True, decided=False)) == []
    assert orc.check_dft_sampled(5, omega, verdict([2], True, decided=True))
    # within the guarantee (|S| = 1): a rejection is wrong whatever it carries
    assert orc.check_dft_sampled(5, omega, verdict([2], False))


def test_band_5_1_trial():
    a = orc.realified(orc.dft_rows(5, band(5, 1)))
    idx, val = signal(5, {3: -1.0})
    assert orc.check_trial(a, idx, val, True, guaranteed=True)[0] == []
    assert orc.check_trial(a, idx, val, False, guaranteed=True)[0]


# --- 2x4 matrix with known circuits ---------------------------------------------

M = [[1, 0, 1, 1], [0, 1, 1, -1]]
# every 3 columns are minimally dependent; null vectors by hand
CIRCUITS = {
    (0, 1, 2): [1, 1, -1, 0],
    (0, 1, 3): [1, -1, 0, -1],
    (0, 2, 3): [2, 0, -1, -1],
    (1, 2, 3): [0, 2, -1, 1],
}


def _hand_points():
    return [{"support": list(s), "vector": (np.array(v) / np.abs(v).sum()).tolist()}
            for s, v in CIRCUITS.items()]


def test_circuits_by_hand():
    found = orc.circuits(np.array(M, dtype=float))
    assert [s for s, _ in found] == list(CIRCUITS)
    assert orc.check_points(found, _hand_points(), 4) == []
    assert orc.check_points(found, _hand_points()[:3], 4)  # one missing
    flipped = _hand_points()
    flipped[0]["vector"] = [-x for x in flipped[0]["vector"]]
    assert orc.check_points(found, flipped, 4)  # wrong sign convention


def test_basis_check():
    assert orc.check_basis(M, [["1", "1", "-1", "0"], ["1", "-1", "0", "-1"]]) == []
    assert orc.check_basis(M, [["1", "1", "-1", "0"]])  # too few
    assert orc.check_basis(M, [["1", "1", "1", "0"], ["1", "-1", "0", "-1"]])  # not null


def test_membership_and_nsc_by_hand():
    vectors = orc.circuit_vectors(4, orc.circuits(np.array(M, dtype=float)))
    # column 0 carries 2/4 of the circuit on {0, 2, 3}: exactly half, outside
    assert orc.check_masc_verdict(vectors, verdict([0], False)) == []
    assert orc.check_masc_verdict(vectors, verdict([0], True))
    # column 3 carries at most 1/3: inside
    assert orc.check_masc_verdict(vectors, verdict([3], True)) == []
    assert orc.check_masc_verdict(vectors, verdict([3], False))
    assert orc.check_nsc(vectors, 1, 0.5) == []
    assert orc.check_nsc(vectors, 2, 0.75) == []  # (2 + 1) / 4
    assert orc.check_nsc(vectors, 1, 1 / 3)


# --- graphs -------------------------------------------------------------------

def test_cycles_of_triangle_square_and_k4():
    assert orc.simple_cycles(3, TRIANGLE) == [frozenset({0, 1, 2})]
    assert orc.simple_cycles(4, SQUARE) == [frozenset({0, 1, 2, 3})]
    k4 = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    assert len(orc.simple_cycles(4, k4)) == 7  # four triangles, three squares


def test_graph_verdicts_and_witnesses():
    for vertices, edges in ((3, TRIANGLE), (4, SQUARE)):
        cycles = orc.simple_cycles(vertices, edges)
        witness = {"support": list(range(len(edges))),
                   "vector": [1 / len(edges)] * len(edges)}
        inside, outside = [0], [0, 1] if len(edges) == 3 else [0, 2]
        assert orc.check_graph_verdict(cycles, vertices, edges, verdict(inside, True)) == []
        assert orc.check_graph_verdict(cycles, vertices, edges, verdict(inside, False, witness))
        assert orc.check_graph_verdict(cycles, vertices, edges,
                                       verdict(outside, False, witness)) == []
        assert orc.check_graph_verdict(cycles, vertices, edges, verdict(outside, True))
        # a witness that is not a flow around the cycle
        bent = dict(witness, vector=[-x for x in witness["vector"][:-1]] + [witness["vector"][-1]])
        assert orc.check_graph_verdict(cycles, vertices, edges, verdict(outside, False, bent))
    # generic cross-check: the circuits of an incidence matrix are its cycles
    vectors = orc.circuit_vectors(4, orc.circuits(orc.incidence(4, SQUARE)))
    assert orc.check_masc_verdict(vectors, verdict([0, 2], False)) == []
    assert orc.check_masc_verdict(vectors, verdict([0, 2], True))


def test_girth_graph_and_incidence_checks():
    assert orc.check_girth(3, TRIANGLE, 3) == []
    assert orc.check_girth(3, TRIANGLE, 4)
    assert orc.check_girth(3, [(0, 1), (1, 2)], None) == []  # a forest
    assert orc.check_graph(3, [(0, 1), (1, 2)]) == []
    assert orc.check_graph(3, [(1, 0)])
    assert orc.check_graph(3, [(0, 1), (0, 1)])
    a = orc.incidence(4, SQUARE)
    rec = {"shape": [4, 4], "sha256": hashlib.sha256(a.tobytes()).hexdigest()}
    assert orc.check_incidence(4, SQUARE, rec) == []
    assert orc.check_incidence(4, SQUARE[::-1], rec)


# --- tracing ------------------------------------------------------------------

def test_self_time_subtracts_children():
    spans = [[0, -1, "op", None, 0, 100], [1, 0, "a", None, 10, 40],
             [2, 1, "b", None, 15, 25], [3, 0, "a", None, 50, 90]]
    assert self_times(spans) == [30, 20, 10, 40]
    t = Tracer()
    assert t.call("outer", None, lambda: t.call("inner", None, lambda: 7)) == 7
    (outer, inner) = t.spans
    assert inner[1] == outer[0] and outer[1] == -1
    assert outer[4] <= inner[4] <= inner[5] <= outer[5]

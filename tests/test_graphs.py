import hashlib
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import flow_space_basis, girth_reference, random_connected_graph
from masckit.errors import BudgetExceededError, InputError
from masckit.graphs import (
    DirectedSimpleGraph,
    enumerate_simple_cycles,
    erdos_renyi,
    format_graph_text,
    girth,
    incidence_matrix,
    masc_contains_graph,
    nsc_graph,
    parse_graph_text,
)
from masckit.linalg import RealMatrix
from masckit.masc import (
    SupportSet,
    enumerate_extreme_points,
    masc_contains,
    nullspace_constant,
)


# fig4's exponents: p = p_crit**(k/9), p_crit = ln(100)/100, k = 1..10
FIG4_K = range(1, 11)

# SHA-256 prefixes over seeds 0, 1, 2 of erdos_renyi(100, p_crit**(k/9), seed):
# k -> (repr of the edge tuples, incidence_matrix(g).to_float_array() bytes).
# fig4 CSVs and the er-sweep benchmark records depend on these graphs.
PINNED_ER100 = {
    1: ("6eba964fca207ba7", "2a4a04a84270c08f"),
    2: ("34c34ea1f1094d99", "709836e8e4c6c4ac"),
    3: ("b58b84271690243a", "263f6e7ff3079034"),
    4: ("62ca68fcbaca3b93", "d65d55d625ecd585"),
    5: ("ce361fa29c9cf046", "2f2cf3a5d00b2425"),
    6: ("b61e31c21fb1092d", "800fad0e5197952d"),
    7: ("488cd235ee26def6", "b51434ec6a7bf07b"),
    8: ("76c45898656153ac", "f6b2f108dc281279"),
    9: ("1429aa9768bfb782", "20138bb1b656648b"),
    10: ("3e44ed23b469ec93", "43af4e6c0323ff17"),
}


def uniform_levels(g):
    """Every s for which the membership check accepts all edge supports of
    size s."""
    n = g.edge_count
    return [
        s for s in range(1, n + 1)
        if all(masc_contains_graph(g, SupportSet.of(n, c)).in_masc
               for c in itertools.combinations(range(n), s))
    ]


def fig4_graphs(k, seeds):
    p = (math.log(100) / 100) ** (k / 9)
    return [erdos_renyi(100, p, seed) for seed in seeds]


def k4(orient_seed=0):
    rng = random.Random(orient_seed)
    edges = tuple(
        (u, v) if rng.random() < 0.5 else (v, u)
        for u, v in itertools.combinations(range(4), 2)
    )
    return DirectedSimpleGraph(4, edges)


class TestGraphConstruction:
    def test_self_loop_rejected(self):
        with pytest.raises(InputError):
            DirectedSimpleGraph(3, ((0, 0),))

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(InputError):
            DirectedSimpleGraph(-1, ())

    def test_parallel_rejected(self):
        with pytest.raises(InputError):
            DirectedSimpleGraph(3, ((0, 1), (1, 0)))

    def test_text_roundtrip(self, chain_graph):
        again = parse_graph_text(format_graph_text(chain_graph))
        assert again == chain_graph


class TestIncidenceMatrix:
    def test_column_structure(self, triangle):
        m = incidence_matrix(triangle)
        for j in range(3):
            col = [m[i, j] for i in range(3)]
            assert sorted(col) == [Fraction(-1), Fraction(0), Fraction(1)]

    def test_single_edge(self):
        m = incidence_matrix(DirectedSimpleGraph(2, ((0, 1),)))
        assert (m[0, 0], m[1, 0]) == (Fraction(-1), Fraction(1))

    def test_chain_graph_equals_from_rows(self, chain_graph):
        rows = [
            [-1, 0, -1, 0, 0, 0, 0],
            [1, -1, 0, 0, 0, 0, 1],
            [0, 1, 1, -1, 0, 0, 0],
            [0, 0, 0, 1, -1, 0, 0],
            [0, 0, 0, 0, 1, -1, 0],
            [0, 0, 0, 0, 0, 1, -1],
        ]
        assert incidence_matrix(chain_graph) == RealMatrix.from_rows(rows)

    @pytest.mark.parametrize("k", FIG4_K)
    def test_pinned_er100_bytes(self, k):
        h = hashlib.sha256()
        for g in fig4_graphs(k, range(3)):
            h.update(incidence_matrix(g).to_float_array().tobytes())
        assert h.hexdigest()[:16] == PINNED_ER100[k][1]

    @pytest.mark.parametrize("vertices", [0, 1, 2])
    def test_no_edges_rejected(self, vertices):
        with pytest.raises(InputError):
            incidence_matrix(DirectedSimpleGraph(vertices, ()))

    def test_char_vectors_in_nullspace(self, chain_graph):
        m = incidence_matrix(chain_graph)
        for p in enumerate_simple_cycles(chain_graph):
            for i in range(m.rows):
                assert sum(m[i, j] * p.vector[j] for j in range(m.cols)) == 0


class TestCycleEnumeration:
    def test_chain_graph_cycles(self, chain_graph):
        cycles = enumerate_simple_cycles(chain_graph)
        edge_sets = [set(p.support.indices) for p in cycles]
        assert edge_sets == [{0, 1, 2}, {1, 3, 4, 5, 6}, {0, 2, 3, 4, 5, 6}]

    def test_tree_empty(self):
        tree = DirectedSimpleGraph(4, ((0, 1), (1, 2), (1, 3)))
        assert enumerate_simple_cycles(tree) == []

    def test_k4_seven_cycles(self):
        assert len(enumerate_simple_cycles(k4())) == 7

    def test_cap(self, chain_graph):
        with pytest.raises(BudgetExceededError):
            enumerate_simple_cycles(chain_graph, cap=2)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_reorientation_invariance(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng)
        flipped = tuple(
            (v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges
        )
        g2 = DirectedSimpleGraph(g.vertex_count, flipped)
        sets1 = [p.support.indices for p in enumerate_simple_cycles(g)]
        sets2 = [p.support.indices for p in enumerate_simple_cycles(g2)]
        assert sets1 == sets2


class TestGirth:
    def test_cycle_graph(self):
        g = DirectedSimpleGraph(7, tuple((i, (i + 1) % 7) for i in range(7)))
        assert girth(g) == 7

    def test_tree_infinite(self):
        assert girth(DirectedSimpleGraph(3, ((0, 1), (1, 2)))) == math.inf

    def test_chain_graph(self, chain_graph):
        assert girth(chain_graph) == 3

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_matches_cycle_enumeration(self, seed):
        g = random_connected_graph(random.Random(seed))
        cycles = enumerate_simple_cycles(g)
        expected = min((len(p.support) for p in cycles), default=math.inf)
        assert girth(g) == expected
        assert girth_reference(g) == expected

    @pytest.mark.parametrize("k", FIG4_K)
    def test_matches_reference_on_er100(self, k):
        for g in fig4_graphs(k, range(5)):
            assert girth(g) == girth_reference(g)


class TestW1:
    """enumerate_simple_cycles is W1: one extreme point per cycle."""

    def test_triangle(self, triangle):
        vecs = enumerate_simple_cycles(triangle)
        assert len(vecs) == 1
        assert sorted(abs(x) for x in vecs[0].vector) == [Fraction(1, 3)] * 3

    def test_chain_graph_norms(self, chain_graph):
        points = enumerate_simple_cycles(chain_graph)
        lengths = sorted({abs(x).denominator for v in points for x in v.vector if x})
        assert lengths == [3, 5, 6]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_equals_generic_extreme_points(self, seed):
        g = random_connected_graph(random.Random(seed))
        fast = {
            (p.support.indices, tuple(abs(x) for x in p.vector))
            for p in enumerate_simple_cycles(g)
        }
        generic = {
            (p.support.indices, tuple(abs(x) for x in p.vector))
            for p in enumerate_extreme_points(flow_space_basis(g))
        }
        assert fast == generic


class TestMascContainsGraph:
    def test_chain_graph_in(self, chain_graph):
        v = masc_contains_graph(chain_graph, SupportSet.of(7, [0, 4]))
        assert v.decided and v.in_masc

    def test_chain_graph_out_with_witness(self, chain_graph):
        v = masc_contains_graph(chain_graph, SupportSet.of(7, [0, 1]))
        assert not v.in_masc
        assert v.witness.support.indices == (0, 1, 2)

    def test_empty_in(self, chain_graph):
        assert masc_contains_graph(chain_graph, SupportSet.of(7, [])).in_masc

    def test_witness_tie_breaks_on_edge_indices(self):
        # two 5-cycles keep edges 0, 1, 2 and cross edge 2 in opposite
        # directions; the witness is the one with the lower edge indices
        g = DirectedSimpleGraph(
            5, ((3, 0), (0, 4), (2, 1), (1, 3), (4, 1), (2, 3), (4, 2))
        )
        v = masc_contains_graph(g, SupportSet.of(7, [0, 1, 2]))
        assert v.margin == Fraction(-1, 10)
        assert v.witness.support.indices == (0, 1, 2, 3, 6)

    def test_cap_bounds_in_verdicts_only(self):
        # K7 has 1172 cycles, 140 of them of at most 4 edges: {0, 1} is out
        # on a triangle among those, {0} needs every cycle to be in
        g = DirectedSimpleGraph(7, tuple(itertools.combinations(range(7), 2)))
        v = masc_contains_graph(g, SupportSet.of(21, [0, 1]), cap=200)
        assert not v.in_masc and v.margin == Fraction(-1, 6)
        assert v.witness.support.indices == (0, 1, 6)
        with pytest.raises(BudgetExceededError):
            masc_contains_graph(g, SupportSet.of(21, [0]), cap=200)

    def test_short_cycle_decides_out(self):
        # more than the default cap of cycles in all, but two edges of a
        # triangle are out on the triangle
        g = erdos_renyi(30, 0.2, 3)
        ends = {frozenset(e): i for i, e in enumerate(g.edges)}
        sup = next(
            (ends[frozenset((u, v))], ends[frozenset((u, w))])
            for u, v in g.edges for w in range(g.vertex_count)
            if frozenset((u, w)) in ends and frozenset((v, w)) in ends
        )
        v = masc_contains_graph(g, SupportSet.of(g.edge_count, sup))
        assert not v.in_masc and v.margin == Fraction(-1, 6)
        a = incidence_matrix(g)
        for i in range(a.rows):
            assert sum(a[i, j] * v.witness.vector[j] for j in range(a.cols)) == 0
        assert 2 * len(set(sup) & set(v.witness.support.indices)) >= len(v.witness.support)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10**6))
    def test_exhaustive_matches_reference_minimum(self, seed):
        # reference: the smallest (margin, length, edge indices) over the
        # sorted cycle list; the streaming check must give its verdict,
        # margin and witness
        g = random_connected_graph(random.Random(seed))
        n = g.edge_count
        cycles = enumerate_simple_cycles(g)
        for r in range(4):
            for sup in itertools.combinations(range(n), r):
                keys = [
                    (Fraction(1, 2) - Fraction(len(set(p.support.indices) & set(sup)),
                                               len(p.support)),
                     len(p.support), p.support.indices)
                    for p in cycles
                ]
                v = masc_contains_graph(g, SupportSet.of(n, sup))
                if not keys or min(keys)[0] > 0:
                    assert v.in_masc and v.witness is None
                    assert v.margin == (min(keys)[0] if keys else Fraction(1, 2))
                    continue
                margin, _, edges = min(keys)
                assert not v.in_masc and v.margin == margin
                assert v.witness.support.indices == edges
                p = next(p for p in cycles if p.support.indices == edges)
                assert v.witness.sign_vector == p.sign_vector

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10**6))
    def test_agrees_with_generic(self, seed):
        g = random_connected_graph(random.Random(seed))
        n = g.edge_count
        b = flow_space_basis(g)
        pts = enumerate_extreme_points(b)
        for r in range(n + 1):
            for sup in itertools.combinations(range(n), r):
                s = SupportSet.of(n, sup)
                assert (
                    masc_contains_graph(g, s).in_masc
                    == masc_contains(b, s, pts=pts).in_masc
                )


class TestClosedForms:
    def test_nsc_values(self, triangle):
        assert nsc_graph(1, triangle) == Fraction(1, 3)
        assert nsc_graph(2, triangle) == Fraction(2, 3)
        assert nsc_graph(5, triangle) == 1

    def test_nsc_forest(self):
        tree = DirectedSimpleGraph(3, ((0, 1), (1, 2)))
        assert nsc_graph(2, tree) == 0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_nsc_matches_generic(self, seed):
        g = random_connected_graph(random.Random(seed))
        b = flow_space_basis(g)
        pts = enumerate_extreme_points(b)
        for s in range(1, g.edge_count + 1):
            assert nsc_graph(s, g) == nullspace_constant(s, b, pts=pts)

    def test_max_uniform_sparsity(self, triangle):
        # the largest s with 2s < girth: 1 on a triangle, 3 on a 7-cycle,
        # and every edge set of a forest
        g7 = DirectedSimpleGraph(7, tuple((i, (i + 1) % 7) for i in range(7)))
        tree = DirectedSimpleGraph(3, ((0, 1), (1, 2)))
        for g, smax in ((triangle, 1), (g7, 3), (tree, 2)):
            assert uniform_levels(g) == list(range(1, smax + 1))

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10**6))
    def test_uniform_sparsity_threshold(self, seed):
        # all supports of size s accepted iff 2s < girth (every s on a forest)
        g = random_connected_graph(random.Random(seed), max_edges=6)
        girth_val = girth(g)
        smax = g.edge_count if girth_val == math.inf else (int(girth_val) - 1) // 2
        assert uniform_levels(g) == list(range(1, smax + 1))


class TestErdosRenyi:
    def test_p_zero(self):
        assert erdos_renyi(10, 0.0, 1).edge_count == 0

    def test_p_one(self):
        assert erdos_renyi(100, 1.0, 1).edge_count == 4950

    def test_deterministic(self):
        assert erdos_renyi(30, 0.2, 5) == erdos_renyi(30, 0.2, 5)

    @pytest.mark.parametrize("k", FIG4_K)
    def test_pinned_er100_edges(self, k):
        h = hashlib.sha256()
        for g in fig4_graphs(k, range(3)):
            h.update(repr(g.edges).encode())
        assert h.hexdigest()[:16] == PINNED_ER100[k][0]

    @pytest.mark.parametrize("vertices", [0, 1, 2])
    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_tiny(self, vertices, p):
        edges = ((0, 1),) if vertices == 2 and p == 1.0 else ()
        assert erdos_renyi(vertices, p, 0) == DirectedSimpleGraph(vertices, edges)

    def test_mean_edges_near_expectation(self):
        p = math.log(100) / 100
        counts = [erdos_renyi(100, p, seed).edge_count for seed in range(50)]
        mean = np.mean(counts)
        # expectation 4950p ~ 228, sd of the mean ~ 2.1
        assert abs(mean - 4950 * p) < 3 * math.sqrt(4950 * p * (1 - p) / 50)

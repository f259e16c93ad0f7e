"""Shared fixtures: small worked-example matrices, random graph helpers and
reference code shared by several test files."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from masckit.graphs import DirectedSimpleGraph, incidence_matrix
from masckit.linalg import RealMatrix, nullspace_basis


@pytest.fixture
def chain_graph():
    """Triangle {0,1,2} joined to a pendant 4-cycle path: 7 edges, 6 vertices.

    Edge letters a..g map to columns 0..6; cycles have edge sets
    {a,b,c}, {b,d,e,f,g}, {a,c,d,e,f,g}.
    """
    return DirectedSimpleGraph(
        6, ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 1))
    )


@pytest.fixture
def triangle():
    return DirectedSimpleGraph(3, ((0, 1), (1, 2), (2, 0)))


def random_connected_graph(rng: random.Random, max_edges: int = 8) -> DirectedSimpleGraph:
    """Random connected simple digraph with between 3 and max_edges edges."""
    while True:
        vertices = rng.randint(3, 6)
        pairs = [(u, v) for u in range(vertices) for v in range(u + 1, vertices)]
        want = rng.randint(vertices - 1, min(max_edges, len(pairs)))
        # spanning tree first so the graph is connected
        nodes = list(range(vertices))
        rng.shuffle(nodes)
        edges = set()
        for i in range(1, vertices):
            a, b = nodes[rng.randrange(i)], nodes[i]
            edges.add((min(a, b), max(a, b)))
        extra = [p for p in pairs if p not in edges]
        rng.shuffle(extra)
        while len(edges) < want and extra:
            edges.add(extra.pop())
        if len(edges) <= max_edges:
            oriented = tuple(
                (u, v) if rng.random() < 0.5 else (v, u) for u, v in sorted(edges)
            )
            return DirectedSimpleGraph(vertices, oriented)


def random_rational_matrix(rng: random.Random, rows: int, cols: int) -> RealMatrix:
    return RealMatrix.from_rows(
        [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
    )


def circuits_reference(phi: RealMatrix) -> list[tuple[tuple[int, ...], tuple]]:
    """Every circuit of phi's columns, the minimal T with rank phi_T = |T| - 1,
    with its null vector l1-normalized, first entry positive and embedded in
    R^n; by size, then indices. Exact Gauss-Jordan elimination on Fractions
    over every column set, smallest first, skipping supersets of circuits.
    """
    n = phi.cols
    found = []
    for size in range(1, n + 1):
        for t in itertools.combinations(range(n), size):
            if any(set(c) <= set(t) for c, _ in found):
                continue
            sub = [[Fraction(phi[i, j]) for j in t] for i in range(phi.rows)]
            pivots = []
            for c in range(size):
                r = len(pivots)
                pr = next((i for i in range(r, len(sub)) if sub[i][c] != 0), None)
                if pr is None:
                    continue
                sub[r], sub[pr] = sub[pr], sub[r]
                sub[r] = [x / sub[r][c] for x in sub[r]]
                for i in range(len(sub)):
                    if i != r:
                        sub[i] = [a - sub[i][c] * b for a, b in zip(sub[i], sub[r])]
                pivots.append(c)
            if len(pivots) != size - 1:
                continue
            free = next(c for c in range(size) if c not in pivots)
            v = [Fraction(0)] * size
            v[free] = Fraction(1)
            for r, c in enumerate(pivots):
                v[c] = -sub[r][free]
            scale = sum(abs(x) for x in v) * (1 if v[0] > 0 else -1)
            z = [Fraction(0)] * n
            for j, x in zip(t, v):
                z[j] = x / scale
            found.append((t, tuple(z)))
    return found


def flow_space_basis(g: DirectedSimpleGraph):
    """Exact nullspace basis of the incidence matrix (generic-path bridge)."""
    return nullspace_basis(incidence_matrix(g))


def girth_reference(g: DirectedSimpleGraph) -> float:
    """Length of the shortest simple cycle; math.inf for forests.

    BFS from every vertex on the underlying undirected graph, O(mn) total,
    with no depth cutoff.
    """
    adj = [[] for _ in range(g.vertex_count)]
    for tail, head in g.edges:
        adj[tail].append(head)
        adj[head].append(tail)
    best = math.inf
    for root in range(g.vertex_count):
        dist = {root: 0}
        parent = {root: -1}
        queue = [root]
        while queue:
            nxt = []
            for u in queue:
                for v in adj[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        parent[v] = u
                        nxt.append(v)
                    elif parent[u] != v and dist[v] >= dist[u]:
                        # non-tree edge closes a walk containing a cycle
                        best = min(best, dist[u] + dist[v] + 1)
            queue = nxt
    return best


def dft_root_powers(n: int) -> np.ndarray:
    """Array of xi**k for k in 0..n-1, each evaluated directly."""
    ks = np.arange(n)
    ang = -2.0 * np.pi * ks / n
    return np.cos(ang) + 1j * np.sin(ang)


def dft_matrix_reference(n: int, rows=None) -> np.ndarray:
    """Rows (default all) of the unitary n x n DFT, each entry
    xi**(k*l) / sqrt(n) evaluated on its own from the reduced exponent
    (k*l) mod n with math.cos/math.sin."""
    rows = range(n) if rows is None else list(rows)
    scale = 1.0 / math.sqrt(n)
    out = np.empty((len(rows), n), dtype=complex)
    for i, k in enumerate(rows):
        for l in range(n):
            ang = -2.0 * math.pi * ((k * l) % n) / n
            out[i, l] = scale * complex(math.cos(ang), math.sin(ang))
    return out

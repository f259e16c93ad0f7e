"""Graph incidence-matrix fast path.

For incidence matrices the always-recoverable supports are governed by the
simple cycles of the underlying undirected graph: a support qualifies exactly
when it covers strictly less than half of every simple cycle's edges, and the
nullspace constant collapses to min(1, s/girth).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import networkx as nx
import numpy as np

from .errors import BudgetExceededError, InputError
from .linalg import RealMatrix
from .masc import ExtremePoint, MembershipVerdict, SupportSet

__all__ = [
    "DirectedSimpleGraph",
    "incidence_matrix",
    "enumerate_simple_cycles",
    "girth",
    "masc_contains_graph",
    "nsc_graph",
    "erdos_renyi",
    "parse_graph_text",
    "format_graph_text",
]

DEFAULT_CYCLE_CAP = 10**6
INF_GIRTH = math.inf


@dataclass(frozen=True)
class DirectedSimpleGraph:
    """Simple directed graph; edge order fixes incidence-matrix columns."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.vertex_count < 0:
            raise InputError("vertex count must be >= 0")
        seen = set()
        for tail, head in self.edges:
            if tail == head:
                raise InputError("self loops are not allowed")
            if not (0 <= tail < self.vertex_count and 0 <= head < self.vertex_count):
                raise InputError("edge endpoint out of range")
            key = frozenset((tail, head))
            if key in seen:
                raise InputError("at most one edge per vertex pair (simple graph)")
            seen.add(key)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def undirected(self) -> nx.Graph:
        g = nx.Graph()
        g.add_nodes_from(range(self.vertex_count))
        g.add_edges_from(self.edges)
        return g


def incidence_matrix(g: DirectedSimpleGraph) -> RealMatrix:
    """Vertex-by-edge matrix: -1 at each edge's tail, +1 at its head."""
    a = np.zeros((g.vertex_count, g.edge_count), dtype=np.int8)
    ends = np.array(g.edges, dtype=np.intp).reshape(-1, 2)
    cols = np.arange(g.edge_count)
    a[ends[:, 0], cols] = -1
    a[ends[:, 1], cols] = 1
    return RealMatrix(g.vertex_count, g.edge_count, tuple(a.ravel().tolist()))


def _cycles(g: DirectedSimpleGraph, cap: int, length_bound: int | None = None):
    """Each simple cycle of at most length_bound edges (all when None) of the
    underlying undirected graph, once, as its sorted edge indices and the
    +-1 direction it traverses each in, the lowest-indexed edge forward.
    Raises once more than cap cycles have been seen."""
    edge_index = {}
    for idx, (tail, head) in enumerate(g.edges):
        edge_index[(tail, head)] = (idx, 1)
        edge_index[(head, tail)] = (idx, -1)
    cycles = nx.simple_cycles(g.undirected(), length_bound)
    for count, nodes in enumerate(cycles, 1):
        if count > cap:
            raise BudgetExceededError(
                f"more than {cap} simple cycles; raise the cap"
            )
        steps = sorted(edge_index[e] for e in zip(nodes, nodes[1:] + nodes[:1]))
        indices, signs = zip(*steps)
        yield indices, signs if signs[0] > 0 else tuple(-s for s in signs)


def _point(m: int, indices, signs) -> ExtremePoint:
    """The cycle's signed characteristic vector, l1-normalized."""
    step = Fraction(1, len(indices))
    vec = [Fraction(0)] * m
    for i, sign in zip(indices, signs):
        vec[i] = step if sign > 0 else -step
    return ExtremePoint(tuple(vec), SupportSet(m, indices))


def enumerate_simple_cycles(
    g: DirectedSimpleGraph, cap: int = DEFAULT_CYCLE_CAP
) -> list[ExtremePoint]:
    """W1: the extreme points of the flow space intersected with the l1
    ball, up to antipodes, one normalized signed cycle vector per simple
    cycle of the underlying undirected graph.

    Deterministic order: by length, then lexicographically by sorted
    edge-index set. Raises when the cycle count exceeds the cap.
    """
    cycles = sorted(_cycles(g, cap), key=lambda c: (len(c[0]), c[0]))
    return [_point(g.edge_count, *c) for c in cycles]


def girth(g: DirectedSimpleGraph) -> float:
    """Length of the shortest simple cycle; math.inf for forests."""
    return nx.girth(g.undirected())


def masc_contains_graph(
    g: DirectedSimpleGraph, s: SupportSet, cap: int = DEFAULT_CYCLE_CAP
) -> MembershipVerdict:
    """Exact integer-arithmetic membership check over edge supports.

    A support is in the family iff 2 * |S intersect cycle| < cycle length for
    every simple cycle. The margin is the smallest over every cycle, and an
    "out" verdict's witness is the shortest, then lexicographically first,
    cycle attaining it. A violating cycle has at most 2|S| edges, so the
    cycles that short are read first; only when none of them violates are
    all cycles read. Raises past cap cycles in either pass.
    """
    if s.ambient_dim != g.edge_count:
        raise InputError("support must index the graph's edges")
    sset = set(s.indices)
    short = 2 * len(sset)
    for bound in (short, None) if short < g.vertex_count else (None,):
        # worst cycle so far: most hits per edge, then fewest edges, then
        # lowest edge indices; no cycle counts as 0 hits in 1 edge
        hits, length, worst = 0, 1, None
        for edges, signs in _cycles(g, cap, bound):
            h = sum(i in sset for i in edges)
            gain = h * length - hits * len(edges)
            if worst is None or gain > 0 or (
                gain == 0 and (len(edges), edges) < (length, worst[0])
            ):
                hits, length, worst = h, len(edges), (edges, signs)
        if 2 * hits >= length:
            break
    return MembershipVerdict.from_mass(
        Fraction(hits, length), lambda: _point(g.edge_count, *worst)
    )


def nsc_graph(s: int, g: DirectedSimpleGraph) -> Fraction:
    """Closed-form nullspace constant min(1, s/girth); 0 for forests."""
    if s < 1:
        raise InputError("sparsity must be >= 1")
    girth_val = girth(g)
    if girth_val == INF_GIRTH:
        return Fraction(0)
    return min(Fraction(1), Fraction(s, int(girth_val)))


def erdos_renyi(vertices: int, p: float, seed: int) -> DirectedSimpleGraph:
    """Each unordered pair becomes an edge independently with probability p,
    oriented low index to high index. Deterministic given the seed."""
    if not 0.0 <= p <= 1.0:
        raise InputError("edge probability must be in [0, 1]")
    if seed < 0:
        raise InputError("seed must be >= 0")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    # one double per pair, pairs in row-major order: this order fixes the
    # seeded edge lists
    tails, heads = np.triu_indices(vertices, 1)
    keep = rng.random(tails.size) < p
    edges = zip(tails[keep].tolist(), heads[keep].tolist())
    return DirectedSimpleGraph(vertices, tuple(edges))


# Graph text format: header "m n", then one "tail head" pair per line.


def parse_graph_text(text: str) -> DirectedSimpleGraph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InputError("empty graph file")
    try:
        m, n = map(int, lines[0].split())
        edges = []
        for ln in lines[1:]:
            tail, head = map(int, ln.split())
            edges.append((tail, head))
    except ValueError as exc:
        raise InputError(f"malformed graph text: {exc}") from exc
    if len(edges) != n:
        raise InputError("edge count does not match header")
    return DirectedSimpleGraph(m, tuple(edges))


def format_graph_text(g: DirectedSimpleGraph) -> str:
    lines = [f"{g.vertex_count} {g.edge_count}"]
    lines += [f"{t} {h}" for t, h in g.edges]
    return "\n".join(lines) + "\n"

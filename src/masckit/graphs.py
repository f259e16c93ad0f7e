"""Graph incidence-matrix fast path.

For incidence matrices the always-recoverable supports are governed by the
simple cycles of the underlying undirected graph: a support qualifies exactly
when it covers strictly less than half of every simple cycle's edges, and the
nullspace constant collapses to min(1, s/girth).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import networkx as nx
import numpy as np

from .errors import BudgetExceededError, InputError
from .linalg import RealMatrix
from .masc import HALF, ExtremePoint, MembershipVerdict, SupportSet

__all__ = [
    "DirectedSimpleGraph",
    "SimpleCycle",
    "incidence_matrix",
    "enumerate_simple_cycles",
    "girth",
    "w1",
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


@dataclass(frozen=True)
class SimpleCycle:
    """A simple cycle by its signed edge-characteristic vector."""

    signed_char_vector: tuple[int, ...]
    edge_indices: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        edges = tuple(i for i, s in enumerate(self.signed_char_vector) if s != 0)
        object.__setattr__(self, "edge_indices", edges)

    @property
    def length(self) -> int:
        return len(self.edge_indices)


def incidence_matrix(g: DirectedSimpleGraph) -> RealMatrix:
    """Vertex-by-edge matrix: -1 at each edge's tail, +1 at its head."""
    a = np.zeros((g.vertex_count, g.edge_count), dtype=np.int8)
    ends = np.array(g.edges, dtype=np.intp).reshape(-1, 2)
    cols = np.arange(g.edge_count)
    a[ends[:, 0], cols] = -1
    a[ends[:, 1], cols] = 1
    return RealMatrix(g.vertex_count, g.edge_count, tuple(a.ravel().tolist()))


def _cycle_from_nodes(edge_index: dict, m: int, nodes: list[int]) -> SimpleCycle:
    char = [0] * m
    for u, v in zip(nodes, nodes[1:] + nodes[:1]):
        idx, sign = edge_index[(u, v)]
        char[idx] = sign
    # canonical orientation: lowest-indexed edge traversed forward
    first = next(i for i, s in enumerate(char) if s != 0)
    if char[first] < 0:
        char = [-s for s in char]
    return SimpleCycle(tuple(char))


def iter_simple_cycles(g: DirectedSimpleGraph):
    """Streaming cycle generator (no cap, no deterministic global order)."""
    edge_index = {}
    for idx, (tail, head) in enumerate(g.edges):
        edge_index[(tail, head)] = (idx, 1)
        edge_index[(head, tail)] = (idx, -1)
    for nodes in nx.simple_cycles(g.undirected()):
        yield _cycle_from_nodes(edge_index, g.edge_count, nodes)


def _capped(cycles, cap: int):
    """Pass cycles through, raising once more than cap have been seen."""
    for count, cyc in enumerate(cycles, 1):
        if count > cap:
            raise BudgetExceededError(
                f"more than {cap} simple cycles; raise the cap"
            )
        yield cyc


def enumerate_simple_cycles(
    g: DirectedSimpleGraph, cap: int = DEFAULT_CYCLE_CAP
) -> list[SimpleCycle]:
    """All simple cycles of the underlying undirected graph, each once.

    Deterministic order: by length, then lexicographically by sorted
    edge-index set. Raises when the cycle count exceeds the cap.
    """
    out = list(_capped(iter_simple_cycles(g), cap))
    out.sort(key=lambda c: (c.length, c.edge_indices))
    return out


def _cycle_point(cyc: SimpleCycle) -> ExtremePoint:
    """The cycle's signed characteristic vector, l1-normalized."""
    vec = tuple(Fraction(s, cyc.length) for s in cyc.signed_char_vector)
    return ExtremePoint(vec, SupportSet(len(vec), cyc.edge_indices))


def girth(g: DirectedSimpleGraph) -> float:
    """Length of the shortest simple cycle; math.inf for forests."""
    return nx.girth(g.undirected())


def w1(g: DirectedSimpleGraph) -> list[ExtremePoint]:
    """Normalized signed characteristic vectors, one per cycle.

    These are exactly the extreme points of the flow space intersected with
    the l1 ball, up to antipodes.
    """
    return [_cycle_point(cyc) for cyc in enumerate_simple_cycles(g)]


def masc_contains_graph(
    g: DirectedSimpleGraph,
    s: SupportSet,
    lazy: bool = False,
    cap: int = DEFAULT_CYCLE_CAP,
) -> MembershipVerdict:
    """Exact integer-arithmetic membership check over edge supports.

    A support is in the family iff 2 * |S intersect cycle| < cycle length for
    every simple cycle. Both modes stream the cycles and raise past cap
    cycles. Lazy mode stops at the first violation, its witness; otherwise
    the margin is the smallest over every cycle and an "out" verdict's
    witness is the shortest, then lexicographically first, cycle attaining
    it.
    """
    if s.ambient_dim != g.edge_count:
        raise InputError("support must index the graph's edges")
    sset = set(s.indices)
    worst = None  # (-mass, length, edge indices) of the worst cycle so far
    witness = None
    for cyc in _capped(iter_simple_cycles(g), cap):
        edges = cyc.edge_indices
        mass = Fraction(sum(1 for i in edges if i in sset), len(edges))
        key = (-mass, len(edges), edges)
        if worst is None or key < worst:
            worst, witness = key, cyc
            if lazy and mass >= HALF:
                break
    mass = 0 if worst is None else -worst[0]
    return MembershipVerdict.from_mass(mass, lambda: _cycle_point(witness))


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

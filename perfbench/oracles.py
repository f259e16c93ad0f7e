"""Correctness checks that do not use masckit.

Every matrix is rebuilt here from its definition (DFT rows from
exp(-2*pi*i*k*j/n), incidence columns from the edge list), and every verdict
is recomputed by another method than the program's: a dual-certificate LP
(scipy HiGHS) for recovery, batched SVD null vectors for Gamma-weights,
`numpy.linalg.matrix_rank` over all candidate supports for circuits, a plain
depth-first search for simple cycles and `networkx.girth` for the girth.

Each `check_*` function returns a list of problems, empty when the program's
output is right.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from itertools import combinations

import networkx as nx
import numpy as np
from scipy.optimize import linprog

# |t* - 1| within this is a boundary trial: the dual certificate is too
# close to 1 to call, and the program must not claim recovery
BOUNDARY_TOL = 1e-8
# masses within this of 1/2 are ties, which the verdict may not overrule
TIE_TOL = 1e-9
VECTOR_TOL = 1e-8


# --- matrices ---------------------------------------------------------------

def dft_rows(n: int, omega) -> np.ndarray:
    k = np.asarray(list(omega))[:, None]
    j = np.arange(n)[None, :]
    return np.exp(-2j * np.pi * ((k * j) % n) / n)


def realified(c: np.ndarray) -> np.ndarray:
    return np.concatenate([c.real, c.imag], axis=0)


def incidence(vertices: int, edges) -> np.ndarray:
    a = np.zeros((vertices, len(edges)))
    for j, (tail, head) in enumerate(edges):
        a[tail, j] = -1.0
        a[head, j] = 1.0
    return a


def coherence_guarantee(n: int, m: int) -> int:
    """Largest integer strictly below n / (2 (n - m))."""
    return math.ceil(Fraction(n, 2 * (n - m))) - 1


# --- recovery trials --------------------------------------------------------

def dual_certificate(a: np.ndarray, x: np.ndarray) -> tuple[str, float]:
    """Exact uniqueness test for basis pursuit at x.

    x is the unique l1 minimizer of {z : a z = a x} iff a_S has full column
    rank and t* < 1, where t* = min ||a_{S^c}^T w||_inf subject to
    a_S^T w = sign(x_S). Returns ("recover" | "fail" | "boundary", t*).
    """
    support = np.flatnonzero(x)
    off = np.setdiff1d(np.arange(a.shape[1]), support)
    a_s = a[:, support]
    if np.linalg.matrix_rank(a_s) < support.size:
        return "fail", math.inf
    m = a.shape[0]
    # variables (w, t): minimize t, -t <= a_off^T w <= t
    cost = np.zeros(m + 1)
    cost[-1] = 1.0
    g = a[:, off].T
    ones = np.ones((off.size, 1))
    a_ub = np.vstack([np.hstack([g, -ones]), np.hstack([-g, -ones])])
    b_ub = np.zeros(2 * off.size)
    a_eq = np.hstack([a_s.T, np.zeros((support.size, 1))])
    b_eq = np.sign(x[support])
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=[(None, None)] * m + [(0, None)], method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"oracle LP did not solve: {res.message}")
    t_star = float(res.fun)
    if abs(t_star - 1.0) <= BOUNDARY_TOL:
        return "boundary", t_star
    return ("recover" if t_star < 1.0 else "fail"), t_star


def check_signal(n: int, s: int, idx, val) -> list[str]:
    """random_sparse_signal: s distinct in-range indices, unit l2 norm."""
    out = []
    if len(idx) != s or len(set(idx)) != s or not all(0 <= i < n for i in idx):
        out.append(f"signal support {idx} is not {s} distinct indices below {n}")
    if abs(math.fsum(v * v for v in val) - 1.0) > 1e-9:
        out.append("signal is not l2-normalized")
    return out


def check_trial(a: np.ndarray, idx, val, recovered: bool,
                guaranteed: bool = False) -> tuple[list[str], str]:
    """The program's verdict against the dual certificate; `guaranteed`
    marks trials the paper's theory says must be recovered."""
    x = np.zeros(a.shape[1])
    x[list(idx)] = val
    status, t_star = dual_certificate(a, x)
    out = []
    if status == "boundary" and recovered:
        out.append(f"recovery claimed on a boundary trial (t* = {t_star!r})")
    elif status != "boundary" and recovered != (status == "recover"):
        out.append(f"program says recovered={recovered}, certificate t* = {t_star!r}")
    if guaranteed and not recovered:
        out.append("trial within the paper's guarantee was not recovered")
    return out, status


# --- partial DFT Gamma-weights ----------------------------------------------

def gamma_weights(n: int, omega, gammas: np.ndarray, block: int = 2048) -> np.ndarray:
    """|null vector| of the DFT rows restricted to each Gamma, unit row sum."""
    f = dft_rows(n, omega)
    out = np.empty(gammas.shape, dtype=float)
    for lo in range(0, len(gammas), block):
        sub = f[:, gammas[lo:lo + block]].transpose(1, 0, 2)
        _, _, vh = np.linalg.svd(sub, full_matrices=True)
        w = np.abs(vh[:, -1, :])
        out[lo:lo + block] = w / w.sum(axis=1, keepdims=True)
    return out


def all_gammas(n: int, size: int) -> np.ndarray:
    return np.array(list(combinations(range(n), size)), dtype=int)


def s_max_of_weights(weights: np.ndarray) -> int:
    """min over Gamma of the largest t whose t heaviest weights hold < 1/2."""
    prefix = np.cumsum(-np.sort(-weights, axis=1), axis=1)
    return int((prefix < 0.5).sum(axis=1).min())


def check_s_max_order(guaranteed: int, exact: int | None, sampled: int) -> list[str]:
    """s_guaranteed <= s_max_exact <= s_max_sampled (exact where known)."""
    chain = [v for v in (guaranteed, exact, sampled) if v is not None]
    if chain != sorted(chain):
        return [f"s_guaranteed {guaranteed} <= exact {exact} <= sampled {sampled} fails"]
    return []


def check_dft_witness(n: int, omega, support, witness) -> list[str]:
    """A rejection's witness: in null(F_omega), unit l1, >= 1/2 of it on S."""
    if witness is None:
        return ["rejection without a witness"]
    v = np.asarray(witness["vector"])
    out = []
    if np.abs(dft_rows(n, omega) @ v).max() > VECTOR_TOL:
        out.append("witness is not in the nullspace")
    if abs(np.abs(v).sum() - 1.0) > VECTOR_TOL:
        out.append("witness is not l1-normalized")
    if np.abs(v[list(support)]).sum() < 0.5 - TIE_TOL:
        out.append("witness holds less than half its mass on the support")
    return out


def check_dft_verdict(weights, gammas, n, omega, rec) -> list[str]:
    """Exhaustive masc_contains_dft against the SVD weights."""
    mask = np.zeros(n)
    mask[rec["support"]] = 1.0
    worst = float((weights * mask[gammas]).sum(axis=1).max())
    if abs(worst - 0.5) <= TIE_TOL:
        return [] if not rec["in_masc"] else ["tie reported as inside"]
    inside = worst < 0.5
    out = []
    if not rec["decided"] or rec["in_masc"] != inside:
        out.append(f"verdict {rec['in_masc']} (decided {rec['decided']}), "
                   f"oracle worst mass {worst!r}")
    if not rec["in_masc"]:
        out += check_dft_witness(n, omega, rec["support"], rec["witness"])
    return out


def check_dft_sampled(n: int, omega, rec) -> list[str]:
    """Sampled mode is one-sided: a rejection must carry a valid witness, a
    support within the coherence guarantee must not be rejected, and a
    clean sweep must not be reported as decided."""
    guaranteed = coherence_guarantee(n, len(omega))
    if rec["in_masc"]:
        return ["clean sampled sweep reported as decided"] if rec["decided"] else []
    out = check_dft_witness(n, omega, rec["support"], rec["witness"])
    if len(rec["support"]) <= guaranteed:
        out.append("support within the coherence guarantee rejected")
    return out


# --- generic matrices: circuits ---------------------------------------------

def circuits(m: np.ndarray) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """All minimal dependent column sets with their l1-normalized null
    vector (first nonzero entry positive), by rank over every candidate."""
    m = np.asarray(m, dtype=float)
    n = m.shape[1]
    rank = np.linalg.matrix_rank(m)
    out = []
    for size in range(1, min(rank + 1, n) + 1):
        for sup in combinations(range(n), size):
            sub = m[:, sup]
            if np.linalg.matrix_rank(sub) != size - 1:
                continue
            v = np.linalg.svd(sub)[2][-1]
            if np.abs(v).min() <= 1e-9 * np.abs(v).max():
                continue  # dependent, but not minimally
            v = v / np.abs(v).sum()
            out.append((sup, v if v[0] > 0 else -v))
    return out


def circuit_vectors(n: int, found) -> list[np.ndarray]:
    vecs = []
    for sup, v in found:
        z = np.zeros(n)
        z[list(sup)] = v
        vecs.append(z)
    return vecs


def check_points(found, points, n: int) -> list[str]:
    """enumerate_extreme_points: same supports and vectors as the circuits."""
    want = {sup: v for sup, v in found}
    got = {tuple(p["support"]): np.asarray(p["vector"]) for p in points}
    out = []
    if set(want) != set(got):
        out.append(f"supports differ: {len(set(want) - set(got))} missing, "
                   f"{len(set(got) - set(want))} extra")
    for sup in set(want) & set(got):
        z = np.zeros(n)
        z[list(sup)] = want[sup]
        if np.abs(got[sup] - z).max() > VECTOR_TOL:
            out.append(f"vector on {sup} differs")
            break
    return out


def check_basis(matrix, basis) -> list[str]:
    """nullspace_basis: exact null vectors, as many as n - rank."""
    m = [[Fraction(x) for x in row] for row in matrix]
    vecs = [[Fraction(x) for x in v] for v in basis]
    n = len(m[0])
    out = []
    if len(vecs) != n - np.linalg.matrix_rank(np.asarray(matrix, dtype=float)):
        out.append("basis size is not the nullity")
    if any(sum(r[j] * v[j] for j in range(n)) != 0 for r in m for v in vecs):
        out.append("a basis vector is not in the nullspace")
    if vecs and np.linalg.matrix_rank(np.array(vecs, dtype=float)) != len(vecs):
        out.append("basis vectors are dependent")
    return out


def check_masc_verdict(vectors, rec) -> list[str]:
    """masc_contains against the circuits: inside iff every circuit keeps
    less than half its mass on S."""
    worst = max((np.abs(z[rec["support"]]).sum() for z in vectors), default=0.0)
    if abs(worst - 0.5) <= TIE_TOL:
        return [] if not rec["in_masc"] else ["tie reported as inside"]
    if rec["in_masc"] != (worst < 0.5) or not rec["decided"]:
        return [f"verdict {rec['in_masc']}, oracle worst mass {worst!r}"]
    return []


def check_nsc(vectors, s: int, value: float) -> list[str]:
    best = max((np.sort(np.abs(z))[::-1][:s].sum() for z in vectors), default=0.0)
    if abs(best - value) > VECTOR_TOL:
        return [f"nullspace_constant({s}) = {value!r}, oracle {best!r}"]
    return []


# --- graphs -----------------------------------------------------------------

def simple_cycles(vertices: int, edges) -> list[frozenset[int]]:
    """Edge-index sets of every simple cycle of the undirected graph: a DFS
    from each vertex r through vertices above r, each cycle once."""
    adj = [[] for _ in range(vertices)]
    for j, (u, v) in enumerate(edges):
        adj[u].append((v, j))
        adj[v].append((u, j))
    out = []
    for root in range(vertices):
        path_v, path_e = [root], []
        on_path = {root}

        def extend(u):
            for v, j in adj[u]:
                if v == root and len(path_e) >= 2 and path_v[1] < path_v[-1]:
                    out.append(frozenset(path_e + [j]))
                elif v > root and v not in on_path:
                    path_v.append(v)
                    path_e.append(j)
                    on_path.add(v)
                    extend(v)
                    on_path.discard(path_v.pop())
                    path_e.pop()

        extend(root)
    return out


def check_graph_verdict(cycles, vertices: int, edges, rec) -> list[str]:
    """masc_contains_graph: inside iff 2|S & C| < |C| for every cycle, and
    a rejection's witness is a signed cycle with >= half its edges in S."""
    sset = set(rec["support"])
    inside = all(2 * len(c & sset) < len(c) for c in cycles)
    out = []
    if rec["in_masc"] != inside or not rec["decided"]:
        out.append(f"verdict {rec['in_masc']}, cycle oracle {inside}")
    if not rec["in_masc"]:
        wit = rec["witness"]
        if wit is None:
            return out + ["rejection without a witness"]
        cyc = frozenset(wit["support"])
        z = np.asarray(wit["vector"])
        if cyc not in set(cycles):
            out.append("witness support is not a simple cycle")
        if np.abs(incidence(vertices, edges) @ z).max() > VECTOR_TOL:
            out.append("witness is not a flow (not in the nullspace)")
        if 2 * len(cyc & sset) < len(cyc):
            out.append("witness cycle has less than half its edges in S")
    return out


def check_girth(vertices: int, edges, girth: int | None) -> list[str]:
    g = nx.Graph()
    g.add_nodes_from(range(vertices))
    g.add_edges_from(edges)
    want = nx.girth(g)
    want = None if math.isinf(want) else int(want)
    return [] if want == girth else [f"girth {girth}, networkx {want}"]


def check_graph(vertices: int, edges) -> list[str]:
    """erdos_renyi output: a simple graph, edges oriented low to high."""
    pairs = [tuple(e) for e in edges]
    if any(not (0 <= u < v < vertices) for u, v in pairs) or len(set(pairs)) != len(pairs):
        return ["edges are not distinct low-to-high pairs of vertices"]
    return []


def check_incidence(vertices: int, edges, rec) -> list[str]:
    a = incidence(vertices, edges)
    digest = hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
    if rec["shape"] != list(a.shape) or rec["sha256"] != digest:
        return ["incidence matrix differs from the edge list"]
    return []

"""Dense revised primal simplex from a known vertex.

Small, dense equality-form LPs only (the basis-pursuit instances in this
package). Dantzig pricing with a switch to Bland's rule after a degenerate
stall, so cycling cannot occur. No external solver dependency.

Every caller holds a feasible vertex and passes it as `start`: the
uniqueness LP of `recovery_trial` starts at x itself, basis pursuit at a
basic solution split by sign. The start's columns form the first basis,
so the simplex runs one phase, on the caller's objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverError

__all__ = ["LpResult", "solve_standard_lp"]

PIVOT_TOL = 1e-9
STALL_LIMIT = 50


@dataclass
class LpResult:
    x: np.ndarray
    objective: float


def _drop_dependent_rows(a, b):
    """Keep a maximal independent row set; returns (a, b) on those rows.

    Dependent equality rows (common after realifying conjugate-symmetric
    complex matrices) leave artificial variables stuck at zero and can drive
    the basis singular, so they are removed up front. Row i is kept when its
    residual off the span of the rows before it exceeds 1e-10 of
    max(||a_i||, 1). The projection onto the kept rows' orthonormal basis is
    applied twice, which keeps that basis orthonormal to rounding. The
    dropped rows need no consistency check: the start satisfies every row.
    """
    m, n = a.shape
    q = np.empty((min(m, n), n))
    keep = np.zeros(m, dtype=bool)
    k = 0
    for i, row in enumerate(a):
        r = row - (q[:k] @ row) @ q[:k]
        r -= (q[:k] @ r) @ q[:k]
        norm = np.linalg.norm(r)
        if norm > 1e-10 * max(np.linalg.norm(row), 1.0):
            keep[i] = True
            q[k] = r / norm
            k += 1
    return a[keep], b[keep]


def solve_standard_lp(a, b, c, start) -> LpResult:
    """Minimize c@x subject to a@x = b, x >= 0, from the vertex `start`.

    `start` must be a feasible vertex: no negative entry, a@start = b with
    residual sum at most 1e-7 max(1, ||b||_1), and independent columns
    under its positive entries. A start that is not such a vertex raises
    `SolverError`; so do rows that no point satisfies.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    start = np.asarray(start, dtype=float)
    if start.shape != (a.shape[1],) or not np.all(start >= 0.0):
        raise SolverError("start has a negative or missing entry")
    if np.abs(a @ start - b).sum() > 1e-7 * max(1.0, np.abs(b).sum()):
        raise SolverError("start does not satisfy the equality constraints")
    a, b = _drop_dependent_rows(a, b)
    m, n = a.shape
    max_iter = 2000 + 30 * m + n
    full_a = np.hstack([a, np.eye(m)])
    basis = _start_basis(a, start)
    _purge_artificials(full_a, basis, n)
    xb = _run_phase(full_a, np.concatenate([c, np.zeros(m)]), basis, max_iter, b)
    x = np.zeros(n + m)
    x[basis] = np.maximum(xb, 0.0)
    return LpResult(x[:n], float(c @ x[:n]))


def _start_basis(a, start):
    """Basis of a feasible vertex: its positive columns, artificials at zero.

    Each positive column of `start` goes on the row that partial pivoting
    picks for it, and artificials fill the other rows, so the basis matrix
    is nonsingular exactly when those columns are independent. Raises
    `SolverError` when they are not.
    """
    m, n = a.shape
    support = np.flatnonzero(start > 0.0)
    if support.size > m:
        raise SolverError("start columns are dependent")
    basis = list(range(n, n + m))
    work = a[:, support].copy()
    free = np.ones(m, dtype=bool)
    for j, col in enumerate(support):
        mag = np.where(free, np.abs(work[:, j]), -1.0)
        r = int(np.argmax(mag))
        if mag[r] <= PIVOT_TOL * np.abs(a[:, col]).max():
            raise SolverError("start columns are dependent")
        free[r] = False
        basis[r] = int(col)
        work[free, j + 1:] -= np.outer(work[free, j] / work[r, j], work[r, j + 1:])
    return basis


def _purge_artificials(full_a, basis, n):
    """Swap basic artificial variables (all at ~0) for structural columns.

    The constraint rows are independent, so every basis row admits a
    structural pivot; degenerate pivots at value zero keep the solution
    unchanged while guaranteeing the simplex cannot move an artificial off
    zero.
    """
    m = full_a.shape[0]
    for i in range(m):
        if basis[i] < n:
            continue
        b_mat = full_a[:, basis]
        e_i = np.zeros(m)
        e_i[i] = 1.0
        binv_row = np.linalg.solve(b_mat.T, e_i)
        vals = np.abs(binv_row @ full_a[:, :n])
        vals[[j for j in basis if j < n]] = 0.0
        j = int(np.argmax(vals))
        if vals[j] > PIVOT_TOL:
            basis[i] = j


def _run_phase(full_a, cvec, basis, max_iter, b):
    """Revised simplex iterations, refactoring the basis every step.

    Factorizing ``full_a[:, basis]`` each iteration costs O(m^3) but removes
    the numerical drift of maintained product-form inverses; the bases here
    are small enough that robustness wins. Only the structural columns are
    priced, so the m artificial columns at the end never enter. Returns the
    basic solution.
    """
    n = full_a.shape[1] - full_a.shape[0]
    stall = 0
    best_obj = np.inf
    for _ in range(max_iter):
        b_mat = full_a[:, basis]
        try:
            xb = np.linalg.solve(b_mat, b)
            y = np.linalg.solve(b_mat.T, cvec[basis])
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular basis matrix") from exc
        reduced = cvec - y @ full_a
        reduced[basis] = 0.0
        cand = np.flatnonzero(reduced[:n] < -PIVOT_TOL)
        if cand.size == 0:
            return xb
        obj = float(cvec[basis] @ xb)
        if obj < best_obj - PIVOT_TOL:
            best_obj = obj
            stall = 0
        else:
            stall += 1
        if stall > STALL_LIMIT:
            entering = int(cand[0])  # Bland
        else:
            entering = int(cand[np.argmin(reduced[cand])])
        direction = np.linalg.solve(b_mat, full_a[:, entering])
        pos = np.flatnonzero(direction > PIVOT_TOL)
        if pos.size == 0:
            raise SolverError("LP unbounded (unexpected for basis pursuit)")
        ratios = np.maximum(xb[pos], 0.0) / direction[pos]
        rmin = ratios.min()
        ties = pos[ratios <= rmin + PIVOT_TOL]
        if stall > STALL_LIMIT:
            # Bland: smallest basis index, guarantees termination
            leave_row = int(ties[np.argmin(np.asarray(basis)[ties])])
        else:
            # largest pivot magnitude keeps the next basis well conditioned
            leave_row = int(ties[np.argmax(direction[ties])])
        basis[leave_row] = entering
    raise SolverError("simplex iteration limit reached")

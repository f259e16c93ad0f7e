"""Dense revised primal simplex, two-phase or from a known vertex.

Small, dense equality-form LPs only (the basis-pursuit instances in this
package). Dantzig pricing with a switch to Bland's rule after a degenerate
stall, so cycling cannot occur. No external solver dependency.

Without a start, phase 1 drives an all-artificial basis to a feasible
vertex (basis pursuit). A caller that already holds a feasible vertex, as
the uniqueness LP of `recovery_trial` holds x itself, passes it as `start`:
its columns form the first basis and only phase 2 runs.
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
    status: str  # "optimal" or "infeasible"


def _drop_dependent_rows(a, b):
    """Keep a maximal independent row set; dependent rows must be consistent.

    Dependent equality rows (common after realifying conjugate-symmetric
    complex matrices) leave artificial variables stuck at zero and can drive
    the basis singular, so they are removed up front. Row i is kept when its
    residual off the span of the rows before it exceeds 1e-10 of
    max(||a_i||, 1). The projection onto the kept rows' orthonormal basis is
    applied twice, which keeps that basis orthonormal to rounding. Returns
    (a, b) reduced, or None when a dropped row contradicts the kept ones.
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
    if keep.all():
        return a, b
    ak, bk = a[keep], b[keep]
    coef, *_ = np.linalg.lstsq(ak.T, a[~keep].T, rcond=None)
    if np.any(np.abs(coef.T @ bk - b[~keep]) > 1e-7 * max(1.0, np.abs(b).max())):
        return None
    return ak, bk


def solve_standard_lp(a, b, c, start=None) -> LpResult:
    """Minimize c@x subject to a@x = b, x >= 0.

    `start`, when given, must be a feasible vertex: no negative entry,
    a@start = b within the phase-1 feasibility tolerance, and independent
    columns under its positive entries. Phase 2 then runs from it and
    phase 1 is skipped; a start that is not such a vertex raises
    `SolverError`.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float).copy()
    c = np.asarray(c, dtype=float)
    n_orig = a.shape[1]
    reduced = _drop_dependent_rows(a, b)
    if reduced is None:
        if start is not None:
            raise SolverError("start does not satisfy the equality constraints")
        return LpResult(np.zeros(n_orig), np.inf, "infeasible")
    a, b = reduced
    m, n = a.shape
    max_iter = 2000 + 30 * m + n
    flip = b < 0
    a = a.copy()
    a[flip] *= -1.0
    b[flip] *= -1.0

    full_a = np.hstack([a, np.eye(m)])
    # a point is feasible when its residual sums to at most feas_tol
    feas_tol = 1e-7 * max(1.0, np.abs(b).sum())
    if start is None:
        # phase 1: drive artificial variables to zero; stop as soon as the
        # residual is below the feasibility tolerance (pivoting further only
        # churns on the degenerate optimal face)
        basis = list(range(n, n + m))
        c1 = np.concatenate([np.zeros(n), np.ones(m)])
        allowed = np.ones(n + m, dtype=bool)
        xb = _run_phase(full_a, c1, basis, allowed, max_iter, b, target=feas_tol)
        if float(c1[basis] @ xb) > feas_tol:
            return LpResult(np.zeros(n), np.inf, "infeasible")
    else:
        basis = _start_basis(a, b, start, feas_tol)
    _purge_artificials(full_a, basis, n)

    # phase 2: original objective, artificials may not re-enter
    c2 = np.concatenate([c, np.zeros(m)])
    allowed = np.concatenate([np.ones(n, dtype=bool), np.zeros(m, dtype=bool)])
    xb = _run_phase(full_a, c2, basis, allowed, max_iter, b)

    x = np.zeros(n + m)
    x[basis] = np.maximum(xb, 0.0)
    return LpResult(x[:n], float(c @ x[:n]), "optimal")


def _start_basis(a, b, start, feas_tol):
    """Basis of a feasible vertex: its positive columns, artificials at zero.

    Each positive column of `start` goes on the row that partial pivoting
    picks for it, and artificials fill the other rows, so the basis matrix
    is nonsingular exactly when those columns are independent. Raises
    `SolverError` when `start` is not a feasible vertex of a@x = b, x >= 0.
    """
    m, n = a.shape
    start = np.asarray(start, dtype=float)
    if start.shape != (n,) or not np.all(start >= 0.0):
        raise SolverError("start has a negative or missing entry")
    if np.abs(a @ start - b).sum() > feas_tol:
        raise SolverError("start does not satisfy the equality constraints")
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
    unchanged while guaranteeing phase 2 cannot move an artificial off zero.
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


def _run_phase(full_a, cvec, basis, allowed, max_iter, b, target=-np.inf):
    """Revised simplex iterations, refactoring the basis every step.

    Factorizing ``full_a[:, basis]`` each iteration costs O(m^3) but removes
    the numerical drift of maintained product-form inverses; the bases here
    are small enough that robustness wins. Returns the basic solution.
    """
    stall = 0
    best_obj = np.inf
    for _ in range(max_iter):
        b_mat = full_a[:, basis]
        try:
            xb = np.linalg.solve(b_mat, b)
            y = np.linalg.solve(b_mat.T, cvec[basis])
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular basis matrix") from exc
        if float(cvec[basis] @ xb) <= target:
            return xb
        reduced = cvec - y @ full_a
        reduced[basis] = 0.0
        eligible = allowed & (reduced < -PIVOT_TOL)
        eligible[basis] = False
        cand = np.flatnonzero(eligible)
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

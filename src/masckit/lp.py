"""Dense revised primal simplex from a known vertex.

Small, dense equality-form LPs only (the basis-pursuit instances in this
package). Dantzig pricing with a switch to Bland's rule after a degenerate
stall, so cycling cannot occur. No external solver dependency.

Every caller holds a feasible vertex and passes it as `start`: the
uniqueness LP of `recovery_trial` starts at x itself, basis pursuit at a
basic solution split by sign. One Gaussian elimination (`_start_basis`)
drops dependent rows and completes the start's columns to the first
basis, so the simplex runs one phase, on the caller's objective.
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


def solve_standard_lp(a, b, c, start) -> LpResult:
    """Minimize c@x subject to a@x = b, x >= 0, from the vertex `start`.

    `start` must be a feasible vertex: no negative entry, a@start = b with
    residual sum at most 1e-7 ||b||_1, and independent columns under its
    positive entries. A start that is not such a vertex raises
    `SolverError`; so do rows that no point satisfies.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    start = np.asarray(start, dtype=float)
    if start.shape != (a.shape[1],) or not np.all(start >= 0.0):
        raise SolverError("start has a negative or missing entry")
    if np.abs(a @ start - b).sum() > 1e-7 * np.abs(b).sum():
        raise SolverError("start does not satisfy the equality constraints")
    rows, basis = _start_basis(a, np.flatnonzero(start > 0.0))
    n = a.shape[1]
    max_iter = 2000 + 30 * len(rows) + n
    xb = _run_phase(a[rows], c, basis, max_iter, b[rows])
    x = np.zeros(n)
    x[basis] = np.maximum(xb, 0.0)
    return LpResult(x, float(c @ x))


def _start_basis(a, support=()):
    """Independent rows of `a` and a basis on them, as (rows, columns).

    Gaussian elimination on a copy of `a`. First each column of `support`,
    in order, pivots on the free row with the largest entry (partial
    pivoting); a largest entry at or below PIVOT_TOL max|a_col| means the
    support is dependent and raises `SolverError`. Then each remaining row,
    in index order, pivots on the non-basic column with the largest entry
    of its eliminated row (the Schur-complement row); a row whose largest
    entry is at or below 1e-10 ||a_i|| is dependent on the rows before it
    and is dropped. Dependent rows (common after realifying
    conjugate-symmetric complex matrices) would make every basis singular;
    the dropped rows need no consistency check when the caller's point
    satisfies every row. `rows` ascend and columns[i] is the column pivoted
    on rows[i]; the simplex breaks ratio-test ties by basis position, so
    this order is part of its pivot rule.
    """
    work = np.array(a, dtype=float)
    m = work.shape[0]
    order = np.arange(m)  # the row of `a` at each position of `work`
    basic = np.full(m, -1)  # the column pivoted on each row of `a`

    def pivot(p, j):
        basic[order[p]] = j
        work[p + 1:] -= np.outer(work[p + 1:, j] / work[p, j], work[p])
        work[p + 1:, j] = 0.0  # exactly, so a basic column is never picked again

    for k, j in enumerate(support):
        mag = np.abs(work[k:, j])
        if mag.size == 0 or mag.max() <= PIVOT_TOL * np.abs(a[:, j]).max():
            raise SolverError("start columns are dependent")
        # move the pivot row r up to position k; the free rows stay in index order
        r = k + int(np.argmax(mag))
        move = np.r_[r, k:r]
        work[k:r + 1], order[k:r + 1] = work[move], order[move]
        pivot(k, int(j))
    for p in range(len(support), m):
        j = int(np.argmax(np.abs(work[p])))
        if abs(work[p, j]) > 1e-10 * np.linalg.norm(a[order[p]]):
            pivot(p, j)
    rows = np.flatnonzero(basic >= 0)
    return rows, basic[rows]


def _run_phase(a, cvec, basis, max_iter, b):
    """Revised simplex iterations, refactoring the basis every step.

    Factorizing ``a[:, basis]`` each iteration costs O(m^3) but removes
    the numerical drift of maintained product-form inverses; the bases here
    are small enough that robustness wins. `a` has independent rows and
    `basis` holds one column per row. Returns the basic solution.
    """
    stall = 0
    best_obj = np.inf
    for _ in range(max_iter):
        b_mat = a[:, basis]
        try:
            xb = np.linalg.solve(b_mat, b)
            y = np.linalg.solve(b_mat.T, cvec[basis])
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular basis matrix") from exc
        reduced = cvec - y @ a
        reduced[basis] = 0.0
        cand = np.flatnonzero(reduced < -PIVOT_TOL)
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
        direction = np.linalg.solve(b_mat, a[:, entering])
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

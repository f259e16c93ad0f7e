"""Equality-constrained l1 minimization (basis pursuit) and the Monte-Carlo
recovery harness used by all experiments.

Basis pursuit is the split-variable LP min sum(u+v) s.t. A(u-v)=y, u,v>=0,
solved by the in-package simplex from a basic solution of Ax = y split by
sign. A recovery trial does not solve it: it decides whether x is the
unique l1 minimizer by a dual certificate (Fuchs 2004), and only when that
is inconclusive by one LP, the uniqueness test of Mangasarian (1979), which
starts at the vertex x. Randomness comes from numpy's PCG64 generator; each
trial draws from a stream seeded by SeedSequence((seed, trial)) so results
are reproducible and trials are independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .lp import _start_basis, solve_standard_lp

__all__ = [
    "RecoveryProblem",
    "TrialConfig",
    "basis_pursuit",
    "recovery_trial",
    "recovery_rate",
    "mrsl_naive",
    "random_sparse_signal",
    "realify",
]

# step 1 certifies recovery when ||A_{S^c}^T w0||_inf stays this far below 1
CERTIFICATE_MARGIN = 1e-7
# step 2: off-support mass at or below this fraction of ||x||_1 is rounding
UNIQUE_MASS_TOL = 1e-9


@dataclass(frozen=True)
class RecoveryProblem:
    """Measurement matrix (float m x n array) and observed vector y."""

    measurement: np.ndarray
    observed: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.measurement, dtype=float)
        y = np.asarray(self.observed, dtype=float)
        if a.ndim != 2 or y.ndim != 1 or a.shape[0] != y.shape[0]:
            raise InputError("inconsistent problem dimensions")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(y))):
            raise InputError("non-finite problem data")
        object.__setattr__(self, "measurement", a)
        object.__setattr__(self, "observed", y)


@dataclass(frozen=True)
class TrialConfig:
    sparsity: int
    trials: int
    seed: int

    def __post_init__(self):
        if self.sparsity < 1 or self.trials < 1:
            raise InputError("invalid trial configuration")
        if self.seed < 0:
            raise InputError("seed must be >= 0")


def realify(complex_matrix: np.ndarray) -> np.ndarray:
    """Stack real and imaginary parts of the rows of a complex matrix.

    The unknown signal is real, so the feasible set is unchanged.
    """
    c = np.asarray(complex_matrix, dtype=complex)
    return np.vstack([c.real, c.imag])


def basis_pursuit(problem: RecoveryProblem) -> np.ndarray:
    """Solve min ||x||_1 s.t. measurement @ x = observed; returns x_hat.

    When the minimizer is not unique, x_hat is one of them; `recovery_trial`
    decides uniqueness. The simplex starts at x0 split by sign, where x0
    solves the system on the independent rows and basis columns that the
    LP's own elimination picks, and is zero elsewhere: a basic solution, so
    (x0+, x0-) is a vertex. An observed vector outside the range of the
    matrix raises `SolverError`, since x0 misses it.
    """
    a = problem.measurement
    n = a.shape[1]
    rows, cols = _start_basis(a)
    x0 = np.zeros(n)
    x0[cols] = np.linalg.solve(a[rows][:, cols], problem.observed[rows])
    start = np.concatenate([np.maximum(x0, 0.0), np.maximum(-x0, 0.0)])
    res = solve_standard_lp(np.hstack([a, -a]), problem.observed, np.ones(2 * n), start)
    return res.x[:n] - res.x[n:]


def recovery_trial(a: np.ndarray, x_true: np.ndarray) -> bool:
    """Single trial: is x_true the unique minimizer of ||z||_1 s.t. a z = a x_true?

    Let S = supp(x_true). x_true is the unique minimizer iff a_S has full
    column rank and some w has a_S^T w = sign(x_S) and ||a_{S^c}^T w||_inf < 1
    (Fuchs 2004). Step 1 tries the least-squares w0 only. When it does not
    decide, step 2 solves one LP (Mangasarian 1979): the largest off-support
    mass sum_{j not in S} (u_j + v_j) over a(u - v) = a x_true,
    sum(u + v) <= ||x_true||_1, u, v >= 0. With a_S of full column rank,
    x_true is unique iff that mass is zero. x_true itself (u = x_true+,
    v = x_true-, slack 0) is a vertex of that LP, since step 1 checked the
    rank, so the simplex starts there. Ties
    (non-unique minimizers) count as failures.
    """
    a = np.asarray(a, dtype=float)
    x = np.asarray(x_true, dtype=float)
    if a.ndim != 2 or x.shape != (a.shape[1],):
        raise InputError("inconsistent problem dimensions")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(x))):
        raise InputError("non-finite problem data")
    m, n = a.shape
    on = x != 0
    w0, _, rank, _ = np.linalg.lstsq(a[:, on].T, np.sign(x[on]), rcond=None)
    if rank < np.count_nonzero(on):
        return False
    if np.abs(a[:, ~on].T @ w0).max(initial=0.0) < 1.0 - CERTIFICATE_MARGIN:
        return True

    # step 2: variables (u, v, slack); minimize minus the off-support mass
    l1 = float(np.abs(x).sum())
    lhs = np.zeros((m + 1, 2 * n + 1))
    lhs[:m, :n] = a
    lhs[:m, n:2 * n] = -a
    lhs[m] = 1.0
    cost = np.append(np.tile(np.where(on, 0.0, -1.0), 2), 0.0)
    # x itself is a vertex: u = x+, v = x-, slack 0, on independent columns
    start = np.concatenate([np.maximum(x, 0.0), np.maximum(-x, 0.0), [0.0]])
    res = solve_standard_lp(lhs, np.append(a @ x, l1), cost, start=start)
    return -res.objective <= UNIQUE_MASS_TOL * l1


def random_sparse_signal(n: int, s: int, entropy: tuple[int, ...]) -> np.ndarray:
    """Uniform random support, standard-normal values, l2-normalized.

    `entropy` is a tuple of non-negative ints (seed path) feeding PCG64.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
    support = rng.choice(n, size=s, replace=False)
    x = np.zeros(n)
    vals = rng.standard_normal(s)
    while np.linalg.norm(vals) == 0.0:
        vals = rng.standard_normal(s)
    x[support] = vals / np.linalg.norm(vals)
    return x


def recovery_rate(a: np.ndarray, cfg: TrialConfig) -> float:
    """Fraction of seeded random sparse signals recovered exactly."""
    a = np.asarray(a, dtype=float)
    n = a.shape[1]
    if cfg.sparsity > n:
        raise InputError("sparsity exceeds signal dimension")
    hits = 0
    for t in range(cfg.trials):
        x = random_sparse_signal(n, cfg.sparsity, (cfg.seed, t))
        hits += recovery_trial(a, x)
    return hits / cfg.trials


def mrsl_naive(a: np.ndarray, k: int, seed: int = 0) -> int:
    """Sampling upper bound on the largest uniformly recoverable sparsity.

    Starts at s = n and decrements until k random s-sparse signals are all
    recovered; an early failure at a level moves on immediately.
    """
    if k < 1:
        raise InputError("sampling size must be >= 1")
    if seed < 0:
        raise InputError("seed must be >= 0")
    a = np.asarray(a, dtype=float)
    n = a.shape[1]
    for s in range(n, 0, -1):
        ok = True
        for t in range(k):
            x = random_sparse_signal(n, s, (seed, s, t))
            if not recovery_trial(a, x):
                ok = False
                break
        if ok:
            return s
    return 0

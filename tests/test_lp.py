import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from masckit.dft import band_spec
from masckit.errors import SolverError
from masckit.graphs import erdos_renyi, incidence_matrix
from masckit.lp import LpResult, _drop_dependent_rows, solve_standard_lp
from masckit.recovery import realify


def test_simple_feasible():
    # min x0 + x1 s.t. x0 + x1 = 1
    a = np.array([[1.0, 1.0]])
    res = solve_standard_lp(a, np.array([1.0]), np.ones(2), np.array([1.0, 0.0]))
    assert res.objective == pytest.approx(1.0)


def test_negative_rhs_flip():
    # a negative right-hand side needs no row flip when the start is given
    a = np.array([[-1.0, -1.0]])
    res = solve_standard_lp(a, np.array([-1.0]), np.array([1.0, 2.0]), np.array([0.0, 1.0]))
    assert res.objective == pytest.approx(1.0)
    assert np.allclose(res.x, [1.0, 0.0])


def test_infeasible():
    # inconsistent rows: no start satisfies them
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SolverError, match="equality"):
        solve_standard_lp(a, np.array([1.0, 2.0]), np.ones(2), np.array([1.0, 0.0]))


def test_unbounded_raises():
    a = np.array([[1.0, -1.0]])
    with pytest.raises(SolverError):
        solve_standard_lp(a, np.array([0.0]), np.array([-1.0, 0.0]), np.zeros(2))


def test_redundant_rows():
    # duplicated constraint keeps an artificial basic at zero; still optimal
    a = np.array([[1.0, 2.0, 0.0], [1.0, 2.0, 0.0], [0.0, 1.0, 1.0]])
    b = np.array([2.0, 2.0, 1.0])
    res = solve_standard_lp(a, b, np.array([1.0, 1.0, 1.0]), np.array([2.0, 0.0, 1.0]))
    assert res.objective == pytest.approx(1.0)
    assert np.allclose(a @ res.x, b, atol=1e-9)


def test_result_type():
    res = solve_standard_lp(np.eye(2), np.ones(2), np.ones(2), np.ones(2))
    assert isinstance(res, LpResult)
    assert np.allclose(res.x, [1.0, 1.0])


def gram_schmidt_kept_rows(a):
    """Reference presolve: row i is kept when its residual off the span of
    the rows before it exceeds 1e-10 of max(||a_i||, 1)."""
    kept, q = [], []
    for i, row in enumerate(a):
        r = row.copy()
        for u in q:
            r -= (u @ row) * u
        norm = np.linalg.norm(r)
        if norm > 1e-10 * max(np.linalg.norm(row), 1.0):
            kept.append(i)
            q.append(r / norm)
    return kept


@pytest.mark.parametrize(
    "a",
    [
        realify(band_spec(19, 7).partial_matrix()),
        realify(band_spec(61, 15).partial_matrix()),
        np.array([[1.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 3.0], [1.0, 1.0]]),  # m > n
        np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [2.0, 4.0, 6.0]]),  # zero row
        incidence_matrix(erdos_renyi(30, 0.2, 3)).to_float_array(),  # rank m - 1
    ],
    ids=["band19", "band61", "tall", "zero-row", "incidence"],
)
def test_drop_dependent_rows_matches_gram_schmidt(a):
    b = a @ np.arange(1.0, a.shape[1] + 1)  # consistent right-hand side
    kept = gram_schmidt_kept_rows(a)
    ak, bk = _drop_dependent_rows(a, b)
    assert np.array_equal(ak, a[kept]) and np.array_equal(bk, b[kept])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 5), st.integers(2, 9))
def test_start_against_scipy(seed, m, n):
    # a random vertex: positive values on independent columns, zero elsewhere
    rng = np.random.default_rng(seed)
    a = rng.integers(-4, 5, size=(m, n)).astype(float)
    k = int(rng.integers(1, min(m, n) + 1))
    support = rng.choice(n, size=k, replace=False)
    assume(np.linalg.matrix_rank(a[:, support]) == k)
    start = np.zeros(n)
    start[support] = rng.random(k) + 0.1
    b = a @ start
    c = rng.integers(0, 6, size=n).astype(float)
    res = solve_standard_lp(a, b, c, start=start)
    ref = linprog(c, A_eq=a, b_eq=b)
    assert ref.status == 0
    assert res.objective == pytest.approx(ref.fun, abs=1e-7)
    assert np.allclose(a @ res.x, b, atol=1e-7)
    assert np.all(res.x >= -1e-9)


def test_start_with_dependent_rows():
    # realified band rows: 30 rows of rank 15; basis pursuit from x = (x+, x-)
    a = realify(band_spec(19, 7).partial_matrix())
    x = np.zeros(19)
    x[[2, 9, 13]] = [0.8, -0.5, 0.3]
    split = np.hstack([a, -a])
    start = np.concatenate([np.maximum(x, 0.0), np.maximum(-x, 0.0)])
    b = a @ x
    res = solve_standard_lp(split, b, np.ones(38), start=start)
    ref = linprog(np.ones(38), A_eq=split, b_eq=b)
    assert ref.status == 0
    assert res.objective == pytest.approx(ref.fun, abs=1e-7)
    assert np.allclose(split @ res.x, b, atol=1e-7)


def test_degenerate_start():
    # one positive entry on three rows: two basic variables start at zero
    a = np.array([[1.0, 1.0, 0.0, 1.0], [2.0, 0.0, 1.0, 1.0], [1.0, 0.0, 0.0, 1.0]])
    start = np.array([2.0, 0.0, 0.0, 0.0])
    b = a @ start
    c = np.array([3.0, 0.0, 0.0, 1.0])
    res = solve_standard_lp(a, b, c, start=start)
    ref = linprog(c, A_eq=a, b_eq=b)
    assert res.objective == pytest.approx(ref.fun) and res.objective < c @ start
    assert np.allclose(a @ res.x, b)


@pytest.mark.parametrize(
    "start, match",
    [
        ([1.0, 1.0, 1.0], "equality"),  # a @ start != b
        ([4.0, -1.0, 0.0], "negative"),  # a @ start == b with a negative entry
        ([1.0, 0.5, 0.0], "dependent"),  # feasible, on dependent columns 0 and 1
        ([0.0, 0.0], "missing"),  # wrong length
    ],
    ids=["off-rows", "negative", "dependent", "shape"],
)
def test_start_that_is_not_a_vertex_raises(start, match):
    a = np.array([[1.0, 2.0, 1.0], [2.0, 4.0, 0.0]])
    with pytest.raises(SolverError, match=match):
        solve_standard_lp(a, np.array([2.0, 4.0]), np.ones(3), start=np.array(start))

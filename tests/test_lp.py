import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from masckit.dft import band_spec
from masckit.errors import SolverError
from masckit.graphs import erdos_renyi, incidence_matrix
from masckit.lp import LpResult, _start_basis, solve_standard_lp
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
    # the duplicated constraint is dropped as dependent; still optimal
    a = np.array([[1.0, 2.0, 0.0], [1.0, 2.0, 0.0], [0.0, 1.0, 1.0]])
    b = np.array([2.0, 2.0, 1.0])
    res = solve_standard_lp(a, b, np.array([1.0, 1.0, 1.0]), np.array([2.0, 0.0, 1.0]))
    assert res.objective == pytest.approx(1.0)
    assert np.allclose(a @ res.x, b, atol=1e-9)


def test_result_type():
    res = solve_standard_lp(np.eye(2), np.ones(2), np.ones(2), np.ones(2))
    assert isinstance(res, LpResult)
    assert np.allclose(res.x, [1.0, 1.0])


@pytest.mark.parametrize(
    "a",
    [
        realify(band_spec(19, 7).partial_matrix()),
        realify(band_spec(61, 15).partial_matrix()),
        np.array([[1.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 3.0], [1.0, 1.0]]),  # m > n
        np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [2.0, 4.0, 6.0]]),  # zero row
        incidence_matrix(erdos_renyi(30, 0.2, 3)).to_float_array(),  # rank m - 1
        1e-12 * np.array([[1.0, 2.0], [3.0, 1.0]]),  # no absolute floor
    ],
    ids=["band19", "band61", "tall", "zero-row", "incidence", "tiny"],
)
def test_start_basis_rows_and_block(a):
    rank = np.linalg.matrix_rank(a)
    rows, cols = _start_basis(a)
    assert len(rows) == len(cols) == rank
    assert np.linalg.cond(a[rows][:, cols]) <= 1e3
    # a given support pivots first: it is basic, its first column on the row
    # of its largest entry, and the basis still spans the rows
    support = [int(j) for j in cols[::-2]]
    rows, cols = _start_basis(a, support)
    assert set(support) <= set(cols.tolist())
    assert rows[list(cols).index(support[0])] == np.argmax(np.abs(a[:, support[0]]))
    assert len(rows) == len(set(cols.tolist())) == rank
    assert np.linalg.matrix_rank(a[rows][:, cols]) == rank


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 4), st.integers(2, 8))
def test_start_basis_with_duplicated_rows(seed, m, n):
    rng = np.random.default_rng(seed)
    a = rng.integers(-3, 4, size=(m, n)).astype(float)
    a = np.vstack([a, a[rng.integers(0, m, size=2)]])
    support = [int(j) for j in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)]
    if np.linalg.matrix_rank(a[:, support]) < len(support):
        with pytest.raises(SolverError, match="dependent"):
            _start_basis(a, support)
    else:
        rows, cols = _start_basis(a, support)
        assert set(support) <= set(cols.tolist())
        assert len(rows) == np.linalg.matrix_rank(a)
        assert np.linalg.matrix_rank(a[rows][:, cols]) == len(rows)


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

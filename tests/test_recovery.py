import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import masckit.lp
import masckit.recovery
from masckit.dft import band_spec
from masckit.errors import InputError, SolverError
from masckit.graphs import DirectedSimpleGraph, erdos_renyi, incidence_matrix
from masckit.recovery import (
    RecoveryProblem,
    TrialConfig,
    basis_pursuit,
    mrsl_naive,
    random_sparse_signal,
    realify,
    recovery_rate,
    recovery_trial,
)

TRIANGLE = np.array([[-1.0, 0.0, 1.0], [1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])


def t_star_reference(a, x):
    """Dual certificate by HiGHS: inf when a_S lacks full column rank, else
    t* = min ||a_{S^c}^T w||_inf subject to a_S^T w = sign(x_S). x is the
    unique l1 minimizer iff t* < 1; t* = 1 is a tie."""
    on = x != 0
    if np.linalg.matrix_rank(a[:, on]) < np.count_nonzero(on):
        return math.inf
    if on.all():
        return 0.0
    m = a.shape[0]
    g = a[:, ~on].T
    ones = np.ones((g.shape[0], 1))
    res = linprog(
        np.append(np.zeros(m), 1.0),
        A_ub=np.vstack([np.hstack([g, -ones]), np.hstack([-g, -ones])]),
        b_ub=np.zeros(2 * g.shape[0]),
        A_eq=np.hstack([a[:, on].T, np.zeros((np.count_nonzero(on), 1))]),
        b_eq=np.sign(x[on]),
        bounds=[(None, None)] * m + [(0, None)],
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0, res.message
    return float(res.fun)


def complete_graph(k):
    """K_k with every edge oriented from low to high vertex."""
    edges = tuple((i, j) for i in range(k) for j in range(i + 1, k))
    return DirectedSimpleGraph(k, edges), edges


class TestBasisPursuit:
    def test_zero_observation(self):
        x = basis_pursuit(RecoveryProblem(TRIANGLE, np.zeros(3)))
        assert np.allclose(x, 0)

    def test_identity(self):
        y = np.array([0.3, -1.2, 0.0, 2.0])
        x = basis_pursuit(RecoveryProblem(np.eye(4), y))
        assert np.allclose(x, y, atol=1e-9)

    def test_triangle_one_sparse(self):
        x_true = np.array([0.8, 0.0, 0.0])
        x = basis_pursuit(RecoveryProblem(TRIANGLE, TRIANGLE @ x_true))
        assert np.linalg.norm(x - x_true) <= 1e-6

    def test_infeasible_raises(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SolverError, match="equality"):
            basis_pursuit(RecoveryProblem(a, np.array([1.0, 2.0])))

    def test_small_scale(self):
        # no tolerance is absolute: at scale 1e-12 the system is still solved,
        # not answered by x = 0
        a = 1e-12 * np.array([[1.0, 2.0], [3.0, 1.0]])
        y = 1e-12 * np.ones(2)
        x = basis_pursuit(RecoveryProblem(a, y))
        assert x == pytest.approx([0.2, 0.4], rel=1e-12)
        assert np.allclose(a @ x, y, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize(
        "a",
        [
            realify(band_spec(19, 7).partial_matrix()),
            realify(band_spec(61, 15).partial_matrix()),
            incidence_matrix(erdos_renyi(30, 0.2, 3)).to_float_array(),  # rank m - 1
            np.array(
                [
                    [1.0, -2.0, 0.5, 1.0, 2.0, 0.0],
                    [0.0, 1.0, 3.0, 0.0, 0.0, 1.0],
                    [2.0, 1.0, -1.0, 2.0, 4.0, -1.0],
                ]
            ),  # column 3 repeats column 0, column 4 scales it by 2
        ],
        ids=["band19", "band61", "incidence", "repeated-scaled"],
    )
    def test_against_linprog(self, a):
        # the start is a basic solution on independent columns, which these
        # matrices make hard to pick: dependent rows, rank m - 1, parallel
        # columns
        m, n = a.shape
        for t in range(5):
            x_true = random_sparse_signal(n, max(1, m // 4), (m, n, t))
            y = a @ x_true
            x = basis_pursuit(RecoveryProblem(a, y))
            ref = linprog(np.ones(2 * n), A_eq=np.hstack([a, -a]), b_eq=y)
            assert ref.status == 0
            assert np.abs(x).sum() == pytest.approx(ref.fun, abs=1e-9)
            assert np.allclose(a @ x, y, atol=1e-9)

    def test_optimality_certificate(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.standard_normal((3, 6))
            x_true = np.zeros(6)
            x_true[rng.choice(6, 2, replace=False)] = rng.standard_normal(2)
            y = a @ x_true
            x = basis_pursuit(RecoveryProblem(a, y))
            assert np.linalg.norm(a @ x - y) <= 1e-8 * max(np.linalg.norm(y), 1.0)
            assert np.abs(x).sum() <= np.abs(x_true).sum() + 1e-8


class TestRecoveryTrial:
    def test_zero_signal(self):
        assert recovery_trial(TRIANGLE, np.zeros(3))

    def test_triangle_all_one_sparse(self):
        for i in range(3):
            for sign in (1.0, -1.0):
                x = np.zeros(3)
                x[i] = sign * 0.7
                assert recovery_trial(TRIANGLE, x)

    def test_failure_exists_for_bad_matrix(self):
        # [1 -1 1] accepts no nonempty support; some sign pattern must fail
        phi = np.array([[1.0, -1.0, 1.0]])
        failed = False
        for i, sign in itertools.product(range(3), (1.0, -1.0)):
            x = np.zeros(3)
            x[i] = sign
            failed = failed or not recovery_trial(phi, x)
        assert failed

    @pytest.mark.parametrize("k", [5, 6])
    def test_disjoint_edge_pairs_are_ties(self, k):
        # x = 0.6 e + 0.8 f on disjoint edges e, f of K_k: a 4-cycle through
        # both edges gives an equally short solution, so none is recovered
        g, edges = complete_graph(k)
        a = incidence_matrix(g).to_float_array()
        pairs = [(e, f) for e, f in itertools.permutations(edges, 2) if not set(e) & set(f)]
        assert len(pairs) == {5: 30, 6: 90}[k]
        for e, f in pairs:
            x = np.zeros(len(edges))
            x[edges.index(e)], x[edges.index(f)] = 0.6, 0.8
            assert t_star_reference(a, x) == pytest.approx(1.0, abs=1e-9)
            assert not recovery_trial(a, x), (e, f)

    def test_fig4_tie(self):
        # fig4 --fast: graph seed 1010 (p = p_crit^(5/9)), s = 2, trial 9
        p_crit = math.log(100) / 100
        g = erdos_renyi(100, p_crit ** (5 / 9), 1010)
        a = incidence_matrix(g).to_float_array()
        x = random_sparse_signal(g.edge_count, 2, (1010 * 31 + 2, 9))
        assert t_star_reference(a, x) == pytest.approx(1.0, abs=1e-9)
        assert not recovery_trial(a, x)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_reference(self, seed):
        # small integer matrices and values make ties (t* = 1) common
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 5))
        n = int(rng.integers(m + 1, 9))
        if rng.random() < 0.75:
            a = rng.integers(-2, 3, size=(m, n)).astype(float)
        else:
            a = rng.standard_normal((m, n))
        x = np.zeros(n)
        s = int(rng.integers(1, n + 1))
        x[rng.choice(n, s, replace=False)] = rng.choice([-1.0, 1.0], s) * rng.integers(1, 4, s)
        t_star = t_star_reference(a, x)
        got = recovery_trial(a, x)
        if abs(t_star - 1.0) <= 1e-8:
            assert not got
        else:
            assert got == (t_star < 1.0)

    def test_one_sparse_on_graphs_needs_no_lp(self, monkeypatch, chain_graph):
        # on a simple graph w0 = sign(x_e) (e_head - e_tail) / 2 gives 1/2 on
        # every edge that meets e, so step 1 decides every 1-sparse trial
        def no_lp(*args, **kwargs):
            raise AssertionError("LP solved")

        monkeypatch.setattr(masckit.recovery, "solve_standard_lp", no_lp)
        graphs = [chain_graph, complete_graph(6)[0], erdos_renyi(30, 0.2, 4)]
        for g in graphs:
            a = incidence_matrix(g).to_float_array()
            for e, value in itertools.product(range(g.edge_count), (0.7, -1.3)):
                x = np.zeros(g.edge_count)
                x[e] = value
                assert recovery_trial(a, x)

    @pytest.mark.parametrize(
        "solve, width",
        [
            (recovery_trial, 2 * 19 + 1),
            (
                lambda a, x: np.allclose(basis_pursuit(RecoveryProblem(a, a @ x)), x, atol=1e-9),
                2 * 19,
            ),
        ],
        ids=["recovery_trial", "basis_pursuit"],
    )
    def test_lp_starts_at_a_vertex(self, monkeypatch, solve, width):
        # step 1 leaves this trial undecided, so recovery_trial solves the
        # uniqueness LP from x; basis pursuit starts from a basic solution.
        # Either way the simplex runs once, from the start it is given, on
        # the LP's own columns and nothing appended
        calls = []
        run_phase = masckit.lp._run_phase

        def spy(*args):
            calls.append(args)
            return run_phase(*args)

        monkeypatch.setattr(masckit.lp, "_run_phase", spy)
        a = realify(band_spec(19, 7).partial_matrix())
        assert solve(a, random_sparse_signal(19, 5, (0, 0)))
        assert len(calls) == 1
        assert calls[0][0].shape[1] == width

    def test_input_checks(self):
        with pytest.raises(InputError):
            recovery_trial(TRIANGLE, np.array([1.0, np.nan, 0.0]))
        with pytest.raises(InputError):
            recovery_trial(TRIANGLE, np.zeros(4))
        with pytest.raises(InputError):
            recovery_trial(np.array([[1.0, np.inf, 0.0]]), np.zeros(3))


class TestRandomSparseSignal:
    def test_shape_and_norm(self):
        x = random_sparse_signal(10, 3, (1, 2))
        assert np.count_nonzero(x) == 3
        assert np.linalg.norm(x) == pytest.approx(1.0)

    def test_deterministic(self):
        a = random_sparse_signal(8, 2, (7, 0))
        b = random_sparse_signal(8, 2, (7, 0))
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        assert not np.array_equal(
            random_sparse_signal(8, 2, (7, 0)), random_sparse_signal(8, 2, (7, 1))
        )


class TestRecoveryRate:
    def test_triangle_s1(self):
        cfg = TrialConfig(sparsity=1, trials=100, seed=0)
        assert recovery_rate(TRIANGLE, cfg) == 1.0

    def test_reproducible(self):
        a = np.vstack([TRIANGLE, [1.0, 1.0, 1.0]])
        cfg = TrialConfig(sparsity=2, trials=50, seed=3)
        assert recovery_rate(a, cfg) == recovery_rate(a, cfg)

    def test_sparsity_validation(self):
        with pytest.raises(InputError):
            recovery_rate(TRIANGLE, TrialConfig(sparsity=4, trials=5, seed=0))

    def test_realify_preserves_feasibility(self):
        rng = np.random.default_rng(2)
        c = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        a = realify(c)
        assert a.shape == (6, 5)
        x = rng.standard_normal(5)
        y = c @ x
        assert np.allclose(a @ x, np.concatenate([y.real, y.imag]))


class TestMrslNaive:
    def test_identity_returns_n(self):
        assert mrsl_naive(np.eye(4), k=5) == 4

    def test_triangle_upper_bound(self, triangle):
        a = incidence_matrix(triangle).to_float_array()
        est = mrsl_naive(a, k=50, seed=1)
        assert est >= 1  # upper bound on the true value 1

    def test_deterministic(self):
        a = np.array([[1.0, -1.0, 1.0, 0.5]])
        assert mrsl_naive(a, k=10, seed=4) == mrsl_naive(a, k=10, seed=4)

import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from conftest import circuits_reference, random_rational_matrix
from masckit import masc
from masckit.errors import BudgetExceededError, InputError
from masckit.linalg import RealMatrix, float_nullspace_basis, nullspace_basis
from masckit.masc import (
    SimplicialComplexSummary,
    SupportSet,
    enumerate_extreme_points,
    masc_contains,
    masc_enumerate,
    nullspace_constant,
    recoverable_fraction,
)


def gnup_holds(basis, family):
    """Reference: membership for a whole family; (ok, worst (S, witness))."""
    pts = enumerate_extreme_points(basis)
    ok = True
    worst_pair = (None, None)
    worst_margin = None
    for s in family:
        v = masc_contains(basis, s, pts=pts)
        if not v.in_masc:
            ok = False
        if worst_margin is None or v.margin < worst_margin:
            worst_margin = v.margin
            worst_pair = (s, v.witness)
    return ok, worst_pair


def summary_from_json(text: str) -> SimplicialComplexSummary:
    """Reference inverse of SimplicialComplexSummary.to_json."""
    d = json.loads(text)
    faces = tuple(SupportSet.of(d["n"], f) for f in d["maximal_faces"])
    return SimplicialComplexSummary(d["n"], faces)


def basis_of(rows):
    return nullspace_basis(RealMatrix.from_rows(rows))


def max_l1_mass_lp(phi: np.ndarray, s_idx, n: int) -> float:
    """Independent oracle: max ||eta_S||_1 over null(phi) inside the l1 ball.

    For each sign pattern on S, maximize sigma . eta_S by LP over
    {phi @ eta = 0, ||eta||_1 <= 1} in the split-variable formulation.
    """
    best = 0.0
    for signs in itertools.product((1.0, -1.0), repeat=len(s_idx)):
        c = np.zeros(2 * n)
        for sg, i in zip(signs, s_idx):
            c[i] = -sg
            c[n + i] = sg
        a_eq = np.hstack([phi, -phi])
        a_ub = np.ones((1, 2 * n))
        res = linprog(c, A_ub=a_ub, b_ub=[1.0], A_eq=a_eq, b_eq=np.zeros(phi.shape[0]))
        assert res.status == 0
        best = max(best, -res.fun)
    return best


class TestSupportSet:
    def test_ordering_enforced(self):
        with pytest.raises(InputError):
            SupportSet(4, (2, 1))

    def test_of_normalizes(self):
        s = SupportSet.of(5, [3, 1, 3])
        assert s.indices == (1, 3)


class TestEnumerateExtremePoints:
    def test_sum_row(self):
        pts = enumerate_extreme_points(basis_of([[1, 1, 1]]))
        supports = {p.support.indices for p in pts}
        assert supports == {(0, 1), (0, 2), (1, 2)}
        for p in pts:
            assert sorted(abs(x) for x in p.vector if x) == [
                Fraction(1, 2),
                Fraction(1, 2),
            ]

    def test_antipode_count(self):
        pts = enumerate_extreme_points(basis_of([[1, 1, 1]]), include_antipodes=True)
        assert len(pts) == 6

    def test_trivial(self):
        assert enumerate_extreme_points(basis_of([[1, 0], [0, 1]])) == []

    def test_triangle(self):
        phi = [[-1, 0, 1], [1, -1, 0], [0, 1, -1]]
        pts = enumerate_extreme_points(basis_of(phi))
        assert len(pts) == 1
        assert sorted(abs(x) for x in pts[0].vector) == [Fraction(1, 3)] * 3

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_invariants(self, seed):
        rng = random.Random(seed)
        phi = random_rational_matrix(rng, rng.randint(1, 3), rng.randint(2, 6))
        b = nullspace_basis(phi)
        pts = enumerate_extreme_points(b)
        for p in pts:
            # exact membership in the nullspace and unit l1 norm
            for i in range(phi.rows):
                assert sum(phi[i, j] * p.vector[j] for j in range(phi.cols)) == 0
            assert sum(abs(x) for x in p.vector) == 1
            assert len(p.support) <= b.codimension + 1
            assert p.support.indices == tuple(
                i for i, x in enumerate(p.vector) if x != 0
            )
        # minimality: no support strictly contains another
        sups = [frozenset(p.support.indices) for p in pts]
        assert not any(a < b_ for a in sups for b_ in sups)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_complete_against_circuit_reference(self, seed):
        # every circuit, with the same normalized vector, in the same order;
        # the matrix kinds cover dependent rows, zero columns, codimension 0
        # and full column rank
        rng = random.Random(seed)
        n = rng.randint(2, 7)
        kind = seed % 5
        rows = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(n if kind == 4 else rng.randint(1, min(n, 4)))
        ]
        if kind == 1:
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            rows.append([a * x + b * y for x, y in zip(rows[0], rows[-1])])
        elif kind == 2:
            for j in rng.sample(range(n), rng.randint(1, n - 1)):
                for row in rows:
                    row[j] = 0
        elif kind == 3:
            rows = [[0] * n]
        phi = RealMatrix.from_rows(rows)
        pts = enumerate_extreme_points(nullspace_basis(phi))
        assert [(p.support.indices, p.vector) for p in pts] == circuits_reference(phi)

    def test_budget(self, monkeypatch):
        # C(30, 2) = 435 candidate sets of size 2 against a cap of 10
        monkeypatch.setattr(masc, "DEFAULT_SCAN_CAP", 10)
        with pytest.raises(BudgetExceededError):
            enumerate_extreme_points(basis_of([[1] * 30]))

    def test_zero_row_unit_vectors(self):
        # codimension 0: the annihilator is empty and the scan uses a zero row
        pts = enumerate_extreme_points(basis_of([[0, 0, 0]]))
        assert [p.vector for p in pts] == [
            (Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(1)),
        ]
        assert [p.sign_vector for p in pts] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_float_scan_matches_exact(self):
        for seed in range(40):
            rng = random.Random(seed)
            phi = random_rational_matrix(rng, rng.randint(1, 3), rng.randint(2, 6))
            exact = enumerate_extreme_points(nullspace_basis(phi))
            approx = enumerate_extreme_points(float_nullspace_basis(phi.to_float_array()))
            assert [p.support for p in approx] == [p.support for p in exact]
            assert [p.sign_vector for p in approx] == [p.sign_vector for p in exact]
            for a, e in zip(approx, exact):
                assert not a.exact and e.exact
                assert np.allclose(a.as_float(), e.as_float(), rtol=0, atol=1e-9)


class TestMascContains:
    def test_example_all_singletons_rejected(self):
        b = basis_of([[1, -1, 1]])
        for i in range(3):
            v = masc_contains(b, SupportSet.of(3, [i]))
            assert v.decided and not v.in_masc
            assert v.witness is not None
            assert v.witness.l1_mass_on([i]) >= Fraction(1, 2)

    def test_empty_support(self):
        v = masc_contains(basis_of([[1, -1, 1]]), SupportSet.of(3, []))
        assert v.in_masc and v.margin == Fraction(1, 2)

    def test_triangle_margin(self):
        phi = [[-1, 0, 1], [1, -1, 0], [0, 1, -1]]
        v = masc_contains(basis_of(phi), SupportSet.of(3, [0]))
        assert v.in_masc and v.margin == Fraction(1, 6)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_monotone(self, seed):
        rng = random.Random(seed)
        phi = random_rational_matrix(rng, rng.randint(1, 2), rng.randint(3, 6))
        b = nullspace_basis(phi)
        pts = enumerate_extreme_points(b)
        n = phi.cols
        for sup in itertools.combinations(range(n), rng.randint(1, n - 1)):
            if not masc_contains(b, SupportSet.of(n, sup), pts=pts).in_masc:
                bigger = SupportSet.of(n, set(sup) | {rng.randrange(n)})
                assert not masc_contains(b, bigger, pts=pts).in_masc


class TestNullspaceConstant:
    def test_example(self):
        assert nullspace_constant(1, basis_of([[1, -1, 1]])) == Fraction(1, 2)

    def test_trivial(self):
        assert nullspace_constant(1, basis_of([[1, 0], [0, 1]])) == 0

    def test_monotone_and_saturates(self):
        b = basis_of([[1, 2, -1, 3]])
        vals = [nullspace_constant(s, b) for s in range(1, 5)]
        assert vals == sorted(vals)
        assert vals[-1] == 1

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6))
    def test_gnup_iff_below_half(self, seed):
        rng = random.Random(seed)
        phi = random_rational_matrix(rng, rng.randint(1, 2), rng.randint(3, 5))
        b = nullspace_basis(phi)
        n = phi.cols
        for s in range(1, n):
            family = [SupportSet.of(n, c) for c in itertools.combinations(range(n), s)]
            ok, _ = gnup_holds(b, family)
            assert ok == (nullspace_constant(s, b) < Fraction(1, 2))


class TestMascEnumerate:
    def test_empty_only(self):
        summ = masc_enumerate(basis_of([[1, -1, 1]]))
        assert summ.contains_empty_only
        assert [f.indices for f in summ.maximal_faces] == [()]

    def test_trivial_full_powerset(self):
        summ = masc_enumerate(basis_of([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
        assert [f.indices for f in summ.maximal_faces] == [(0, 1, 2)]

    def test_dim_cap(self):
        with pytest.raises(BudgetExceededError):
            masc_enumerate(basis_of([[1] * 30]))

    def test_json_roundtrip(self):
        summ = masc_enumerate(basis_of([[1, 1, 1, 1]]))
        again = summary_from_json(summ.to_json())
        assert again == summ

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10**6))
    def test_against_lp_oracle(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 6)
        phi = random_rational_matrix(rng, rng.randint(1, 3), n)
        b = nullspace_basis(phi)
        if b.dim == 0:
            return
        summ = masc_enumerate(b)
        arr = phi.to_float_array()
        for r in range(1, n + 1):
            for sup in itertools.combinations(range(n), r):
                mass = max_l1_mass_lp(arr, sup, n)
                if abs(mass - 0.5) < 1e-9:
                    continue  # numerical boundary; oracle cannot adjudicate
                assert summ.member(SupportSet.of(n, sup)) == (mass < 0.5)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10**6))
    def test_against_grid_oracle(self, seed):
        # dense deterministic grid of nullspace directions gives a necessary
        # condition: if some direction violates the half-mass bound, the
        # support must have been rejected
        rng = random.Random(seed)
        n = rng.randint(3, 6)
        phi = random_rational_matrix(rng, rng.randint(1, 3), n)
        b = nullspace_basis(phi)
        if b.dim == 0:
            return
        summ = masc_enumerate(b)
        arr = np.array(b.basis_vectors, dtype=float).T
        grid = np.array(
            list(itertools.product(np.linspace(-1, 1, 9), repeat=b.dim))
        )
        grid = grid[np.any(grid != 0, axis=1)]
        etas = grid @ arr.T
        etas /= np.abs(etas).sum(axis=1, keepdims=True)
        for r in range(1, n + 1):
            for sup in itertools.combinations(range(n), r):
                worst = np.abs(etas[:, sup]).sum(axis=1).max()
                if worst > 0.5 + 1e-9:
                    assert not summ.member(SupportSet.of(n, sup))


class TestRecoverableFraction:
    def test_exact_values(self):
        b = basis_of([[1, -1, 1]])
        assert recoverable_fraction(b, 1) == 0.0
        b2 = basis_of([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert recoverable_fraction(b2, 2) == 1.0

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dft_matrix_reference, dft_root_powers, random_rational_matrix
from masckit.errors import InputError
from masckit.linalg import (
    RealMatrix,
    dft_matrix,
    float_nullspace_basis,
    nullspace_basis,
    parse_matrix_text,
)

# Reference code for complex minors, kept next to the tests below.

# Complex determinant magnitudes below this are reported as numerically zero.
DET_ZERO_TOL = 1e-10


def complex_minor_det(m: np.ndarray, row_idx, col_idx) -> complex:
    """Determinant of the square submatrix m[row_idx, col_idx] (LU via numpy)."""
    if len(row_idx) != len(col_idx):
        raise InputError("row and column selections differ in size")
    k = len(row_idx)
    if k == 0:
        return 1.0 + 0.0j
    if k > min(m.shape):
        raise InputError("selection larger than matrix")
    a = np.asarray(m, dtype=complex)[np.ix_(list(row_idx), list(col_idx))]
    return complex(np.linalg.det(a))


def minor_is_numerically_zero(det: complex, entry_scale: float, k: int) -> bool:
    """Flag a determinant whose magnitude is below the noise floor."""
    return abs(det) <= DET_ZERO_TOL * max(entry_scale, 1.0) ** k


class TestNullspaceBasis:
    def test_rank_one_row(self):
        b = nullspace_basis(RealMatrix.from_rows([[1, 1, 1]]))
        assert b.dim == 2 and b.codimension == 1

    def test_triangle_incidence_span(self):
        phi = RealMatrix.from_rows([[-1, 0, 1], [1, -1, 0], [0, 1, -1]])
        b = nullspace_basis(phi)
        assert b.dim == 1
        v = b.basis_vectors[0]
        assert len({abs(x) for x in v}) == 1  # scalar multiple of signs

    def test_int_entries_stay_exact(self):
        rows = [[1, 1, 0], [0, 1, 1]]
        b = nullspace_basis(RealMatrix(2, 3, (1, 1, 0, 0, 1, 1)))
        assert b == nullspace_basis(RealMatrix.from_rows(rows))
        assert all(type(x) is Fraction for v in b.basis_vectors for x in v)

    def test_identity_trivial(self):
        b = nullspace_basis(RealMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
        assert b.dim == 0 and b.basis_vectors == ()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 4), st.integers(1, 5))
    def test_annihilation_and_rank_nullity(self, seed, rows, cols):
        rng = random.Random(seed)
        phi = random_rational_matrix(rng, rows, cols)
        b = nullspace_basis(phi)
        for v in b.basis_vectors:
            for i in range(rows):
                assert sum(phi[i, j] * v[j] for j in range(cols)) == 0
        rank = np.linalg.matrix_rank(phi.to_float_array())
        assert b.dim + rank == cols

    def test_float_nullspace_orthonormal(self):
        a = np.array([[1.0, 1.0, 1.0]])
        b = float_nullspace_basis(a)
        assert b.dim == 2 and not b.exact
        arr = np.array(b.basis_vectors).T
        assert np.allclose(a @ arr, 0, atol=1e-12)
        assert np.allclose(arr.T @ arr, np.eye(2), atol=1e-12)


class TestComplexMinorDet:
    def test_identity_minor(self):
        m = np.eye(4, dtype=complex)
        assert complex_minor_det(m, [0, 2], [0, 2]) == pytest.approx(1.0)

    def test_dft2(self):
        m = dft_matrix(2)
        assert complex_minor_det(m, [0, 1], [0, 1]) == pytest.approx(-1.0)

    def test_prime_minors_nonzero(self):
        m = dft_matrix(7)
        rng = random.Random(0)
        for _ in range(30):
            k = rng.randint(1, 6)
            ri = sorted(rng.sample(range(7), k))
            ci = sorted(rng.sample(range(7), k))
            det = complex_minor_det(m, ri, ci)
            assert not minor_is_numerically_zero(det, 1.0, k)

    def test_equal_rows_zero(self):
        a = np.array([[1 + 1j, 2], [1 + 1j, 2], [0, 1]])
        det = complex_minor_det(a, [0, 1], [0, 1])
        assert abs(det) <= 1e-10 * 2.0**2

    def test_size_mismatch(self):
        with pytest.raises(InputError):
            complex_minor_det(dft_matrix(3), [0], [0, 1])


class TestDftMatrix:
    def test_n1(self):
        arr = dft_matrix(1)
        assert arr.dtype == complex and arr.shape == (1, 1) and arr[0, 0] == 1

    def test_n2(self):
        arr = dft_matrix(2)
        s = 1 / math.sqrt(2)
        assert np.allclose(arr, s * np.array([[1, 1], [1, -1]]), atol=1e-15)

    @pytest.mark.parametrize("n", [3, 8, 17, 64])
    def test_unitary(self, n):
        arr = dft_matrix(n)
        assert np.max(np.abs(arr @ arr.conj().T - np.eye(n))) < 1e-12

    @pytest.mark.parametrize("n", [2, 5, 31])
    def test_row_norms(self, n):
        arr = dft_matrix(n)
        assert np.allclose(np.linalg.norm(arr, axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 19, 61, 1009])
    def test_bitwise_matches_per_entry_reference(self, n):
        arr = dft_matrix(n)
        assert arr.shape == (n, n)
        assert arr.tobytes() == dft_matrix_reference(n).tobytes()

    def test_root_powers(self):
        r = dft_root_powers(4)
        assert np.allclose(r, [1, -1j, -1, 1j], atol=1e-15)


class TestMatrixText:
    def test_roundtrip_rational(self):
        m = RealMatrix.from_rows([[Fraction(1, 3), Fraction(-2)], [0, 5]])
        again = parse_matrix_text("2 2\n1/3 -2\n0 5\n")
        assert again == m

    def test_complex_token_rejected(self):
        with pytest.raises(InputError, match="complex"):
            parse_matrix_text("1 2\n1 -3-0.5i\n")

    def test_bad_entry_count(self):
        with pytest.raises(InputError):
            parse_matrix_text("2 2\n1 2 3\n")

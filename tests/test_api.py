import numpy as np

import masckit
import masckit.dft
import masckit.recovery


def test_traced_benchmark_wrap_targets():
    # `perfbench/worker.py --trace 1` wraps these module attributes by name;
    # dropping either one breaks the traced run with an AttributeError
    assert callable(masckit.dft.dft_matrix)
    assert callable(masckit.recovery.solve_standard_lp)


def test_benchmark_calls_on_changed_types():
    # the calls perfbench's workloads make on RealMatrix, NullspaceBasis and
    # the scan, through the package namespace
    rows = [[1, -2, 3, 1], [2, 1, -1, 4]]
    m = masckit.RealMatrix.from_rows(rows)
    basis = masckit.nullspace_basis(m)
    assert len(basis.basis_vectors) == 2
    assert all(len(v) == 4 for v in basis.basis_vectors)
    pts = masckit.enumerate_extreme_points(basis)
    assert pts and all(len(p.vector) == 4 for p in pts)
    g = masckit.DirectedSimpleGraph(3, ((0, 1), (1, 2), (2, 0)))
    a = masckit.incidence_matrix(g).to_float_array()
    assert a.dtype == float and a.shape == (3, 3)
    assert np.array_equal(a, [[-1, 0, 1], [1, -1, 0], [0, 1, -1]])

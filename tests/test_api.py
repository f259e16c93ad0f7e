import masckit.dft
import masckit.recovery


def test_traced_benchmark_wrap_targets():
    # `perfbench/worker.py --trace 1` wraps these module attributes by name;
    # dropping either one breaks the traced run with an AttributeError
    assert callable(masckit.dft.dft_matrix)
    assert callable(masckit.recovery.solve_standard_lp)

import dataclasses
import inspect
import types

import numpy as np

import masckit
import masckit.dft
import masckit.experiments
import masckit.graphs
import masckit.linalg
import masckit.lp
import masckit.masc
import masckit.recovery

# the public surface: what the CLI, the experiments, the benchmark and the
# acceptance criteria call, and nothing that only tests reach
MODULE_ALL = {
    masckit.dft: [
        "PartialDFTSpec", "symmetrize_omega", "band_spec", "masc_contains_dft",
        "coherence_lower_bound", "s_max_exact", "s_max_sampled",
    ],
    masckit.experiments: ["ExperimentConfig", "run_experiment"],
    masckit.graphs: [
        "DirectedSimpleGraph", "incidence_matrix", "enumerate_simple_cycles",
        "girth", "masc_contains_graph", "nsc_graph", "erdos_renyi",
        "parse_graph_text", "format_graph_text",
    ],
    masckit.linalg: [
        "RealMatrix", "NullspaceBasis", "nullspace_basis", "float_nullspace_basis",
        "dft_matrix", "parse_matrix_text",
    ],
    masckit.lp: ["LpResult", "solve_standard_lp"],
    masckit.masc: [
        "SupportSet", "ExtremePoint", "SimplicialComplexSummary", "MembershipVerdict",
        "enumerate_extreme_points", "masc_contains", "nullspace_constant",
        "masc_enumerate", "recoverable_fraction",
    ],
    masckit.recovery: [
        "RecoveryProblem", "TrialConfig", "basis_pursuit", "recovery_trial",
        "recovery_rate", "mrsl_naive", "random_sparse_signal", "realify",
    ],
}

PACKAGE_NAMES = {
    # dft
    "PartialDFTSpec", "band_spec", "coherence_lower_bound", "masc_contains_dft",
    "s_max_exact", "s_max_sampled", "symmetrize_omega",
    # errors
    "BudgetExceededError", "InputError", "MasckitError", "NumericalBoundaryError",
    "SolverError",
    # experiments
    "ExperimentConfig", "run_experiment",
    # graphs
    "DirectedSimpleGraph", "enumerate_simple_cycles", "erdos_renyi", "girth",
    "incidence_matrix", "masc_contains_graph", "nsc_graph",
    # linalg
    "NullspaceBasis", "RealMatrix", "dft_matrix", "float_nullspace_basis",
    "nullspace_basis",
    # masc
    "ExtremePoint", "MembershipVerdict", "SimplicialComplexSummary", "SupportSet",
    "enumerate_extreme_points", "masc_contains", "masc_enumerate",
    "nullspace_constant", "recoverable_fraction",
    # recovery
    "RecoveryProblem", "TrialConfig", "basis_pursuit", "mrsl_naive", "realify",
    "recovery_rate", "recovery_trial",
}


def test_module_all_pinned():
    for module, names in MODULE_ALL.items():
        assert module.__all__ == names, module.__name__


def test_package_reexports_pinned():
    exported = {
        name for name, value in vars(masckit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PACKAGE_NAMES


def test_lp_signature_pinned():
    # every LP starts at a vertex the caller holds: `start` has no default,
    # and a result is always optimal, so it carries no status
    params = inspect.signature(masckit.lp.solve_standard_lp).parameters.values()
    assert [(p.name, p.default) for p in params] == [
        (name, inspect.Parameter.empty) for name in ("a", "b", "c", "start")
    ]
    fields = dataclasses.fields(masckit.lp.LpResult)
    assert [f.name for f in fields] == ["x", "objective"]


def test_graph_api_pinned():
    # one membership mode, bounded by the cycle cap; the cycles are the
    # extreme points
    params = inspect.signature(masckit.masc_contains_graph).parameters
    assert list(params) == ["g", "s", "cap"]
    g = masckit.DirectedSimpleGraph(4, ((0, 1), (1, 2), (2, 0), (2, 3), (3, 0)))
    points = masckit.enumerate_simple_cycles(g)
    assert len(points) == 3
    assert all(isinstance(p, masckit.ExtremePoint) and p.exact for p in points)


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

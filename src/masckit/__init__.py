"""Certify which sparse support sets l1-minimization always recovers.

Generic machinery works on any real matrix through exact rational nullspace
computations; specialized fast paths cover graph incidence matrices (simple
cycles and girth) and prime-dimension partial DFT matrices (Gamma-weight
tests).
"""

from .dft import (
    PartialDFTSpec,
    band_spec,
    coherence_lower_bound,
    masc_contains_dft,
    s_max_exact,
    s_max_sampled,
    symmetrize_omega,
)
from .errors import (
    BudgetExceededError,
    InputError,
    MasckitError,
    NumericalBoundaryError,
    SolverError,
)
from .experiments import ExperimentConfig, run_experiment
from .graphs import (
    DirectedSimpleGraph,
    enumerate_simple_cycles,
    erdos_renyi,
    girth,
    incidence_matrix,
    masc_contains_graph,
    nsc_graph,
)
from .linalg import (
    NullspaceBasis,
    RealMatrix,
    dft_matrix,
    float_nullspace_basis,
    nullspace_basis,
)
from .masc import (
    ExtremePoint,
    MembershipVerdict,
    SimplicialComplexSummary,
    SupportSet,
    enumerate_extreme_points,
    masc_contains,
    masc_enumerate,
    nullspace_constant,
    recoverable_fraction,
)
from .recovery import (
    RecoveryProblem,
    TrialConfig,
    basis_pursuit,
    mrsl_naive,
    realify,
    recovery_rate,
    recovery_trial,
)

__version__ = "0.1.0"

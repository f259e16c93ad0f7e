"""Exception types shared across the package."""


class MasckitError(Exception):
    """Base class for all package errors."""


class InputError(MasckitError, ValueError):
    """Malformed or inconsistent input."""


class BudgetExceededError(MasckitError):
    """An exact enumeration would exceed the configured combinatorial cap."""


class NumericalBoundaryError(MasckitError):
    """A float restricted nullspace is not a line: no circuit, no verdict.
    (Masses inside the tie band give boundary verdicts, not this error.)"""


class SolverError(MasckitError):
    """LP solver failure (a start that is not a feasible vertex, iteration
    limit)."""

"""Linear algebra substrate: exact rational matrices, nullspaces and DFT
matrix construction.

Real matrices hold rational entries so that all downstream certificates are
exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import InputError

__all__ = [
    "RealMatrix",
    "NullspaceBasis",
    "nullspace_basis",
    "float_nullspace_basis",
    "dft_matrix",
    "parse_matrix_text",
]

# Relative singular-value cutoff for float rank decisions: below it a
# direction counts as null, and a float circuit entry below it (relative to
# the largest entry) counts as zero.
RANK_RTOL = 1e-9


@dataclass(frozen=True)
class RealMatrix:
    """Dense real matrix with exact rationals: int or Fraction entries."""

    rows: int
    cols: int
    entries: tuple  # row-major ints or Fractions

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise InputError("matrix must have at least one row and column")
        if len(self.entries) != self.rows * self.cols:
            raise InputError("entry count does not match rows x cols")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RealMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        if any(len(r) != ncols for r in rows):
            raise InputError("ragged rows")
        return cls(nrows, ncols, tuple(Fraction(x) for r in rows for x in r))

    def __getitem__(self, idx):
        i, j = idx
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_float_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=float).reshape(self.rows, self.cols)


@dataclass(frozen=True)
class NullspaceBasis:
    """Basis of a matrix nullspace with codimension metadata.

    Exact bases hold tuples of Fractions; float bases (used for realified DFT
    matrices) hold tuples of floats obtained from an SVD with rank tolerance.
    """

    ambient_dim: int
    basis_vectors: tuple  # tuple of length-n tuples
    exact: bool = True

    @property
    def dim(self) -> int:
        return len(self.basis_vectors)

    @property
    def codimension(self) -> int:
        return self.ambient_dim - self.dim


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """In-place reduced row echelon form; returns (matrix, pivot columns)."""
    nrows = len(rows)
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / Fraction(rows[r][c])
        # rows r and below are zero left of column c: touch columns c onward
        rows[r][c:] = pivot_row = [x * inv for x in rows[r][c:]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i][c:] = [a - f * b for a, b in zip(rows[i][c:], pivot_row)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def nullspace_basis(phi: RealMatrix) -> NullspaceBasis:
    """Exact rational basis of {x : phi @ x = 0}, derived from the RREF."""
    n = phi.cols
    rows = [list(phi.row(i)) for i in range(phi.rows)]
    rref, pivots = _rref(rows)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] -= rref[r][fc]  # a Fraction even where rref kept an int 0
        basis.append(tuple(v))
    return NullspaceBasis(n, tuple(basis), exact=True)


def float_nullspace_basis(a: np.ndarray) -> NullspaceBasis:
    """Orthonormal float nullspace basis via SVD with relative rank tolerance.

    Used where the source matrix has irrational entries (realified DFT rows)
    and exact rational elimination is unavailable.
    """
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        raise InputError("empty matrix")
    _, s, vt = np.linalg.svd(a, full_matrices=True)
    smax = s[0] if len(s) else 0.0
    rank = int(np.sum(s > RANK_RTOL * max(smax, 1.0)))
    return NullspaceBasis(
        a.shape[1], tuple(tuple(float(x) for x in v) for v in vt[rank:]), exact=False
    )


def dft_matrix(n: int) -> np.ndarray:
    """Unitary n x n complex DFT matrix with entries xi**(k*l) / sqrt(n).

    Each of the n distinct powers xi**r, xi = exp(-2*pi*i/n), is evaluated
    from scratch with cos/sin so phase error stays bounded for large n; entry
    (k, l) reads the power r = k*l mod n.
    """
    if n < 1:
        raise InputError("n must be positive")
    scale = 1.0 / math.sqrt(n)
    roots = []
    for r in range(n):
        ang = -2.0 * math.pi * r / n
        roots.append(scale * complex(math.cos(ang), math.sin(ang)))
    k = np.arange(n)
    return np.array(roots)[np.outer(k, k) % n]


# ---------------------------------------------------------------------------
# Matrix text format: first line "rows cols", then row-major real entries,
# rationals written p/q.


def _parse_entry(tok: str) -> Fraction:
    if tok.endswith(("i", "j")):
        raise InputError(f"complex entry {tok!r}: give a real matrix")
    return Fraction(tok)


def parse_matrix_text(text: str) -> RealMatrix:
    """Parse the CLI matrix format into a RealMatrix."""
    toks = text.split()
    if len(toks) < 2:
        raise InputError("matrix text too short")
    try:
        rows, cols = int(toks[0]), int(toks[1])
        vals = [_parse_entry(t) for t in toks[2:]]
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed matrix text: {exc}") from exc
    if len(vals) != rows * cols:
        raise InputError("matrix text has wrong number of entries")
    return RealMatrix(rows, cols, tuple(vals))

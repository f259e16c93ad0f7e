"""Matrix-agnostic certification machinery.

Extreme points of nullspace-and-l1-ball intersections read off the circuits
of (rank+1)-column sets, membership checks for the family of
always-recoverable supports, the nullspace constant, full enumeration of the
family, and the induced recovery-probability lower bound.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import BudgetExceededError, InputError
from .linalg import (
    RANK_RTOL,
    NullspaceBasis,
    RealMatrix,
    float_nullspace_basis,
    nullspace_basis,
)

__all__ = [
    "SupportSet",
    "ExtremePoint",
    "SimplicialComplexSummary",
    "MembershipVerdict",
    "enumerate_extreme_points",
    "masc_contains",
    "nullspace_constant",
    "masc_enumerate",
    "recoverable_fraction",
]

DEFAULT_SCAN_CAP = 10**7
DEFAULT_ENUM_DIM_CAP = 24
FLOAT_TIE_BAND = 1e-9

HALF = Fraction(1, 2)


@dataclass(frozen=True, order=True)
class SupportSet:
    """A subset of coordinates {0, ..., n-1}, the unit of certification."""

    ambient_dim: int
    indices: tuple[int, ...]

    def __post_init__(self):
        if list(self.indices) != sorted(set(self.indices)):
            raise InputError("support indices must be strictly increasing")
        if self.indices and (self.indices[0] < 0 or self.indices[-1] >= self.ambient_dim):
            raise InputError("support index out of range")

    @classmethod
    def of(cls, ambient_dim, indices) -> "SupportSet":
        return cls(ambient_dim, tuple(sorted(set(int(i) for i in indices))))

    def __len__(self):
        return len(self.indices)

    def __contains__(self, i):
        return i in set(self.indices)

    def __iter__(self):
        return iter(self.indices)


@dataclass(frozen=True)
class ExtremePoint:
    """An l1-normalized minimal-support nullspace vector: exact when its
    entries are Fractions, float otherwise."""

    vector: tuple
    support: SupportSet

    @property
    def sign_vector(self) -> tuple[int, ...]:
        return tuple((x > 0) - (x < 0) for x in self.vector)

    @property
    def exact(self) -> bool:
        return isinstance(self.vector[0], Fraction)

    def l1_mass_on(self, indices) -> Fraction | float:
        # a float point's mass stays a float on an empty set
        return sum((abs(self.vector[i]) for i in indices), 0 if self.exact else 0.0)

    def as_float(self) -> np.ndarray:
        return np.array([float(x) for x in self.vector])


@dataclass(frozen=True)
class SimplicialComplexSummary:
    """A downward-closed support family stored by its maximal faces."""

    ambient_dim: int
    maximal_faces: tuple[SupportSet, ...]

    def __post_init__(self):
        sets = [frozenset(f.indices) for f in self.maximal_faces]
        for i, a in enumerate(sets):
            for j, b in enumerate(sets):
                if i != j and a <= b:
                    raise InputError("maximal faces must be pairwise incomparable")

    @property
    def contains_empty_only(self) -> bool:
        return all(len(f) == 0 for f in self.maximal_faces)

    def member(self, s: SupportSet) -> bool:
        need = set(s.indices)
        return not need or any(need <= set(f.indices) for f in self.maximal_faces)

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.ambient_dim,
                "maximal_faces": [list(f.indices) for f in self.maximal_faces],
            }
        )


@dataclass(frozen=True)
class MembershipVerdict:
    """Outcome of a single support-set membership check."""

    decided: bool
    in_masc: bool
    margin: Fraction | float
    witness: ExtremePoint | None = None

    @classmethod
    def from_mass(cls, mass, witness=None, sampled: bool = False) -> "MembershipVerdict":
        """The one verdict rule: S is in the family iff the largest l1 mass
        an extreme point keeps on S is below one half.

        An exact mass (int or Fraction) decides, with margin 1/2 - mass. A
        float mass within FLOAT_TIE_BAND of 1/2 is a boundary: undecided and
        not in. A sampled sweep that finds S inside leaves it undecided.
        `witness` builds the extreme point of that mass; it is called only
        for "out" and boundary verdicts, the ones that carry it.
        """
        if isinstance(mass, float):
            margin = 0.5 - mass
            boundary = abs(margin) <= FLOAT_TIE_BAND
        else:
            margin, boundary = HALF - mass, False
        inside = margin > 0 and not boundary
        decided = not boundary and not (sampled and inside)
        return cls(decided, inside, margin, None if inside else witness())


def _circuit(rows, gamma) -> ExtremePoint | None:
    """The extreme point on the one circuit inside column set gamma of rows
    (Fraction tuples, or a float array), or None when the nullspace of those
    columns is not a line. Its support is where the null vector is nonzero,
    for floats above RANK_RTOL of its largest entry."""
    n = len(rows[0])
    if isinstance(rows, np.ndarray):
        space = float_nullspace_basis(rows[:, list(gamma)])
    else:
        cols = tuple(row[j] for row in rows for j in gamma)
        space = nullspace_basis(RealMatrix(len(rows), len(gamma), cols))
    if space.dim != 1:
        return None
    v = space.basis_vectors[0]
    tol = 0 if space.exact else RANK_RTOL * max(map(abs, v))
    kept = [(j, x) for j, x in zip(gamma, v) if abs(x) > tol]
    scale = sum(abs(x) for _, x in kept) * (1 if kept[0][1] > 0 else -1)
    z = [Fraction(0) if space.exact else 0.0] * n
    for j, x in kept:
        z[j] = x / scale
    return ExtremePoint(tuple(z), SupportSet.of(n, [j for j, _ in kept]))


def enumerate_extreme_points(
    basis: NullspaceBasis, include_antipodes: bool = False
) -> list[ExtremePoint]:
    """All extreme points of nullspace-intersect-l1-ball, one per antipodal
    pair unless include_antipodes is set, by support size, then indices.

    The span is the nullspace of the rows that annihilate it, of rank r, the
    codimension. Each circuit of those rows is the one circuit inside some
    r+1 of their columns, so the scan reads a circuit off each of the
    C(n, r+1) column sets and keeps the first point per support.
    """
    n = basis.ambient_dim
    if basis.dim == 0:
        return []
    size = basis.codimension + 1
    total = math.comb(n, size)
    if total > DEFAULT_SCAN_CAP:
        raise BudgetExceededError(f"scan needs {total} column sets, cap is {DEFAULT_SCAN_CAP}")
    # one zero row when the span is all of R^n (codimension 0)
    if basis.exact:
        ann = nullspace_basis(RealMatrix.from_rows(basis.basis_vectors)).basis_vectors
        ann = ann or ((Fraction(0),) * n,)
    else:
        ann = float_nullspace_basis(np.array(basis.basis_vectors)).basis_vectors
        ann = np.array(ann or ((0.0,) * n,))
    by_support: dict[SupportSet, ExtremePoint] = {}
    for gamma in combinations(range(n), size):
        p = _circuit(ann, gamma)
        if p is not None:
            by_support.setdefault(p.support, p)
    found = sorted(by_support.values(), key=lambda p: (len(p.support), p.support.indices))
    if include_antipodes:
        found = found + [ExtremePoint(tuple(-x for x in p.vector), p.support) for p in found]
    return found


def masc_contains(
    basis: NullspaceBasis,
    s: SupportSet,
    pts: list[ExtremePoint] | None = None,
) -> MembershipVerdict:
    """Decide whether every vector supported in s is always recovered.

    True exactly when every extreme point z keeps strictly less than half of
    its l1 mass on s; checking one antipode per pair suffices because the mass
    is invariant under negation.
    """
    if s.ambient_dim != basis.ambient_dim:
        raise InputError("support and basis ambient dimensions differ")
    if pts is None:
        pts = enumerate_extreme_points(basis)
    if not pts:
        return MembershipVerdict.from_mass(0)
    # the first point of largest mass
    worst = max(pts, key=lambda p: p.l1_mass_on(s.indices))
    return MembershipVerdict.from_mass(worst.l1_mass_on(s.indices), lambda: worst)


def nullspace_constant(
    s: int,
    basis: NullspaceBasis,
    pts: list[ExtremePoint] | None = None,
) -> Fraction | float:
    """Largest l1 mass any extreme point can place on s coordinates.

    Zero for a trivial nullspace, by convention.
    """
    if not 1 <= s <= basis.ambient_dim:
        raise InputError("sparsity out of range")
    if pts is None:
        pts = enumerate_extreme_points(basis)
    if not pts:
        return Fraction(0) if basis.exact else 0.0
    best = None
    for p in pts:
        mags = sorted((abs(x) for x in p.vector), reverse=True)
        mass = sum(mags[:s])
        if best is None or mass > best:
            best = mass
    return best


def masc_enumerate(basis: NullspaceBasis) -> SimplicialComplexSummary:
    """Enumerate the full family by breadth-first search over cardinality.

    A failing set prunes all its supersets, valid because the retained l1 mass
    is monotone in the support.
    """
    n = basis.ambient_dim
    if n > DEFAULT_ENUM_DIM_CAP:
        raise BudgetExceededError(
            f"full enumeration capped at n <= {DEFAULT_ENUM_DIM_CAP}; "
            "use the membership oracle for single supports"
        )
    if basis.dim == 0:
        full = SupportSet.of(n, range(n))
        return SimplicialComplexSummary(n, (full,))
    pts = enumerate_extreme_points(basis)
    levels: list[list[frozenset]] = [[frozenset()]]
    for k in range(1, n + 1):
        prev = set(levels[-1])
        if not prev:
            break
        candidates = set()
        for base in prev:
            for i in range(n):
                if i not in base:
                    cand = base | {i}
                    if all(cand - {j} in prev for j in cand):
                        candidates.add(cand)
        passing = []
        for cand in sorted(candidates, key=sorted):
            v = masc_contains(basis, SupportSet.of(n, cand), pts=pts)
            if v.in_masc:
                passing.append(cand)
        levels.append(passing)
    maximal = []
    for k in range(len(levels) - 1, -1, -1):
        above = levels[k + 1] if k + 1 < len(levels) else []
        for face in levels[k]:
            if not any(face < up for up in above):
                maximal.append(face)
    faces = tuple(SupportSet.of(n, f) for f in sorted(maximal, key=sorted))
    return SimplicialComplexSummary(n, faces)


def recoverable_fraction(basis: NullspaceBasis, s: int) -> float:
    """Fraction of cardinality-s supports that are always recoverable,
    counted over every one of them."""
    n = basis.ambient_dim
    if not 1 <= s <= n:
        raise InputError("sparsity out of range")
    pts = enumerate_extreme_points(basis)
    total = math.comb(n, s)
    if total > DEFAULT_SCAN_CAP:
        raise BudgetExceededError(f"{total} supports exceed the cap {DEFAULT_SCAN_CAP}")
    hits = sum(
        masc_contains(basis, SupportSet(n, c), pts=pts).in_masc
        for c in combinations(range(n), s)
    )
    return hits / total

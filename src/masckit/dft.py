"""Partial DFT fast path for prime dimension and real signals.

Membership of a support in the always-recoverable family reduces to weight
comparisons over candidate supports one larger than the measured row set.
The weights are the magnitudes of the nullspace vector restricted to the
candidate support (proportional to its submatrix minors); when the row set is
a contiguous symmetric band they are 1/|f'_Gamma| at the roots of unity. One
batched kernel, `_weights`, computes them for every caller, one block of
candidates at a time from `_weight_blocks`; nothing is kept between calls.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, islice

import numpy as np

from .errors import BudgetExceededError, InputError, NumericalBoundaryError
from .linalg import RANK_RTOL, dft_matrix
from .masc import ExtremePoint, MembershipVerdict, SupportSet, _circuit
from .recovery import realify

__all__ = [
    "PartialDFTSpec",
    "symmetrize_omega",
    "band_spec",
    "masc_contains_dft",
    "coherence_lower_bound",
    "s_max_exact",
    "s_max_sampled",
]

DEFAULT_GAMMA_BUDGET = 10**6

# entries per batched block of weight or swap evaluations (bounds peak memory)
_BLOCK = 1 << 18


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class PartialDFTSpec:
    """Prime dimension n and conjugate-symmetric measured row set omega.

    `mbar` is derived from omega: set when omega is the contiguous band
    {0..mbar, n-mbar..n-1}, which selects the band weight formula, else None.
    """

    n: int
    omega: SupportSet
    mbar: int | None = field(init=False)

    def __post_init__(self):
        if not _is_prime(self.n):
            raise InputError(f"{self.n} is not prime")
        for k in self.omega.indices:
            if k >= 1 and (self.n - k) not in self.omega:
                raise InputError("omega is not conjugate symmetric")
        object.__setattr__(self, "mbar", _band_mbar(self.n, self.omega))

    @property
    def m(self) -> int:
        return len(self.omega)

    @property
    def gamma_size(self) -> int:
        return self.m + 1

    def partial_matrix(self) -> np.ndarray:
        """The |omega| x n complex measurement matrix."""
        return dft_matrix(self.n)[list(self.omega.indices), :]


def _band_mbar(n: int, omega: SupportSet) -> int | None:
    """mbar when omega is the band {0..mbar, n-mbar..n-1} with mbar >= 1 and
    |omega| <= n-2, else None. The band is the only set of 2*mbar+1 indices
    within circular distance mbar of 0."""
    m = len(omega)
    if m % 2 == 0 or not 3 <= m <= n - 2:
        return None
    mbar = m // 2
    return mbar if all(min(k, n - k) <= mbar for k in omega.indices) else None


def symmetrize_omega(n: int, omega_raw) -> PartialDFTSpec:
    """Close a row set under conjugation k -> n-k.

    The closure changes nothing for the l1 problem because the unknown
    signal is real.
    """
    if not _is_prime(n):
        raise InputError(f"{n} is not prime")
    raw = SupportSet.of(n, omega_raw)
    if len(raw) == 0:
        raise InputError("omega must be non-empty")
    closed = set(raw.indices)
    closed |= {n - k for k in raw.indices if k >= 1}
    return PartialDFTSpec(n, SupportSet.of(n, closed))


def band_spec(n: int, mbar: int) -> PartialDFTSpec:
    """The row set {0..mbar, n-mbar..n-1}, the lowest 2*mbar+1 frequencies."""
    if not 0 <= mbar < n:
        raise InputError("mbar must lie in [0, n)")
    return symmetrize_omega(n, [k % n for k in range(-mbar, mbar + 1)])


def _sin_log_table(n: int) -> np.ndarray:
    """log |xi^a - xi^b| depends only on d = (a-b) mod n; tabulate it, with
    0 at d = 0 so that sums over a support may include the diagonal."""
    table = np.zeros(n)
    table[1:] = np.log(2.0 * np.abs(np.sin(np.pi * np.arange(1, n) / n)))
    return table


def _sin_log_strip(n: int) -> np.ndarray:
    """strip[a - b + n - 1] = table[(a - b) mod n] for a, b in [0, n)."""
    return _sin_log_table(n)[(np.arange(2 * n - 1) - (n - 1)) % n]


def _unit_rows(logs: np.ndarray) -> np.ndarray:
    """Weights from log weights along the last axis, normalized to unit sum."""
    w = np.exp(logs - logs.max(axis=-1, keepdims=True))
    return w / w.sum(axis=-1, keepdims=True)


def _block_rows(spec: PartialDFTSpec) -> int:
    return max(1, _BLOCK // spec.gamma_size**2)


def _weights(spec: PartialDFTSpec, gammas: np.ndarray) -> np.ndarray:
    """Comparison weights for each row of one block of candidate supports
    (B, |omega|+1), each row normalized to unit sum.

    Band row sets: log w_k = -sum over u in gamma, u != k, of
    log |xi^k - xi^u|, i.e. w_k = 1/|f'_Gamma(xi^k)|. Other row sets: the
    magnitudes of the restricted null vector from a batched SVD. Both are
    proportional to the alternating minors. Memory grows with B * |gamma|^2;
    `_weight_blocks` keeps B to `_block_rows`.
    """
    n = spec.n
    gammas = np.asarray(gammas, dtype=int)
    if spec.mbar is not None:
        strip = _sin_log_strip(n)
        logs = -strip[(gammas[:, :, None] + (n - 1)) - gammas[:, None, :]].sum(axis=2)
        return _unit_rows(logs)
    sub = spec.partial_matrix()[:, gammas].transpose(1, 0, 2)
    _, sv, vh = np.linalg.svd(sub, full_matrices=True)
    # prime n makes every minor nonzero, hence nullity exactly one
    if np.any(sv[:, -1] <= RANK_RTOL * sv[:, 0]):
        raise NumericalBoundaryError(
            "restricted nullspace not one-dimensional within tolerance"
        )
    w = np.abs(vh[:, -1, :])
    return w / w.sum(axis=1, keepdims=True)


def _weight_blocks(spec: PartialDFTSpec, gammas):
    """Stream an iterable of candidate supports (index tuples) as
    (block, weights) pairs of `_block_rows(spec)` rows at a time: block is
    the (B, |omega|+1) index array, weights its unit-sum rows."""
    gammas = iter(gammas)
    rows = _block_rows(spec)
    while block := list(islice(gammas, rows)):
        block = np.array(block, dtype=int)
        yield block, _weights(spec, block)


def _s_max_rows(weights: np.ndarray) -> np.ndarray:
    """Per row of unit-sum weights, the largest t whose t heaviest weights
    sum to strictly less than one half."""
    prefix = np.cumsum(np.sort(weights, axis=1)[:, ::-1], axis=1)
    return (prefix < 0.5).sum(axis=1)


def _witness(spec: PartialDFTSpec, gamma: np.ndarray, weights: np.ndarray) -> ExtremePoint:
    """The circuit on candidate support gamma (a sorted index array) that
    the verdict was decided from, with a positive first entry; `weights` is
    gamma's row of `_weights`.

    Band row sets: trigonometric polynomials of degree mbar form a Chebyshev
    system, so the circuit alternates in sign over sorted gamma and its
    magnitudes are the weights. Other row sets: `masc._circuit` on the
    realified rows, as the generic scan reads it.
    """
    if spec.mbar is None:
        point = _circuit(realify(spec.partial_matrix()), gamma)
        if point is None:
            raise NumericalBoundaryError("restricted nullspace not one-dimensional")
        return point
    out = np.zeros(spec.n)
    out[gamma] = weights * (-1.0) ** np.arange(len(gamma))
    return ExtremePoint(tuple(out.tolist()), SupportSet.of(spec.n, gamma))


def _all_gammas(spec: PartialDFTSpec, budget: int):
    """Every candidate support in lexicographic order, after checking that
    their count fits the budget."""
    total = math.comb(spec.n, spec.gamma_size)
    if total > budget:
        raise BudgetExceededError(
            f"{total} candidate supports exceed the budget {budget}; "
            "use sampled mode"
        )
    return combinations(range(spec.n), spec.gamma_size)


def _sample_gammas(spec: PartialDFTSpec, sample_size: int, seed: int):
    """Distinct uniform size-(|omega|+1) subsets via Floyd's algorithm.

    The arguments are checked first; a full row set (|omega| + 1 > n) has
    no such subset, so the list is then empty.
    """
    if sample_size < 1:
        raise InputError("sample_size must be >= 1")
    if seed < 0:
        # random.Random would take |seed| and repeat the positive seed's draws
        raise InputError("seed must be >= 0")
    rng = random.Random(seed)
    n, k = spec.n, spec.gamma_size
    total = math.comb(n, k)
    sample_size = min(sample_size, total)
    seen = set()
    out = []
    while len(out) < sample_size:
        chosen = set()
        for j in range(n - k, n):
            t = rng.randrange(j + 1)
            chosen.add(j if t in chosen else t)
        key = frozenset(chosen)
        if key not in seen:
            seen.add(key)
            out.append(tuple(sorted(chosen)))
    return out


def masc_contains_dft(
    spec: PartialDFTSpec,
    s,
    budget: int = DEFAULT_GAMMA_BUDGET,
    sampled: bool = False,
    sample_size: int = 1000,
    seed: int = 0,
) -> MembershipVerdict:
    """Decide whether support s is always recoverable from the partial DFT.

    Exhaustive mode (default) checks every candidate support and is a full
    certificate. Sampled mode is one-sided: a violation certifies
    non-membership, while a clean sweep only supports membership
    (verdict returned with decided=False).

    Comparisons inside a relative tie band return decided=False rather than
    fabricating a certificate.
    """
    s = SupportSet.of(spec.n, s)
    gammas = _sample_gammas(spec, sample_size, seed) if sampled else None
    if spec.gamma_size > spec.n:
        # full row set: trivial nullspace, every support recoverable
        return MembershipVerdict.from_mass(0.0)
    if gammas is None:
        gammas = _all_gammas(spec, budget)
    mask = np.zeros(spec.n)
    mask[list(s.indices)] = 1.0
    # the first support of largest mass across blocks, as one argmax would
    worst_mass, worst = -math.inf, None
    for block, weights in _weight_blocks(spec, gammas):
        masses = (weights * mask[block]).sum(axis=1)
        at = int(np.argmax(masses))
        if masses[at] > worst_mass:
            worst_mass, worst = float(masses[at]), (block[at], weights[at])
    return MembershipVerdict.from_mass(
        worst_mass, lambda: _witness(spec, *worst), sampled
    )


def coherence_lower_bound(spec: PartialDFTSpec):
    """Closed-form sparsity guarantee n / (2(n - |omega|)) for band row sets.

    Returns (bound, s_guaranteed) with s_guaranteed the largest integer
    strictly below the bound.
    """
    if spec.mbar is None:
        raise InputError("coherence bound requires the contiguous band shape")
    bound = Fraction(spec.n, 2 * (spec.n - spec.m))
    s_guaranteed = math.ceil(bound) - 1
    return bound, s_guaranteed


def s_max_exact(spec: PartialDFTSpec, budget: int = DEFAULT_GAMMA_BUDGET) -> int:
    """Minimum of the per-gamma sparsity over every candidate support."""
    if spec.gamma_size > spec.n:
        return spec.n
    blocks = _weight_blocks(spec, _all_gammas(spec, budget))
    return min(int(_s_max_rows(w).min()) for _, w in blocks)


def s_max_sampled(spec: PartialDFTSpec, sample_size: int, seed: int) -> int:
    """Upper bound on the exact value from a seeded search of supports.

    Takes the minimum of the per-gamma sparsity over a uniform sample of
    candidate supports. For band row sets it also runs a one-swap local
    search from the first sampled support (see `_swap_search`) and takes the
    minimum over every support it visits. The search finds structured
    supports that uniform draws out of C(n, |omega|+1) almost never hit. Its
    work is bounded by sample_size * (n - |gamma|) swap evaluations of
    |gamma| weight entries, (n - |gamma|) / |gamma| times the uniform
    sample's: 0.9x at band(61, 15), 3.1x at band(1009, 123).

    Every value comes from a real candidate support, so the result is never
    below `s_max_exact`. Nesting holds: with the same seed a larger sample
    extends the smaller one, and the search starts from the same support
    and extends the same trajectory, so the result never grows. Row sets
    that are not bands use the uniform sample only.
    """
    gammas = _sample_gammas(spec, sample_size, seed)
    if spec.gamma_size > spec.n:
        return spec.n
    best = min(int(_s_max_rows(w).min()) for _, w in _weight_blocks(spec, gammas))
    if spec.mbar is not None and len(gammas) < math.comb(spec.n, spec.gamma_size):
        evaluations = len(gammas) * (spec.n - spec.gamma_size)
        best = min(best, _swap_search(spec, gammas[0], evaluations))
    return best


def _top_mass(logs: np.ndarray, s: int) -> np.ndarray:
    """Share of the total weight held by the s heaviest entries, along the
    last axis of an array of log weights."""
    w = np.exp(logs - logs.max(axis=-1, keepdims=True))
    if s == 0:
        return np.zeros(w.shape[:-1])
    if s == 1:
        # the heaviest entry of each row is exp(0) = 1.0 exactly
        return 1.0 / w.sum(axis=-1)
    top = np.partition(w, w.shape[-1] - s, axis=-1)[..., -s:]
    return top.sum(axis=-1) / w.sum(axis=-1)


def _swap_search(spec: PartialDFTSpec, start: tuple[int, ...], evaluations: int) -> int:
    """Deterministic one-swap descent on the per-gamma sparsity, band only.

    Each step scores every swap (one index of gamma out, one index outside
    it in) by the weight share of its s heaviest entries, s being the
    current per-gamma sparsity, and makes the best swap if it raises that
    share; a share of one half or more lowers s. A step costs
    |gamma| * (n - |gamma|) swap evaluations, and the search stops when
    `evaluations` cannot pay for the next step or no swap raises the share.
    Ties go to the first swap in (out, in) index order. Returns the smallest
    per-gamma sparsity over the supports visited, start included.
    """
    n, k = spec.n, spec.gamma_size
    # pair[a, b] = log |xi^a - xi^b|, a read-only view of one 2n-1 strip
    # (row a reads strip[a:a+n] backwards), so no n x n array is built
    pair = np.lib.stride_tricks.sliding_window_view(_sin_log_strip(n), n)[:, ::-1]
    in_gamma = np.zeros(n, dtype=bool)
    in_gamma[list(start)] = True
    # logs[j]: log weight of j as a member of gamma, the log-sin sum over the
    # complement (|f'_Gamma(xi^j)| |f_complement(xi^j)| = n makes it the band
    # weight up to a constant); one swap updates it in O(n)
    logs = pair[:, ~in_gamma].sum(axis=1)

    def level() -> int:
        return int(_s_max_rows(_unit_rows(logs[in_gamma][None]))[0])

    s = best = level()
    cost = k * (n - k)
    rows = max(1, _BLOCK // cost)
    for _ in range(evaluations // cost):
        g, c = np.flatnonzero(in_gamma), np.flatnonzero(~in_gamma)
        pair_gg, pair_gc = pair[np.ix_(g, g)], pair[np.ix_(g, c)]
        top, swap = float(_top_mass(logs[g], s)), None
        for lo in range(0, k, rows):
            out = np.arange(lo, min(lo + rows, k))
            # cand[t, j, p]: log weight at gamma position p once g[out[t]]
            # is swapped for c[j]; position out[t] then holds c[j]
            cand = logs[g] + pair_gg[out, None, :] - pair_gc.T[None, :, :]
            cand[np.arange(out.size), :, out] = logs[c] + pair_gc[out]
            mass = _top_mass(cand, s)
            at = int(np.argmax(mass))
            if mass.flat[at] > top:
                top, swap = float(mass.flat[at]), (g[out[at // c.size]], c[at % c.size])
        if swap is None:
            break
        a, b = swap
        in_gamma[a], in_gamma[b] = False, True
        logs += pair[:, a] - pair[:, b]
        s = level()
        best = min(best, s)
    return best

"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from masckit.dft import (
    _weights,
    band_spec,
    coherence_lower_bound,
    masc_contains_dft,
    s_max_exact,
    s_max_sampled,
    symmetrize_omega,
)
from masckit.graphs import (
    enumerate_simple_cycles,
    erdos_renyi,
    incidence_matrix,
    masc_contains_graph,
    nsc_graph,
)
from masckit.linalg import RealMatrix, float_nullspace_basis, nullspace_basis
from masckit.masc import (
    SupportSet,
    enumerate_extreme_points,
    masc_contains,
    masc_enumerate,
    nullspace_constant,
    recoverable_fraction,
)
from masckit.recovery import (
    TrialConfig,
    mrsl_naive,
    realify,
    recovery_rate,
    recovery_trial,
)

from conftest import flow_space_basis, random_connected_graph


def report(num: int, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"criterion {num:2d}: {tag}{suffix}")
    assert ok, f"criterion {num} failed{suffix}"


def test_criterion_01_single_row_masc_empty():
    b = nullspace_basis(RealMatrix.from_rows([[1, -1, 1]]))
    summ = masc_enumerate(b)
    ok = summ.contains_empty_only
    ok = ok and [f.indices for f in summ.maximal_faces] == [()]
    for r in (1, 2, 3):
        for sup in itertools.combinations(range(3), r):
            ok = ok and not masc_contains(b, SupportSet.of(3, sup)).in_masc
    report(1, ok)


def test_criterion_02_sum_row_extreme_points():
    b = nullspace_basis(RealMatrix.from_rows([[1, 1, 1]]))
    pairs = enumerate_extreme_points(b)
    ok = len(pairs) == 3
    for p in pairs:
        ok = ok and len(p.support) == 2
        ok = ok and sorted(abs(x) for x in p.vector if x) == [Fraction(1, 2)] * 2
    # brute-force oracle over sign vectors: count distinct +-(ei-ej)/2 points
    oracle = set()
    for i, j in itertools.combinations(range(3), 2):
        for sg in (1, -1):
            v = [Fraction(0)] * 3
            v[i], v[j] = sg * Fraction(1, 2), -sg * Fraction(1, 2)
            oracle.add(tuple(v))
    with_antipodes = enumerate_extreme_points(b, include_antipodes=True)
    ok = ok and len(with_antipodes) == len(oracle) == 6
    ok = ok and {p.vector for p in with_antipodes} == oracle
    report(2, ok)


def test_criterion_03_chain_graph_fixture(chain_graph):
    cycles = enumerate_simple_cycles(chain_graph)
    edge_sets = [set(p.support.indices) for p in cycles]
    ok = edge_sets == [{0, 1, 2}, {1, 3, 4, 5, 6}, {0, 2, 3, 4, 5, 6}]
    ok = ok and masc_contains_graph(chain_graph, SupportSet.of(7, [0, 4])).in_masc
    ok = ok and not masc_contains_graph(chain_graph, SupportSet.of(7, [0, 1])).in_masc
    summ = masc_enumerate(flow_space_basis(chain_graph))
    faces = [set(f.indices) for f in summ.maximal_faces]
    expected = [
        set(c)
        for c in itertools.combinations(range(7), 2)
        if len(set(c) & {0, 1, 2}) <= 1
    ]
    ok = ok and len(faces) == 18
    ok = ok and sorted(map(sorted, faces)) == sorted(map(sorted, expected))
    frac = recoverable_fraction(flow_space_basis(chain_graph), 2)
    ok = ok and frac == 18 / 21
    report(3, ok)


def test_criterion_04_nsc_closed_form_equivalence():
    rng = random.Random(20240824)
    ok = True
    for _ in range(50):
        g = random_connected_graph(rng, max_edges=8)
        b = flow_space_basis(g)
        pts = enumerate_extreme_points(b)
        for s in range(1, g.edge_count + 1):
            ok = ok and nsc_graph(s, g) == nullspace_constant(s, b, pts=pts)
    report(4, ok)


def test_criterion_05_eleven_point_fixture():
    spec = symmetrize_omega(11, [0, 2, 4, 7, 9])
    ok = True
    masc_size = 1  # empty set
    for a in range(11):
        v = masc_contains_dft(spec, [a])
        ok = ok and v.decided and v.in_masc
        masc_size += 1
    for a, b in itertools.combinations(range(11), 2):
        v = masc_contains_dft(spec, [a, b])
        expect = abs(abs(a - b) - 11 / 2) >= 3 / 2
        ok = ok and v.decided and v.in_masc == expect
        masc_size += v.in_masc
    ok = ok and masc_size == 56
    any_triple = any(
        masc_contains_dft(spec, c).in_masc
        for c in itertools.combinations(range(11), 3)
    )
    ok = ok and not any_triple
    report(5, ok, f"masc size {masc_size}")


def test_criterion_06_n19_reproduction():
    spec = band_spec(19, 7)
    bound, s_guar = coherence_lower_bound(spec)
    ok = bound == Fraction(19, 8) and float(bound) == 2.375 and s_guar == 2
    ok = ok and math.comb(19, 16) == 969
    ok = ok and s_max_exact(spec) == 3
    a = realify(spec.partial_matrix())
    rates = {}
    for s in range(1, 7):
        rates[s] = recovery_rate(a, TrialConfig(sparsity=s, trials=1000, seed=s))
    ok = ok and all(rates[s] == 1.0 for s in (1, 2, 3))
    ok = ok and all(rates[s] > 0.0 for s in (4, 5, 6))
    ok = ok and rates[4] >= rates[5] >= rates[6]
    report(6, ok, f"rates {rates}")


def all_symmetric_omegas(n):
    pairs = [(k, n - k) for k in range(1, (n + 1) // 2)]
    out = []
    for with_zero in (False, True):
        for r in range(len(pairs) + 1):
            for chosen in itertools.combinations(pairs, r):
                s = {0} if with_zero else set()
                for a, b in chosen:
                    s |= {a, b}
                if s:
                    out.append(sorted(s))
    return out


def test_criterion_07_cross_oracle_dft():
    ok = True
    checked = 0
    for n in (5, 7, 11):
        masks = np.zeros((2**n, n))
        supports = list(
            itertools.chain.from_iterable(
                itertools.combinations(range(n), r) for r in range(n + 1)
            )
        )
        for i, sup in enumerate(supports):
            masks[i, list(sup)] = 1.0
        for om in all_symmetric_omegas(n):
            spec = symmetrize_omega(n, om)
            b = float_nullspace_basis(realify(spec.partial_matrix()))
            pts = enumerate_extreme_points(b)
            if spec.gamma_size > n or not pts:
                # trivial real nullspace: both oracles accept everything
                for sup in supports:
                    v = masc_contains_dft(spec, sup)
                    ok = ok and v.in_masc
                    checked += 1
                continue
            p_abs = np.abs(np.array([p.as_float() for p in pts]))
            mass_core = (p_abs @ masks.T).max(axis=0)
            gammas = np.array(list(itertools.combinations(range(n), spec.gamma_size)))
            weights = _weights(spec, gammas)
            mass_dft = np.array(
                [(weights * m[gammas]).sum(axis=1).max() for m in masks]
            )
            for i in range(len(supports)):
                if abs(mass_core[i] - 0.5) <= 1e-9 or abs(mass_dft[i] - 0.5) <= 1e-9:
                    continue  # boundary: both oracles return undecided
                ok = ok and (mass_core[i] < 0.5) == (mass_dft[i] < 0.5)
                checked += 1
            # spot-check the public entry points agree with the table sweep
            rng = random.Random(n * 1000 + len(om))
            for sup in rng.sample(supports, 5):
                v1 = masc_contains(b, SupportSet.of(n, sup), pts=pts)
                v2 = masc_contains_dft(spec, sup)
                if v1.decided and v2.decided:
                    ok = ok and v1.in_masc == v2.in_masc
    report(7, ok, f"{checked} comparisons")


def test_criterion_08_ordering_and_nesting():
    # For every band size at n = 61: the coherence guarantee is a lower bound
    # and the recovery-trial level an upper bound on the true maximal
    # recoverable sparsity, so the Gamma-space estimate must sit between them;
    # and a prefix sample (same seed) never gives a smaller estimate. The
    # sharp case is mbar = 15: Gamma* = {1} + {0, 2, ..., 60} carries a
    # circuit with l1 mass ~0.529 > 1/2 on the adjacent pair {0, 1}, so the
    # true level is 1 = s_guaranteed. Uniform draws out of C(61, 32) almost
    # never hit such a set; the estimator has to search for it.
    n = 61
    ok = True
    violations = []
    for mbar in range(7, 30):
        spec = band_spec(n, mbar)
        _, s_guar = coherence_lower_bound(spec)
        s_hat = s_max_sampled(spec, 1000, seed=mbar)
        naive = mrsl_naive(realify(spec.partial_matrix()), 200, seed=mbar)
        if not s_guar <= s_hat <= naive:
            violations.append((mbar, s_guar, s_hat, naive))
        # nested-sample monotonicity: a prefix sample is never smaller
        if s_max_sampled(spec, 250, seed=mbar) < s_hat:
            violations.append((mbar, "nesting", s_hat))
    ok = not violations
    detail = (
        "all 23 omega sizes ordered and nested"
        if ok
        else f"violations (mbar, s_guaranteed, s_max_sampled, mrsl_naive): {violations}"
    )
    report(8, ok, detail)


def test_criterion_09_large_scale_smoke():
    spec = band_spec(1009, 253)
    assert spec.m == 507
    s_hat = s_max_sampled(spec, 1000, seed=42)
    _, s_guar = coherence_lower_bound(spec)
    report(9, s_hat >= s_guar, f"sampled {s_hat} >= guaranteed {s_guar}")


def test_criterion_10_erdos_renyi_contrast():
    p_crit = math.log(100) / 100
    ok = erdos_renyi(100, 1.0, 0).edge_count == 4950
    means = {}
    for expo in (1.0, 1 / 9):
        p = p_crit**expo
        rates = []
        for seed in range(5):
            g = erdos_renyi(100, p, seed)
            a = incidence_matrix(g).to_float_array()
            rates.append(
                recovery_rate(a, TrialConfig(sparsity=2, trials=20, seed=seed))
            )
        means[expo] = sum(rates) / len(rates)
    ok = ok and means[1.0] - means[1 / 9] >= 0.3
    report(10, ok, f"rate at p_crit {means[1.0]:.2f} vs p_crit^(1/9) {means[1/9]:.2f}")


def _witness_failure_construction(phi, s, witness):
    """Concrete supported signal with an equal-or-better l1 competitor."""
    n = phi.shape[1]
    z = witness.as_float()
    bar = np.where(np.isin(np.arange(n), s.indices), z, 0.0)
    hat = -np.where(np.isin(np.arange(n), s.indices), 0.0, z)
    pad = np.zeros(n)
    for i in s.indices:
        if bar[i] == 0.0:
            pad[i] = 1.0
    x_bar = pad + bar
    competitor = pad + hat
    return x_bar, competitor


def test_criterion_11_recovery_dichotomy():
    rng = random.Random(11)
    ok = True
    accepted = rejected = 0
    trials = 0
    while trials < 100:
        n = rng.randint(3, 7)
        m = rng.randint(1, n - 1)
        phi_exact = RealMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        )
        b = nullspace_basis(phi_exact)
        if b.dim == 0:
            continue
        r = rng.randint(1, n - 1)
        s = SupportSet.of(n, rng.sample(range(n), r))
        v = masc_contains(b, s)
        trials += 1
        phi = phi_exact.to_float_array()
        if v.in_masc:
            accepted += 1
            for t in range(20):
                x = np.zeros(n)
                for i in s.indices:
                    x[i] = rng.choice([-1, 1]) * rng.uniform(0.1, 2.0)
                ok = ok and recovery_trial(phi, x)
        else:
            rejected += 1
            x_bar, competitor = _witness_failure_construction(phi, s, v.witness)
            # the competitor shares the measurement and never costs more l1
            same_measure = np.allclose(phi @ competitor, phi @ x_bar, atol=1e-9)
            no_worse = np.abs(competitor).sum() <= np.abs(x_bar).sum() + 1e-9
            distinct = not np.allclose(competitor, x_bar)
            certified = same_measure and no_worse and distinct
            ok = ok and (not recovery_trial(phi, x_bar) or certified)
    report(11, ok, f"{accepted} accepted, {rejected} rejected")

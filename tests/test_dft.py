import itertools
import json
import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import masckit
from masckit.errors import BudgetExceededError, InputError
from masckit.dft import (
    PartialDFTSpec,
    _block_rows,
    _s_max_rows,
    _sample_gammas,
    _sin_log_table,
    _top_mass,
    _unit_rows,
    _weights,
    _witness,
    band_spec,
    coherence_lower_bound,
    masc_contains_dft,
    s_max_exact,
    s_max_sampled,
    symmetrize_omega,
)
from conftest import dft_matrix_reference, dft_root_powers


# reference code: direct evaluations and minors the kernel is checked against


def f_gamma_poly_eval(spec, gamma, z):
    """Evaluate prod_{k in gamma} (z - xi^k) directly."""
    roots = dft_root_powers(spec.n)
    out = 1.0 + 0.0j
    for k in sorted(set(gamma)):
        out *= z - roots[k]
    return complex(out)


def f_gamma_eval(spec, gamma, k):
    """Evaluate the gamma root polynomial at the k-th root of unity."""
    return f_gamma_poly_eval(spec, gamma, complex(dft_root_powers(spec.n)[k]))


def band_log_weights_reference(spec, gammas):
    """Band log weights by the modulo formula: minus the sum of
    table[(g_k - g_u) mod n] over the row, diagonal included."""
    table = _sin_log_table(spec.n)
    g = np.asarray(gammas, dtype=int)
    return -table[(g[:, :, None] - g[:, None, :]) % spec.n].sum(axis=2)


def band_weights_reference(spec, gammas):
    return _unit_rows(band_log_weights_reference(spec, gammas))


def top_mass_reference(logs, s):
    """Share of the s heaviest weights by partition, for every s."""
    w = np.exp(logs - logs.max(axis=-1, keepdims=True))
    if s == 0:
        return np.zeros(w.shape[:-1])
    top = np.partition(w, w.shape[-1] - s, axis=-1)[..., -s:]
    return top.sum(axis=-1) / w.sum(axis=-1)


def witness_vector(spec, gamma):
    """The witness vector the membership check builds on gamma, in R^n."""
    gamma = np.array(gamma)
    return _witness(spec, gamma, _weights(spec, gamma[None])[0]).as_float()


def minor_weights(spec, gamma):
    """|alternating minors| of the measured rows on gamma, unit sum."""
    sub = spec.partial_matrix()[:, list(gamma)]
    k = len(gamma)
    w = np.array([abs(np.linalg.det(np.delete(sub, t, axis=1))) for t in range(k)])
    return w / w.sum()


class TestSymmetrizeOmega:
    def test_already_symmetric(self):
        spec = symmetrize_omega(11, [0, 2, 4, 7, 9])
        assert spec.omega.indices == (0, 2, 4, 7, 9)
        assert spec.mbar is None

    def test_closure(self):
        spec = symmetrize_omega(7, [1])
        assert spec.omega.indices == (1, 6)

    def test_band_detection(self):
        spec = symmetrize_omega(19, list(range(8)) + list(range(12, 19)))
        assert spec.mbar == 7 and spec.m == 15
        assert band_spec(19, 7) == spec
        # mbar is read off omega, so a spec built from the band's rows is the
        # band spec, with its kernel and its coherence bound
        direct = PartialDFTSpec(19, band_spec(19, 7).omega)
        assert direct == band_spec(19, 7) and direct.mbar == 7
        assert coherence_lower_bound(direct) == (Fraction(19, 8), 2)

    def test_band_needs_room(self):
        # mbar shape with |omega| > n-2 is not eligible for the band tests
        spec = symmetrize_omega(5, [0, 1, 2, 3, 4])
        assert spec.mbar is None

    def test_nonprime_rejected(self):
        with pytest.raises(InputError):
            symmetrize_omega(9, [0])

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            symmetrize_omega(7, [])


class TestPartialMatrix:
    @pytest.mark.parametrize(
        "spec",
        [band_spec(19, 7), symmetrize_omega(11, [0, 2, 4, 7, 9]),
         band_spec(61, 15), band_spec(1009, 123)],
        ids=["band19", "nonband11", "band61", "band1009"],
    )
    def test_rows_bitwise_match_reference(self, spec):
        got = spec.partial_matrix()
        want = dft_matrix_reference(spec.n, spec.omega.indices)
        assert got.shape == (spec.m, spec.n)
        assert got.tobytes() == want.tobytes()


class TestNullspaceVectorNu:
    def test_small_exact(self):
        spec = symmetrize_omega(3, [0])
        nu = witness_vector(spec, (0, 1))
        assert np.allclose(nu, [0.5, -0.5, 0.0], atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6))
    def test_annihilated_and_full_support(self, seed):
        rng = random.Random(seed)
        n = rng.choice([5, 7, 11, 13, 17, 19, 23, 29, 31])
        size = rng.randint(1, max(1, n // 2))
        spec = symmetrize_omega(n, rng.sample(range(n), size))
        gamma = tuple(sorted(rng.sample(range(n), spec.gamma_size)))
        nu = witness_vector(spec, gamma)
        assert np.max(np.abs(spec.partial_matrix() @ nu)) < 1e-9
        assert abs(np.abs(nu).sum() - 1.0) < 1e-12
        # full support on gamma (no nullspace vector on a smaller support)
        assert np.all(np.abs(nu[list(gamma)]) > 1e-12)
        off = [i for i in range(n) if i not in gamma]
        assert np.all(nu[off] == 0.0)

    def test_band_witnesses_n61(self):
        # two candidate supports from sampled rejections at n = 61, kept as
        # regression cases for witnesses outside the nullspace
        spec = band_spec(61, 15)
        for gamma in (
            [0, 1, 2, 3, 4, 5, 6, 8, 10, 11, 12, 14, 15, 20, 21, 22, 23, 26, 29,
             34, 41, 43, 44, 49, 50, 53, 54, 56, 57, 58, 59, 60],
            [0, 10, 16, 17, 19, 21, 22, 27, 28, 29, 30, 31, 32, 34, 35, 36, 37,
             38, 39, 40, 42, 43, 44, 46, 48, 49, 53, 55, 56, 57, 58, 59],
        ):
            nu = witness_vector(spec, gamma)
            assert np.max(np.abs(spec.partial_matrix() @ nu)) < 1e-9


class TestBandWitness:
    # the circuit on each of 20 seeded candidate supports, reached through a
    # one-support sampled query whose S is the fewest heaviest entries that
    # hold half the weight. At n = 1009 the smallest singular value of the
    # measured rows on each gamma is below 3e-14 of the largest, rounding
    # level, so an SVD of those rows cannot give these circuits
    @pytest.mark.parametrize("n, mbar", [(101, 30), (251, 60), (1009, 123)])
    def test_witness_is_the_deciding_circuit(self, n, mbar):
        spec = band_spec(n, mbar)
        rows = spec.partial_matrix()
        for seed in range(20):
            (gamma,) = _sample_gammas(spec, 1, seed)
            gamma = np.array(gamma)
            weights = _weights(spec, gamma[None])[0]
            heavy = np.argsort(weights)[::-1]
            t = int(np.searchsorted(np.cumsum(weights[heavy]), 0.5)) + 1
            s = sorted(gamma[heavy[:t]].tolist())
            v = masc_contains_dft(spec, s, sampled=True, sample_size=1, seed=seed)
            assert v.decided and not v.in_masc
            assert v.witness.support.indices == tuple(gamma)
            z = v.witness.as_float()
            assert np.array_equal(np.sign(z[gamma]), (-1.0) ** np.arange(len(gamma)))
            assert np.array_equal(np.abs(z[gamma]), weights)
            assert np.max(np.abs(rows @ z)) <= 1e-12
            assert abs(np.abs(z).sum() - 1.0) <= 1e-12
            # the same weights, summed in another order unless |S| <= 2
            mass = v.witness.l1_mass_on(s)
            if len(s) <= 2:
                assert mass == 0.5 - v.margin
            assert abs(mass - (0.5 - v.margin)) <= 4 * np.finfo(float).eps


class TestFGamma:
    def test_root_gives_zero(self):
        spec = symmetrize_omega(7, [0, 1])
        gamma = (0, 2, 5)
        assert abs(f_gamma_eval(spec, gamma, 2)) <= 1e-12 * len(gamma)

    def test_full_universe_polynomial(self):
        spec = symmetrize_omega(7, [0])
        val = f_gamma_poly_eval(spec, range(7), 2.0)
        assert val == pytest.approx(2**7 - 1, rel=1e-12)

    def test_c1_c2_product_identity(self):
        # |f'(xi^k)| * |f_complement(xi^k)| = n for k in gamma
        spec = band_spec(19, 7)
        rng = random.Random(3)
        gamma = tuple(sorted(rng.sample(range(19), spec.gamma_size)))
        roots = np.exp(-2j * np.pi * np.arange(19) / 19)
        comp = [j for j in range(19) if j not in gamma]
        for k in gamma:
            fprime = np.prod([roots[k] - roots[l] for l in gamma if l != k])
            fcomp = np.prod([roots[k] - roots[j] for j in comp])
            assert abs(fprime) * abs(fcomp) == pytest.approx(19.0, rel=1e-9)


class TestGammaWeights:
    def test_positive(self):
        spec = symmetrize_omega(11, [0, 2, 4, 7, 9])
        w = _weights(spec, np.array([range(6)]))
        assert w.shape == (1, 6) and np.all(w > 0)

    def test_kernel_matches_minors(self):
        # band formula and SVD branch both against the minors
        rng = random.Random(1)
        for spec in (band_spec(19, 7), symmetrize_omega(11, [0, 2, 4, 7, 9])):
            gammas = [
                tuple(sorted(rng.sample(range(spec.n), spec.gamma_size)))
                for _ in range(10)
            ]
            kernel = _weights(spec, np.array(gammas))
            for gamma, w in zip(gammas, kernel):
                assert np.max(np.abs(w - minor_weights(spec, gamma))) < 1e-8


class TestKernelOracles:
    # the kernels must reproduce the reference formulas bit for bit, so the
    # values derived from them (s_max, verdicts, margins) cannot move
    @pytest.mark.parametrize("n, mbar, rows", [(5, 1, 5), (19, 7, 200),
                                               (61, 15, 100), (1009, 123, 12)])
    def test_band_weights_and_top_mass_bitwise(self, n, mbar, rows):
        spec = band_spec(n, mbar)
        k = spec.gamma_size
        rng = np.random.default_rng(n)
        gammas = np.sort(
            np.array([rng.choice(n, k, replace=False) for _ in range(rows)]), axis=1
        )
        reference = band_weights_reference(spec, gammas)
        assert np.array_equal(_weights(spec, gammas), reference)
        band_logs = band_log_weights_reference(spec, gammas)
        # the swap search's (out, in, position) blocks, and rows of equal maxima
        logs_3d = rng.normal(size=(3, rows, k))
        for logs in (band_logs, band_logs[0], logs_3d, np.zeros((2, k))):
            for s in sorted({0, 1, 2, 3, k}):
                assert np.array_equal(_top_mass(logs, s), top_mass_reference(logs, s))


class TestMascContainsDft:
    def test_example_pair_out(self):
        spec = symmetrize_omega(11, [0, 2, 4, 7, 9])
        v = masc_contains_dft(spec, [0, 5])
        assert v.decided and not v.in_masc
        assert v.witness is not None

    def test_example_closed_form(self):
        spec = symmetrize_omega(11, [0, 2, 4, 7, 9])
        for a, b in itertools.combinations(range(11), 2):
            expect = abs(abs(a - b) - 5.5) >= 1.5
            assert masc_contains_dft(spec, [a, b]).in_masc == expect

    def test_empty_in(self):
        spec = symmetrize_omega(11, [0, 2, 4, 7, 9])
        v = masc_contains_dft(spec, [])
        assert v.decided and v.in_masc

    def test_monotone(self):
        spec = symmetrize_omega(11, [0, 2, 4, 7, 9])
        assert not masc_contains_dft(spec, [0, 5]).in_masc
        for extra in range(11):
            if extra not in (0, 5):
                assert not masc_contains_dft(spec, [0, 5, extra]).in_masc

    def test_sampled_one_sided(self):
        spec = band_spec(19, 7)
        out = masc_contains_dft(spec, list(range(10)), sampled=True, sample_size=50)
        assert out.decided and not out.in_masc  # violations certify exclusion
        inside = masc_contains_dft(spec, [0], sampled=True, sample_size=20)
        assert not inside.decided and inside.in_masc  # only probabilistic

    def test_budget(self):
        spec = band_spec(19, 7)
        with pytest.raises(BudgetExceededError):
            masc_contains_dft(spec, [0], budget=10)

    def test_verdicts_match_minors(self):
        spec = band_spec(19, 7)
        gammas = list(itertools.combinations(range(19), spec.gamma_size))
        weights = np.array([minor_weights(spec, g) for g in gammas])
        rng = random.Random(7)
        for _ in range(20):
            sup = rng.sample(range(19), rng.randint(1, 5))
            mask = np.zeros(19)
            mask[sup] = 1.0
            worst = (weights * mask[np.array(gammas)]).sum(axis=1).max()
            assert masc_contains_dft(spec, sup).in_masc == (worst < 0.5)

    def test_full_omega_trivial(self):
        spec = symmetrize_omega(7, range(7))
        v = masc_contains_dft(spec, [0, 3, 5])
        assert v.decided and v.in_masc


class TestCoherenceBound:
    def test_n19(self):
        bound, s = coherence_lower_bound(band_spec(19, 7))
        assert bound == Fraction(19, 8) and s == 2

    def test_max_band(self):
        # |omega| = n-2 gives bound n/4
        spec = band_spec(11, 4)
        bound, _ = coherence_lower_bound(spec)
        assert bound == Fraction(11, 4)

    def test_monotone_in_omega(self):
        bounds = [coherence_lower_bound(band_spec(61, 7 + j))[0] for j in range(0, 23)]
        assert bounds == sorted(bounds)

    def test_requires_band(self):
        with pytest.raises(InputError):
            coherence_lower_bound(symmetrize_omega(11, [0, 2, 4, 7, 9]))


class TestSMax:
    def test_uniform_weight_rule(self):
        # t-1 for 2t uniform weights under the strict-half rule
        assert _s_max_rows(np.full((1, 8), 1 / 8))[0] == 3
        assert _s_max_rows(np.full((1, 7), 1 / 7))[0] == 3

    def test_n19_exact(self):
        assert s_max_exact(band_spec(19, 7)) == 3

    def test_gamma_at_least_guaranteed(self):
        spec = band_spec(61, 15)
        _, s_guar = coherence_lower_bound(spec)
        rng = random.Random(11)
        gammas = [sorted(rng.sample(range(61), spec.gamma_size)) for _ in range(50)]
        assert np.all(_s_max_rows(_weights(spec, np.array(gammas))) >= s_guar)

    def test_structured_witness_n61(self):
        # {1} plus the even comb: the circuit on it puts more than half of
        # its l1 mass on the adjacent pair {0, 1}, so s_max there is 1
        spec = band_spec(61, 15)
        gamma = sorted({1} | set(range(0, 61, 2)))
        assert len(gamma) == spec.gamma_size
        assert _s_max_rows(_weights(spec, np.array([gamma])))[0] == 1
        assert _s_max_rows(minor_weights(spec, gamma)[None])[0] == 1
        nu = witness_vector(spec, gamma)
        assert np.abs(nu[[0, 1]]).sum() > 0.5
        # 1000 uniform draws alone report 2 at this seed; the swap search
        # reaches the witness level, which the coherence guarantee matches
        assert s_max_sampled(spec, 1000, 15) == 1
        assert coherence_lower_bound(spec)[1] == 1

    def test_sampled_upper_bounds_exact(self):
        # sample sizes of at least |gamma| let the swap search take steps
        for spec, size in ((band_spec(19, 7), 100), (band_spec(23, 8), 200),
                           (band_spec(29, 11), 200)):
            exact = s_max_exact(spec)
            for seed in range(5):
                assert s_max_sampled(spec, size, seed) >= exact

    def test_nested_sample_monotone(self):
        # same seed: the first k samples are a prefix of the first 2k, and
        # the swap search extends the same trajectory
        for spec, small_size, large_size, seed in (
            (band_spec(19, 7), 50, 150, 9),
            (band_spec(61, 15), 250, 1000, 15),
        ):
            small = s_max_sampled(spec, small_size, seed)
            large = s_max_sampled(spec, large_size, seed)
            assert large <= small

    # s_max_sampled(band_spec(n, mbar), 200, seed) for mbar = 1, 2, ... while
    # mbar < (n - 3) / 2; seeds 1 and 2 give the same values
    PINNED_200 = {
        19: [1, 1, 1, 1, 2, 2, 3],
        23: [1, 1, 1, 1, 1, 2, 2, 3, 4],
        29: [1, 1, 1, 1, 1, 1, 1, 2, 2, 3, 4, 5],
        31: [1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 3, 4, 6],
        37: [1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 3, 4, 5, 7],
        41: [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 3, 3, 4, 5, 8],
        53: [1] * 13 + [2, 2, 2, 2, 3, 3, 4, 4, 5, 7, 10],
        61: [1] * 15 + [2, 2, 2, 2, 2, 3, 3, 4, 4, 5, 6, 8, 12],
    }
    # fig7: n = 61, mbar = 7..29, 1000 samples, seed 42 * 10007 + mbar
    PINNED_FIG7 = [1] * 9 + [2, 2, 2, 2, 2, 3, 3, 4, 4, 5, 6, 8, 12, 20]

    def test_pinned_sampled_values(self):
        for n, values in self.PINNED_200.items():
            assert len(values) == math.ceil((n - 3) / 2) - 1
            for seed in (1, 2):
                got = [s_max_sampled(band_spec(n, m), 200, seed)
                       for m in range(1, len(values) + 1)]
                assert got == values, (n, seed)

    def test_pinned_fig7_and_n1009(self):
        got = [s_max_sampled(band_spec(61, m), 1000, 42 * 10007 + m)
               for m in range(7, 30)]
        assert got == self.PINNED_FIG7
        assert s_max_sampled(band_spec(1009, 123), 1000, 1) == 1

    def test_exact_budget(self):
        with pytest.raises(BudgetExceededError):
            s_max_exact(band_spec(61, 15), budget=100)


def reference_table(spec):
    """Every candidate support with its kernel weights, computed in chunks
    of 1000 rows so that block edges differ from the streamed queries'."""
    gammas = np.array(list(itertools.combinations(range(spec.n), spec.gamma_size)))
    weights = np.concatenate(
        [_weights(spec, gammas[lo:lo + 1000]) for lo in range(0, len(gammas), 1000)]
    )
    return gammas, weights


class TestBlockBoundaries:
    # 33 649 candidate supports of 18 indices: 42 blocks of 809 rows
    spec = band_spec(23, 8)

    def test_s_max_exact_is_table_minimum(self):
        _, weights = reference_table(self.spec)
        assert len(weights) == 33649 and _block_rows(self.spec) == 809
        assert s_max_exact(self.spec) == int(_s_max_rows(weights).min())

    def test_verdicts_take_first_argmax(self):
        gammas, weights = reference_table(self.spec)
        rng = random.Random(23)
        seeded = [sorted(rng.sample(range(23), rng.randint(1, 6))) for _ in range(12)]
        # supports holding many candidates whole: their masses are one up to
        # rounding, so equal maxima recur in later blocks
        outs = 0
        for sup in seeded + [list(range(20)), list(range(23))]:
            mask = np.zeros(23)
            mask[sup] = 1.0
            masses = (weights * mask[gammas]).sum(axis=1)
            worst = int(np.argmax(masses))
            v = masc_contains_dft(self.spec, sup)
            assert v.decided
            assert v.in_masc == (masses[worst] < 0.5)
            assert v.margin == 0.5 - float(masses[worst])
            if not v.in_masc:
                outs += 1
                assert v.witness.support.indices == tuple(gammas[worst])
        assert 2 < outs < 14


MEMORY_PROBE = textwrap.dedent("""
    import json
    from masckit.dft import band_spec, s_max_exact

    def status():
        fields = {}
        with open("/proc/self/status") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key in ("VmRSS", "VmHWM"):
                    fields[key] = int(value.split()[0]) / 1024.0
        return fields

    spec = band_spec(29, 11)
    before = status()
    value = s_max_exact(spec)
    after = status()
    print(json.dumps({"value": value, "rss_before": before["VmRSS"],
                      "hwm_after": after["VmHWM"], "rss_after": after["VmRSS"]}))
""")


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="needs /proc/self/status"
)
def test_s_max_exact_memory_is_bounded_and_released():
    # a fresh process, so no earlier test's allocations blur the figures (MB)
    src = os.path.dirname(os.path.dirname(os.path.abspath(masckit.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", MEMORY_PROBE], env=env, check=True,
        capture_output=True, text=True,
    )
    probe = json.loads(out.stdout)
    assert probe["value"] == 4
    assert probe["hwm_after"] - probe["rss_before"] < 30
    assert abs(probe["rss_after"] - probe["rss_before"]) < 10

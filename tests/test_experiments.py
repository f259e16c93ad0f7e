import hashlib
import itertools
import json

import pytest

from masckit.dft import band_spec, masc_contains_dft, symmetrize_omega
from masckit.errors import InputError
from masckit.experiments import (
    _EXPERIMENTS,
    KINDS,
    ExperimentConfig,
    _dft_masc_fraction,
    chorded_cycle_graph,
    run_experiment,
)
from masckit.graphs import girth


# fig4 at the 12-vertex heatmap scale: the --fast preset takes about 35 s
FIG4_SMALL = {"vertices": 12, "graphs": 2, "trials": 3, "sparsities": [1, 2],
              "p_exponents": [0.5, 1.0]}


def make_cfg(tmp_path, kind, params=None, svg=False):
    return ExperimentConfig.from_json(
        json.dumps(
            {
                "kind": kind,
                "parameters": params or {},
                "output_csv": str(tmp_path / "out.csv"),
                "output_svg": str(tmp_path / "out.svg") if svg else None,
            }
        ),
        fast=True,
    )


class TestConfig:
    def test_unknown_kind(self):
        with pytest.raises(InputError):
            ExperimentConfig(kind="fig9")

    def test_one_table_entry_per_kind(self):
        assert tuple(_EXPERIMENTS) == KINDS

    def test_fast_preset_merges(self, tmp_path):
        cfg = make_cfg(tmp_path, "fig3-cycles")
        assert cfg.parameters["trials"] == 100

    def test_user_params_beat_fast(self, tmp_path):
        cfg = make_cfg(tmp_path, "fig3-cycles", {"trials": 7})
        assert cfg.parameters["trials"] == 7

    def test_digest_stable(self, tmp_path):
        a = make_cfg(tmp_path, "fig3-cycles")
        b = make_cfg(tmp_path, "fig3-cycles")
        assert a.digest() == b.digest()

    @pytest.mark.parametrize("kind, params", [
        ("fig7-mrsl-small", {"samples": "x"}),
        ("fig3-cycles", {"bogus": 1}),
        ("fig6-mrsl-large", {"mode": "exact"}),
    ], ids=["misspelt", "bogus", "fig6-mode"])
    def test_unknown_key_rejected(self, tmp_path, kind, params):
        # a key outside the kind's DEFAULTS would otherwise be ignored
        key = next(iter(params))
        with pytest.raises(InputError, match=key):
            make_cfg(tmp_path, kind, params)

    def test_unknown_top_level_key_rejected(self, tmp_path):
        # a misspelt output_csv would otherwise write experiment.csv
        text = json.dumps({"kind": "fig7-mrsl-small",
                           "ouput_csv": str(tmp_path / "mine.csv")})
        with pytest.raises(InputError, match="ouput_csv"):
            ExperimentConfig.from_json(text)

    @pytest.mark.parametrize("field", ["output_csv", "output_svg"])
    def test_non_string_output_rejected(self, field):
        # open() would take an int as a file descriptor
        with pytest.raises(InputError, match=field):
            ExperimentConfig.from_json(json.dumps({"kind": "fig7-mrsl-small", field: 1}))


class TestChordedCycleFamily:
    @pytest.mark.parametrize("length", [3, 5, 9])
    def test_girth_three(self, length):
        g = chorded_cycle_graph(length)
        assert girth(g) == 3
        assert g.edge_count == length + 2


class TestRunExperiment:
    def test_fig3_s1_perfect(self, tmp_path):
        cfg = make_cfg(tmp_path, "fig3-cycles", {"trials": 30})
        run_experiment(cfg)
        lines = (tmp_path / "out.csv").read_text().splitlines()
        header = lines[2].split(",")
        rows = [dict(zip(header, ln.split(","))) for ln in lines[3:]]
        assert all(r["rate"] == "1" for r in rows if r["sparsity"] == "1")
        assert all("seed" in r for r in rows)

    def test_byte_deterministic(self, tmp_path):
        cfg = make_cfg(tmp_path, "fig5-dft-recovery", {"trials": 20})
        run_experiment(cfg)
        first = (tmp_path / "out.csv").read_bytes()
        run_experiment(cfg)
        assert (tmp_path / "out.csv").read_bytes() == first

    # sha256 of the CSV and SVG each kind writes at its --fast preset (fig4 at
    # FIG4_SMALL), so a swapped or reformatted column fails, not only a
    # run-to-run difference
    PINNED = {
        "fig3-cycles": (
            "d83b95df6795a1e17dea819dbe9d8d8b6fcf7f7b8c332ad3d2fa434f1a1ca597",
            "df6fa952b114eae833ed50b162102eeb9228d35b9156ccc43aec391e009ee243"),
        "fig4-erdos-renyi": (
            "29f03796123d7f8be51ef9cbc3bc36f9ccb69aec593782e067f3029d76393be8",
            "199ffca394c96838a03e18e80969277379694db9a35e7f055758d4e496c7b6f3"),
        "fig5-dft-recovery": (
            "66bfbb335cf62d986e6526fb4fc2f04f3778965ff825f264325047c98d5ec783",
            "3884620f87264a0d256a26c650eb38a05192d548536b00e9bdab73b0e9613a92"),
        "fig6-mrsl-large": (
            "fd93ccb7c49286ae8df57ec87bea09a0f532a7dd4d4252aa70fcf04c2996408a",
            "d058317056bf270dbee2810675ce5e1304132161fb1a21350840a73936972339"),
        "fig7-mrsl-small": (
            "18c0729d009d1fc93e55e69bc2530558a24175ff687957568edca1c14258ba73",
            "7d4962b3cc59523869deb391859a443acf69a1d1fc18e6d1c215648102ee759e"),
    }

    @pytest.mark.parametrize("kind", PINNED)
    def test_pinned_bytes(self, tmp_path, kind):
        params = FIG4_SMALL if kind == "fig4-erdos-renyi" else {}
        run_experiment(make_cfg(tmp_path, kind, params, svg=True))
        for ext, sha in zip(("csv", "svg"), self.PINNED[kind]):
            data = (tmp_path / f"out.{ext}").read_bytes()
            assert hashlib.sha256(data).hexdigest() == sha, ext

    def test_fig7_ordering(self, tmp_path):
        cfg = make_cfg(
            tmp_path,
            "fig7-mrsl-small",
            {"mbar_values": [7, 15], "sample_size": 50, "naive_k": 10},
        )
        run_experiment(cfg)
        lines = (tmp_path / "out.csv").read_text().splitlines()
        header = lines[2].split(",")
        for ln in lines[3:]:
            row = dict(zip(header, ln.split(",")))
            assert (
                int(row["s_guaranteed"])
                <= int(row["s_max_sampled"])
                <= int(row["mrsl_naive"])
            )

    def test_custom_requires_matrix(self, tmp_path):
        cfg = make_cfg(tmp_path, "custom")
        with pytest.raises(InputError):
            run_experiment(cfg)


class TestDftMascFraction:
    @pytest.mark.parametrize("spec, sizes", [
        (band_spec(13, 4), range(1, 6)),
        (symmetrize_omega(11, [0, 2, 4, 7, 9]), range(1, 4)),
    ], ids=["band13", "nonband11"])
    def test_matches_membership_check(self, spec, sizes):
        # band(13, 4) at s = 5 holds supports whose worst mass lies within
        # the tie band of one half: both count them as not recoverable
        for s in sizes:
            supports = list(itertools.combinations(range(spec.n), s))
            inside = sum(masc_contains_dft(spec, sup).in_masc for sup in supports)
            assert _dft_masc_fraction(spec, s) == inside / len(supports)


class TestEmitPlot:
    def _run(self, tmp_path, kind, params):
        cfg = make_cfg(tmp_path, kind, params, svg=True)
        run_experiment(cfg)
        csv = (tmp_path / "out.csv").read_text().splitlines()
        return csv, (tmp_path / "out.svg").read_text()

    def test_line_plot_polylines(self, tmp_path):
        # fig5 plots rate and masc_fraction against sparsity
        _, svg = self._run(tmp_path, "fig5-dft-recovery",
                           {"trials": 5, "sparsities": [1, 2, 3]})
        assert svg.count("<polyline") == 2

    def test_heatmap_rects(self, tmp_path):
        csv, svg = self._run(tmp_path, "fig4-erdos-renyi", FIG4_SMALL)
        header = csv[2].split(",")
        rows = [dict(zip(header, ln.split(","))) for ln in csv[3:]]
        cells = {(r["p_exponent"], r["sparsity"]) for r in rows}
        assert len(cells) == 4
        # one cell rect per (p_exponent, sparsity) pair plus the white background
        assert svg.count("<rect") == len(cells) + 1

    def test_empty_csv_no_file(self, tmp_path):
        cfg = make_cfg(tmp_path, "fig3-cycles", {"cycle_lengths": []}, svg=True)
        with pytest.raises(InputError):
            run_experiment(cfg)
        # the CSV holds its header only, and no SVG is written
        assert len((tmp_path / "out.csv").read_text().splitlines()) == 3
        assert not (tmp_path / "out.svg").exists()

    def test_deterministic_bytes(self, tmp_path):
        params = {"trials": 5, "sparsities": [1, 2]}
        _, first = self._run(tmp_path, "fig5-dft-recovery", params)
        _, again = self._run(tmp_path, "fig5-dft-recovery", params)
        assert again == first

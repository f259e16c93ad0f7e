import argparse
import json
import re
from pathlib import Path

import pytest

import masckit.cli
from masckit.cli import build_parser, main
from masckit.errors import NumericalBoundaryError, SolverError
from masckit.masc import MembershipVerdict

CHAIN_GRAPH = "6 7\n0 1\n1 2\n0 2\n2 3\n3 4\n4 5\n5 1\n"
TRIANGLE = "3 3\n-1 0 1\n1 -1 0\n0 1 -1\n"
README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture
def graph_file(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text(CHAIN_GRAPH)
    return str(p)


@pytest.fixture
def matrix_file(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text(TRIANGLE)
    return str(p)


class TestRecoverRate:
    def test_recover(self, matrix_file, tmp_path, capsys):
        sig = tmp_path / "x.txt"
        sig.write_text("3 1\n4/5\n0\n0\n")
        assert main(["recover", "--matrix", matrix_file, "--signal", str(sig)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["recovered"]
        assert out["x_hat"] == pytest.approx([0.8, 0.0, 0.0], abs=1e-9)

    def test_recover_tie_is_not_recovered(self, tmp_path, capsys):
        # K5 (edges low to high), x = 0.6 e_(0,4) + 0.8 e_(1,3): the 4-cycle
        # 0-4-1-3 gives a second minimizer of equal l1 norm
        edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        rows = [[(v == j) - (v == i) for i, j in edges] for v in range(5)]
        m = tmp_path / "k5.txt"
        m.write_text("5 10\n" + "\n".join(" ".join(map(str, r)) for r in rows) + "\n")
        x = [0] * 10
        x[edges.index((0, 4))], x[edges.index((1, 3))] = "3/5", "4/5"
        sig = tmp_path / "x.txt"
        sig.write_text("10 1\n" + "\n".join(map(str, x)) + "\n")
        assert main(["recover", "--matrix", str(m), "--signal", str(sig)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["recovered"] is False
        assert set(out) == {"recovered", "x_hat"}

    @pytest.mark.parametrize("cmd", ["recover", "rate"])
    def test_solver_error_exits_4(self, monkeypatch, matrix_file, tmp_path, cmd, capsys):
        def fail(*args, **kwargs):
            raise SolverError("simplex iteration limit reached")

        monkeypatch.setattr(masckit.cli, "basis_pursuit", fail)
        monkeypatch.setattr(masckit.cli, "recovery_rate", fail)
        sig = tmp_path / "x.txt"
        sig.write_text("3 1\n4/5\n0\n0\n")
        args = {
            "recover": ["recover", "--matrix", matrix_file, "--signal", str(sig)],
            "rate": ["rate", "--matrix", matrix_file, "--sparsity", "1", "--trials", "2"],
        }[cmd]
        assert main(args) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: simplex iteration limit reached\n"

    def test_rate_csv_row(self, matrix_file, capsys):
        code = main(
            ["rate", "--matrix", matrix_file, "--sparsity", "1",
             "--trials", "20", "--seed", "3"]
        )
        assert code == 0
        s, trials, successes, rate = capsys.readouterr().out.strip().split(",")
        assert (s, trials, successes, rate) == ("1", "20", "20", "1")

    def test_missing_file_usage_error(self, capsys):
        assert main(["rate", "--matrix", "/nonexistent", "--sparsity", "1",
                     "--trials", "1"]) == 2


class TestGraphCommands:
    def test_girth(self, graph_file, capsys):
        assert main(["graph", "girth", graph_file]) == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_cycles(self, graph_file, capsys):
        assert main(["graph", "cycles", graph_file]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "0 1 2"
        assert len(lines) == 3

    def test_masc_check_in(self, graph_file, capsys):
        assert main(["graph", "masc-check", graph_file, "--support", "0,4"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "in"

    def test_masc_check_out(self, graph_file, capsys):
        assert main(["graph", "masc-check", graph_file, "--support", "0,1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "out" and out["witness_support"] == [0, 1, 2]

    def test_cycle_cap_budget_exit(self, graph_file, capsys):
        assert main(["graph", "cycles", graph_file, "--cap", "1"]) == 3
        assert "raise the cap" in capsys.readouterr().err

    def test_masc_check_cap_budget_exit(self, tmp_path, capsys):
        # K6 has far more than 5 simple cycles and a single edge is inside
        edges = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        g = tmp_path / "k6.txt"
        g.write_text(f"6 {len(edges)}\n" + "".join(f"{i} {j}\n" for i, j in edges))
        assert main(["graph", "masc-check", str(g), "--support", "0",
                     "--cap", "5"]) == 3
        assert "raise the cap" in capsys.readouterr().err

    def test_masc_check_cap_bounds_in_verdicts_only(self, tmp_path, capsys):
        # K7: {0, 1} is out on a triangle among its 140 cycles of at most 4
        # edges; {0} is in only after all 1172 cycles, past the cap
        edges = [(i, j) for i in range(7) for j in range(i + 1, 7)]
        g = tmp_path / "k7.txt"
        g.write_text(f"7 {len(edges)}\n" + "".join(f"{i} {j}\n" for i, j in edges))
        assert main(["graph", "masc-check", str(g), "--support", "0,1",
                     "--cap", "200"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "out" and out["witness_support"] == [0, 1, 6]
        assert main(["graph", "masc-check", str(g), "--support", "0",
                     "--cap", "200"]) == 3
        assert "raise the cap" in capsys.readouterr().err

    def test_girth_takes_no_cap(self, graph_file, capsys):
        assert main(["graph", "girth", graph_file, "--cap", "1"]) == 2

    def test_er_deterministic(self, capsys):
        assert main(["graph", "er", "--vertices", "10", "--p", "0.5",
                     "--seed", "7"]) == 0
        first = capsys.readouterr().out
        main(["graph", "er", "--vertices", "10", "--p", "0.5", "--seed", "7"])
        assert capsys.readouterr().out == first


class TestDftCommands:
    def test_bound(self, capsys):
        assert main(["dft", "bound", "--n", "19", "--mbar", "7"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["bound"] == 2.375 and out["s_guaranteed"] == 2

    def test_masc_check(self, capsys):
        assert main(["dft", "masc-check", "--n", "11", "--omega", "0,2,4,7,9",
                     "--support", "0,5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "out" and len(out["worst_gamma"]) == 6

    def test_masc_check_n1009_sampled_out(self, capsys):
        # the worst sampled candidate support holds 0.61 of its weight on the
        # pair, so the verdict is "out" with a witness on all 248 entries
        assert main(["dft", "masc-check", "--n", "1009", "--mbar", "123",
                     "--support", "194,195", "--sampled", "--samples", "1000",
                     "--seed", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "out" and out["decided"]
        assert len(out["witness_support"]) == 248

    def test_mrsl_exact(self, capsys):
        assert main(["dft", "mrsl", "--n", "19", "--mbar", "7", "--exact"]) == 0
        assert json.loads(capsys.readouterr().out)["s_max"] == 3

    def test_mrsl_sampled(self, capsys):
        assert main(["dft", "mrsl", "--n", "19", "--mbar", "7",
                     "--samples", "100", "--seed", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["mode"] == "sampled"

    # mbar = 3 measures all seven rows, which once skipped the check
    @pytest.mark.parametrize("mbar", ["2", "3"])
    def test_mrsl_zero_samples_usage_exit(self, mbar, capsys):
        assert main(["dft", "mrsl", "--n", "7", "--mbar", mbar,
                     "--samples", "0", "--seed", "1"]) == 2
        assert "sample_size must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("mbar", ["2", "3"])
    def test_masc_check_zero_samples_usage_exit(self, mbar, capsys):
        assert main(["dft", "masc-check", "--n", "7", "--mbar", mbar,
                     "--support", "1", "--sampled", "--samples", "0"]) == 2
        assert "sample_size must be >= 1" in capsys.readouterr().err

    def test_exact_over_budget_exit(self, capsys):
        assert main(["dft", "mrsl", "--n", "61", "--mbar", "15", "--exact",
                     "--budget", "100"]) == 3

    @pytest.mark.parametrize("argv, flag", [
        ("masc-check --n 19 --mbar 7 --support 0 --samples 5 --seed -4", "--samples"),
        ("masc-check --n 19 --mbar 7 --support 0 --seed 3", "--seed"),
        ("masc-check --n 19 --mbar 7 --support 0 --sampled --budget 3", "--budget"),
        ("mrsl --n 19 --mbar 7 --exact --seed -1", "--seed"),
        ("mrsl --n 19 --mbar 7 --exact --samples 10", "--samples"),
        ("mrsl --n 19 --mbar 7 --budget 3", "--budget"),
        # this one exited 3 with "use sampled mode"
        ("masc-check --n 61 --mbar 15 --support 0 --samples 50", "--samples"),
    ])
    def test_flag_of_other_mode_usage_exit(self, argv, flag, capsys):
        # each of these once ran, ignoring the flag
        assert main(["dft", *argv.split()]) == 2
        assert capsys.readouterr().err.startswith("error: " + flag)

    def test_nonprime_usage_exit(self, capsys):
        assert main(["dft", "bound", "--n", "9", "--mbar", "2"]) == 2

    @pytest.mark.parametrize("option", ["--seed", "--budget", "--samples"])
    def test_bound_takes_no_search_options(self, option, capsys):
        assert main(["dft", "bound", "--n", "19", "--mbar", "7", option, "3"]) == 2

    @pytest.mark.parametrize("cmd", ["bound", "mrsl", "masc-check"])
    @pytest.mark.parametrize("given", [
        ["--mbar", "7", "--omega", "0,1,18"],
        [],
    ], ids=["both", "neither"])
    def test_omega_xor_mbar_usage_exit(self, cmd, given, capsys):
        # --omega once overrode --mbar without a word
        support = ["--support", "0"] if cmd == "masc-check" else []
        assert main(["dft", cmd, "--n", "19", *given, *support]) == 2
        err = capsys.readouterr().err
        assert "--omega" in err and "--mbar" in err


class TestBoundaryExit:
    """Exit 4: a boundary verdict under --strict, or an error with no verdict."""

    ARGS = ["dft", "masc-check", "--n", "11", "--omega", "0,2,4,7,9", "--support", "0,5"]

    def _patch(self, monkeypatch, fake):
        monkeypatch.setattr(masckit.cli, "masc_contains_dft", lambda *a, **k: fake())

    @pytest.mark.parametrize("strict", [[], ["--strict"]], ids=["lenient", "strict"])
    def test_error_without_verdict_exits_4(self, monkeypatch, strict, capsys):
        def fail():
            raise NumericalBoundaryError("restricted nullspace not one-dimensional")

        self._patch(monkeypatch, fail)
        assert main([*strict, *self.ARGS]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and "not one-dimensional" in captured.err

    @pytest.mark.parametrize("strict, code", [([], 0), (["--strict"], 4)],
                             ids=["lenient", "strict"])
    def test_boundary_verdict_is_printed(self, monkeypatch, strict, code, capsys):
        self._patch(monkeypatch, lambda: MembershipVerdict(False, False, -1e-12))
        assert main([*strict, *self.ARGS]) == code
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "boundary" and not out["decided"]


class TestUsage:
    def test_no_args(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_bad_support_list(self, graph_file, capsys):
        assert main(["graph", "masc-check", graph_file, "--support", "a,b"]) == 2


class TestBadInputFiles:
    """Malformed or unsupported input files are usage errors (exit 2)."""

    def _write(self, tmp_path, name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    def test_complex_matrix_rate(self, tmp_path, capsys):
        m = self._write(tmp_path, "c.txt", "1 2\n1+0i 1\n")
        assert main(["rate", "--matrix", m, "--sparsity", "1", "--trials", "2"]) == 2
        assert "complex" in capsys.readouterr().err

    def test_complex_matrix_recover(self, tmp_path, capsys):
        m = self._write(tmp_path, "c.txt", "1 2\n1+0i 1\n")
        x = self._write(tmp_path, "x.txt", "2 1\n1\n0\n")
        assert main(["recover", "--matrix", m, "--signal", x]) == 2

    def test_bad_matrix_token(self, tmp_path, capsys):
        m = self._write(tmp_path, "m.txt", "1 2\n1 x\n")
        assert main(["rate", "--matrix", m, "--sparsity", "1", "--trials", "2"]) == 2

    def test_bad_graph_line(self, tmp_path, capsys):
        g = self._write(tmp_path, "g.txt", "3 1\n0 1 2\n")
        assert main(["graph", "girth", g]) == 2

    def test_negative_vertex_count_graph_file(self, tmp_path, capsys):
        g = self._write(tmp_path, "g.txt", "-2 0\n")
        assert main(["graph", "girth", g]) == 2
        assert "vertex count" in capsys.readouterr().err

    def test_negative_vertex_count_er(self, capsys):
        assert main(["graph", "er", "--vertices", "-3", "--p", "0.5",
                     "--seed", "1"]) == 2
        assert capsys.readouterr().out == ""

    def test_negative_seed_er(self, capsys):
        assert main(["graph", "er", "--vertices", "5", "--p", "0.5",
                     "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err

    def test_negative_seed_rate(self, matrix_file, capsys):
        assert main(["rate", "--matrix", matrix_file, "--sparsity", "1",
                     "--trials", "2", "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err

    # the Gamma sampler would draw as for |seed|
    @pytest.mark.parametrize("args", [
        ["mrsl"],
        ["masc-check", "--support", "1,2", "--sampled"],
    ], ids=["mrsl", "masc-check"])
    def test_negative_seed_dft(self, args, capsys):
        assert main(["dft", *args, "--n", "19", "--mbar", "7", "--samples", "50",
                     "--seed", "-3"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "seed" in out.err

    # fig3 reaches TrialConfig, fig4 erdos_renyi, fig6 the Gamma sampler,
    # fig7 mrsl_naive
    @pytest.mark.parametrize("kind, params", [
        ("fig3-cycles", {"cycle_lengths": [3], "trials": 2}),
        ("fig4-erdos-renyi", {"vertices": 5, "graphs": 1, "trials": 2}),
        ("fig6-mrsl-large", {"omega_sizes": [247], "sample_size": 5}),
        ("fig7-mrsl-small", {"mbar_values": [7], "sample_size": 5, "naive_k": 1}),
    ], ids=["fig3", "fig4", "fig6", "fig7"])
    def test_negative_seed_experiment(self, kind, params, tmp_path, capsys):
        cfg = self._write(tmp_path, "cfg.json", json.dumps({
            "kind": kind,
            "parameters": {**params, "seed": -1},
            "output_csv": str(tmp_path / "out.csv"),
        }))
        assert main(["experiment", "--config", cfg]) == 2
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_complex_matrix_custom_experiment(self, tmp_path, capsys):
        m = self._write(tmp_path, "c.txt", "1 2\n1+0i 1\n")
        cfg = self._write(tmp_path, "cfg.json", json.dumps({
            "kind": "custom",
            "parameters": {"matrix_file": m, "sparsities": [1], "trials": 2},
            "output_csv": str(tmp_path / "out.csv"),
        }))
        assert main(["experiment", "--config", cfg]) == 2


class TestExperimentCommand:
    def test_custom_experiment(self, matrix_file, tmp_path, capsys):
        csv = tmp_path / "out.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "kind": "custom",
            "parameters": {"matrix_file": matrix_file, "sparsities": [1],
                           "trials": 10},
            "output_csv": str(csv),
        }))
        assert main(["experiment", "--config", str(cfg)]) == 0
        lines = csv.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[2] == "sparsity,trials,seed,rate"

    def test_bad_config_usage(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["experiment", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("config", [
        {"parameters": {}},
        ["custom"],
        {"kind": "custom", "parameters": [1]},
    ], ids=["no-kind", "not-an-object", "parameters-not-an-object"])
    def test_malformed_config_usage(self, config, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["experiment", "--config", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_key_usage(self, matrix_file, tmp_path, capsys):
        # a misspelt matrix_file is named, not ignored
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "kind": "custom",
            "parameters": {"matrix_fle": matrix_file},
            "output_csv": str(tmp_path / "out.csv"),
        }))
        assert main(["experiment", "--config", str(cfg)]) == 2
        assert "matrix_fle" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_unknown_top_level_key_usage(self, tmp_path, monkeypatch, capsys):
        # a misspelt output_csv once wrote experiment.csv and exited 0
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "kind": "fig7-mrsl-small",
            "parameters": {"mbar_values": [7], "sample_size": 5, "naive_k": 1},
            "ouput_csv": "mine.csv",
        }))
        assert main(["experiment", "--config", str(cfg)]) == 2
        assert "ouput_csv" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]


def readme_cli_lines(text: str) -> list[str]:
    """The `masckit ...` lines of the README's `## CLI` code block."""
    section = text.split("\n## CLI\n", 1)[1]
    block = section.split("```", 2)[1]
    return [ln.split("#", 1)[0] for ln in block.splitlines() if ln.startswith("masckit ")]


def options_of(parser: argparse.ArgumentParser) -> set[str]:
    return {o for action in parser._actions for o in action.option_strings}


def subparser(parser: argparse.ArgumentParser, name: str):
    """The parser of subcommand `name`, or None when parser takes none."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices[name]
    return None


def test_readme_cli_flags_match_parser():
    # every flag the README shows on a `masckit <cmd> [<sub>]` line is an
    # option of that (sub)parser; a flag the parser lost fails here
    lines = readme_cli_lines(README.read_text(encoding="utf-8"))
    assert lines
    unknown = []
    for line in lines:
        words = line.split()[1:]
        cmd = subparser(build_parser(), words[0])
        parser = subparser(cmd, words[1]) or cmd
        unknown += [f"{line.strip()}: {flag}" for flag in re.findall(r"--[\w-]+", line)
                    if flag not in options_of(parser)]
    assert unknown == []

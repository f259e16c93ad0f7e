"""Command-line front end.

Exit codes: 0 success, 2 usage error, 3 scale or budget exceeded, 4 numerical
boundary: a boundary verdict under --strict, or an error that left no verdict
(a float nullspace that is not a line, or an LP solver failure).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .dft import (
    DEFAULT_GAMMA_BUDGET,
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
    NumericalBoundaryError,
    SolverError,
)
from .experiments import ExperimentConfig, run_experiment
from .graphs import (
    DEFAULT_CYCLE_CAP,
    enumerate_simple_cycles,
    erdos_renyi,
    format_graph_text,
    girth,
    masc_contains_graph,
    parse_graph_text,
)
from .linalg import parse_matrix_text
from .masc import MembershipVerdict, SupportSet
from .recovery import (
    RecoveryProblem,
    TrialConfig,
    basis_pursuit,
    recovery_rate,
    recovery_trial,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_BOUNDARY = 4

DEFAULT_SAMPLES = 1000


def _indices(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",") if t.strip() != ""]
    except ValueError as exc:
        raise InputError(f"bad index list {text!r}") from exc


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _load_float_matrix(path: str) -> np.ndarray:
    return parse_matrix_text(_read(path)).to_float_array()


def _verdict_payload(v: MembershipVerdict, worst_gamma=None) -> dict:
    payload = {
        "verdict": (
            "in" if v.decided and v.in_masc
            else "out" if v.decided
            else "boundary" if not v.in_masc
            else "probably-in"
        ),
        "decided": v.decided,
        "margin": float(v.margin),
    }
    if worst_gamma is not None:
        payload["worst_gamma"] = list(worst_gamma)
    if v.witness is not None:
        payload["witness_support"] = list(v.witness.support.indices)
    return payload


def _emit_verdict(v: MembershipVerdict, strict: bool, worst_gamma=None) -> int:
    print(json.dumps(_verdict_payload(v, worst_gamma)))
    if strict and not v.decided:
        return EXIT_BOUNDARY
    return EXIT_OK


def _cmd_recover(args) -> int:
    a = _load_float_matrix(args.matrix)
    x_true = _load_float_matrix(args.signal).ravel()
    if x_true.shape[0] != a.shape[1]:
        raise InputError("signal length must match matrix columns")
    x_hat = basis_pursuit(RecoveryProblem(a, a @ x_true))
    print(
        json.dumps(
            {
                "recovered": recovery_trial(a, x_true),
                "x_hat": [float(v) for v in x_hat],
            }
        )
    )
    return EXIT_OK


def _cmd_rate(args) -> int:
    a = _load_float_matrix(args.matrix)
    cfg = TrialConfig(sparsity=args.sparsity, trials=args.trials, seed=args.seed)
    rate = recovery_rate(a, cfg)
    successes = round(rate * args.trials)
    print(f"{args.sparsity},{args.trials},{successes},{rate:.10g}")
    return EXIT_OK


def _cmd_graph(args) -> int:
    if args.graph_cmd == "er":
        g = erdos_renyi(args.vertices, args.p, args.seed)
        sys.stdout.write(format_graph_text(g))
        return EXIT_OK
    g = parse_graph_text(_read(args.file))
    if args.graph_cmd == "girth":
        val = girth(g)
        print("inf" if val == float("inf") else int(val))
        return EXIT_OK
    if args.graph_cmd == "cycles":
        for point in enumerate_simple_cycles(g, cap=args.cap):
            print(" ".join(str(i) for i in point.support.indices))
        return EXIT_OK
    if args.graph_cmd == "masc-check":
        s = SupportSet.of(g.edge_count, _indices(args.support))
        v = masc_contains_graph(g, s, cap=args.cap)
        return _emit_verdict(v, args.strict)
    raise InputError("unknown graph subcommand")


def _dft_spec(args):
    if args.omega is not None:
        return symmetrize_omega(args.n, _indices(args.omega))
    return band_spec(args.n, args.mbar)


def _gamma_options(args, sampled: bool) -> dict:
    """The Gamma search options of the chosen mode: --budget bounds an
    exhaustive search, --samples and --seed drive a sampled one. A flag of
    the other mode is a usage error rather than silently ignored."""
    if sampled:
        if args.budget is not None:
            raise InputError("--budget applies to an exhaustive search only")
        return {
            "sample_size": DEFAULT_SAMPLES if args.samples is None else args.samples,
            "seed": 0 if args.seed is None else args.seed,
        }
    for name in ("samples", "seed"):
        if getattr(args, name) is not None:
            raise InputError(f"--{name} applies to a sampled search only")
    return {"budget": DEFAULT_GAMMA_BUDGET if args.budget is None else args.budget}


def _cmd_dft(args) -> int:
    if args.dft_cmd == "bound":
        spec = _dft_spec(args)
        bound, s_guar = coherence_lower_bound(spec)
        print(
            json.dumps(
                {
                    "n": spec.n,
                    "omega_size": spec.m,
                    "bound": float(bound),
                    "s_guaranteed": s_guar,
                }
            )
        )
        return EXIT_OK
    if args.dft_cmd == "mrsl":
        spec = _dft_spec(args)
        options = _gamma_options(args, sampled=not args.exact)
        value = (s_max_exact if args.exact else s_max_sampled)(spec, **options)
        mode = "exact" if args.exact else "sampled"
        print(
            json.dumps(
                {"n": spec.n, "omega_size": spec.m, "mode": mode, "s_max": value}
            )
        )
        return EXIT_OK
    if args.dft_cmd == "masc-check":
        spec = _dft_spec(args)
        s = SupportSet.of(spec.n, _indices(args.support))
        options = _gamma_options(args, sampled=args.sampled)
        v = masc_contains_dft(spec, s, sampled=args.sampled, **options)
        gamma = v.witness.support.indices if v.witness is not None else None
        return _emit_verdict(v, args.strict, worst_gamma=gamma)
    raise InputError("unknown dft subcommand")


def _cmd_experiment(args) -> int:
    cfg = ExperimentConfig.from_json(_read(args.config), fast=args.fast)
    if args.svg and cfg.output_svg is None:
        from dataclasses import replace

        cfg = replace(cfg, output_svg=cfg.output_csv.rsplit(".", 1)[0] + ".svg")
    summary = run_experiment(cfg)
    print(json.dumps(summary))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="masckit",
        description="certify which sparse supports l1-minimization always recovers",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 4 when a verdict lands on a numerical boundary",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("recover", help="run basis pursuit on a known signal")
    p.add_argument("--matrix", required=True)
    p.add_argument("--signal", required=True)
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("rate", help="Monte-Carlo recovery rate")
    p.add_argument("--matrix", required=True)
    p.add_argument("--sparsity", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_rate)

    p = sub.add_parser("graph", help="incidence-matrix fast path")
    gsub = p.add_subparsers(dest="graph_cmd", required=True)
    for name in ("girth", "cycles", "masc-check"):
        gp = gsub.add_parser(name)
        gp.add_argument("file")
        if name != "girth":
            gp.add_argument("--cap", type=int, default=DEFAULT_CYCLE_CAP)
        if name == "masc-check":
            gp.add_argument("--support", required=True)
    gp = gsub.add_parser("er")
    gp.add_argument("--vertices", type=int, required=True)
    gp.add_argument("--p", type=float, required=True)
    gp.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("dft", help="partial-DFT fast path (prime dimension)")
    dsub = p.add_subparsers(dest="dft_cmd", required=True)
    for name in ("masc-check", "mrsl", "bound"):
        dp = dsub.add_parser(name)
        dp.add_argument("--n", type=int, required=True)
        which = dp.add_mutually_exclusive_group(required=True)
        which.add_argument("--omega")
        which.add_argument("--mbar", type=int)
        if name != "bound":
            # None marks a flag left out; _gamma_options fills in the default
            dp.add_argument("--budget", type=int)
            dp.add_argument("--samples", type=int)
            dp.add_argument("--seed", type=int)
        if name == "masc-check":
            dp.add_argument("--support", required=True)
            dp.add_argument("--sampled", action="store_true")
        if name == "mrsl":
            dp.add_argument("--exact", action="store_true")
    p.set_defaults(func=_cmd_dft)

    p = sub.add_parser("experiment", help="run a configured experiment sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--fast", action="store_true")
    p.add_argument("--svg", action="store_true")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (NumericalBoundaryError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUNDARY
    except (InputError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

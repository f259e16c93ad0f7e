"""Experiment harness: seeded, reproducible sweeps emitting CSV and SVG.

Each experiment kind reproduces one of the qualitative studies at desk
scale: recovery rates over chorded-cycle graph families and Erdos-Renyi
graphs, partial-DFT recovery versus the certified support fraction, and
sampled maximum-recoverable-sparsity-level (MRSL) sweeps with the coherence
bound and the naive sampling estimate.

Outputs are byte-deterministic given the config: all randomness is seeded,
every CSV row carries the seed that produced it, and a provenance header
(config hash) is written as `#` comment lines.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, fields
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .dft import _weight_blocks, band_spec, coherence_lower_bound, s_max_sampled
from .errors import InputError
from .graphs import DirectedSimpleGraph, erdos_renyi, incidence_matrix
from .linalg import parse_matrix_text
from .masc import MembershipVerdict
from .recovery import TrialConfig, mrsl_naive, realify, recovery_rate

__all__ = ["ExperimentConfig", "run_experiment"]

DEFAULTS = {
    "fig3-cycles": {
        "cycle_lengths": [3, 5, 7, 9, 11],
        "sparsities": [1, 2, 3],
        "trials": 2000,
        "seed": 0,
    },
    "fig4-erdos-renyi": {
        "vertices": 100,
        "p_exponents": [k / 9 for k in range(1, 11)],
        "sparsities": [1, 2],
        "graphs": 20,
        "trials": 100,
        "seed": 0,
    },
    "fig5-dft-recovery": {
        "n": 19,
        "mbar": 7,
        "sparsities": [1, 2, 3, 4, 5, 6],
        "trials": 1000,
        "seed": 0,
    },
    "fig6-mrsl-large": {
        "n": 1009,
        "omega_sizes": [247 + 20 * j for j in range(14)],
        "sample_size": 1000,
        "seed": 42,
    },
    "fig7-mrsl-small": {
        "n": 61,
        "mbar_values": list(range(7, 30)),
        "sample_size": 1000,
        "naive_k": 200,
        "seed": 42,
    },
    "custom": {
        "matrix_file": None,
        "sparsities": [1],
        "trials": 100,
        "seed": 0,
    },
}

FAST_OVERRIDES = {
    "fig3-cycles": {"cycle_lengths": [3, 5], "trials": 100},
    "fig4-erdos-renyi": {
        "graphs": 5,
        "trials": 20,
        "p_exponents": [1 / 9, 5 / 9, 1.0],
    },
    "fig5-dft-recovery": {"trials": 100, "sparsities": [1, 2, 3, 4]},
    "fig6-mrsl-large": {"omega_sizes": [247, 507], "sample_size": 50},
    "fig7-mrsl-small": {
        "mbar_values": [7, 15, 29],
        "sample_size": 100,
        "naive_k": 20,
    },
    "custom": {"trials": 20},
}

KINDS = tuple(DEFAULTS)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run: a kind, its parameter map, and output paths.

    The parameters are the kind's DEFAULTS updated by the given keys, each of
    which must be a key of DEFAULTS.
    """

    kind: str
    parameters: dict = field(default_factory=dict)
    output_csv: str = "experiment.csv"
    output_svg: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"unknown experiment kind {self.kind!r}")
        if not isinstance(self.parameters, dict):
            raise InputError("experiment parameters must be a JSON object")
        unknown = [str(k) for k in self.parameters if k not in DEFAULTS[self.kind]]
        if unknown:
            raise InputError(f"unknown {self.kind} parameters: {', '.join(unknown)}")
        # an int path would reach open() as a file descriptor
        if not isinstance(self.output_csv, str):
            raise InputError("output_csv must be a string")
        if not isinstance(self.output_svg, (str, type(None))):
            raise InputError("output_svg must be a string or null")
        merged = {**DEFAULTS[self.kind], **self.parameters}
        object.__setattr__(self, "parameters", merged)

    @classmethod
    def from_json(cls, text: str, fast: bool = False) -> "ExperimentConfig":
        d = json.loads(text)
        if not isinstance(d, dict) or "kind" not in d:
            raise InputError('experiment config must be a JSON object with a "kind"')
        # the top-level keys are this class's fields
        unknown = [k for k in d if k not in {f.name for f in fields(cls)}]
        if unknown:
            raise InputError(f"unknown experiment config keys: {', '.join(unknown)}")
        params = d.get("parameters", {})
        if fast and d["kind"] in KINDS and isinstance(params, dict):
            # the user's keys win over the fast preset, which wins over DEFAULTS
            params = {**FAST_OVERRIDES[d["kind"]], **params}
        return cls(**{**d, "parameters": params})

    def digest(self) -> str:
        payload = json.dumps(
            {"kind": self.kind, "parameters": self.parameters}, sort_keys=True
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def chorded_cycle_graph(length: int) -> DirectedSimpleGraph:
    """Cycle on length+1 vertices plus the chord (0, 2): girth 3 for every
    length >= 3, with length+2 edges."""
    if length < 3:
        raise InputError("cycle length must be >= 3")
    verts = length + 1
    edges = [(i, (i + 1) % verts) for i in range(verts)]
    edges.append((0, 2))
    return DirectedSimpleGraph(verts, tuple(edges))


def _rate_sweep(a, p, base_seed):
    """The `_RATE` cells of each sparsity s, its trials seeded base_seed + s."""
    for s in p["sparsities"]:
        seed = base_seed + s
        yield s, p["trials"], seed, recovery_rate(a, TrialConfig(s, p["trials"], seed))


def _run_fig3(p):
    for li, length in enumerate(p["cycle_lengths"]):
        g = chorded_cycle_graph(length)
        a = incidence_matrix(g).to_float_array()
        for cells in _rate_sweep(a, p, p["seed"] * 10007 + li * 101):
            yield length, g.edge_count, *cells


def _run_fig4(p):
    p_crit = math.log(p["vertices"]) / p["vertices"]
    for e_i, expo in enumerate(p["p_exponents"]):
        prob = p_crit**expo
        for gi in range(p["graphs"]):
            g_seed = p["seed"] * 100003 + e_i * 1009 + gi
            g = erdos_renyi(p["vertices"], prob, g_seed)
            if g.edge_count == 0:
                continue
            a = incidence_matrix(g).to_float_array()
            for s in p["sparsities"]:
                if s > g.edge_count:
                    continue
                t_seed = g_seed * 31 + s
                rate = recovery_rate(a, TrialConfig(s, p["trials"], t_seed))
                yield (expo, prob, g_seed, g.edge_count, s, p["trials"], t_seed,
                       round(rate * p["trials"]), rate)


def _dft_masc_fraction(spec, s: int) -> float:
    """Exact fraction of size-s supports certified always-recoverable, each
    decided by the verdict rule that `masc_contains_dft` applies."""
    # the whole table for this call only, built block by block
    blocks = _weight_blocks(spec, combinations(range(spec.n), spec.gamma_size))
    gammas, weights = (np.concatenate(parts) for parts in zip(*blocks))
    hits = 0
    for sup in combinations(range(spec.n), s):
        mask = np.zeros(spec.n)
        mask[list(sup)] = 1.0
        worst = float((weights * mask[gammas]).sum(axis=1).max())
        # only the verdict is counted, so no witness is built
        hits += MembershipVerdict.from_mass(worst, lambda: None).in_masc
    return hits / math.comb(spec.n, s)


def _run_fig5(p):
    n, mbar = p["n"], p["mbar"]
    spec = band_spec(n, mbar)
    a = realify(spec.partial_matrix())
    for cells in _rate_sweep(a, p, p["seed"] * 10007):
        yield n, mbar, *cells, _dft_masc_fraction(spec, cells[0])


def _run_fig6(p):
    n = p["n"]
    for size in p["omega_sizes"]:
        mbar = (size - 1) // 2
        spec = band_spec(n, mbar)
        seed = p["seed"] * 10007 + size
        s_hat = s_max_sampled(spec, p["sample_size"], seed)
        bound, s_guar = coherence_lower_bound(spec)
        yield n, spec.m, mbar, p["sample_size"], seed, s_hat, float(bound), s_guar


def _run_fig7(p):
    n = p["n"]
    for mbar in p["mbar_values"]:
        spec = band_spec(n, mbar)
        seed = p["seed"] * 10007 + mbar
        s_hat = s_max_sampled(spec, p["sample_size"], seed)
        bound, s_guar = coherence_lower_bound(spec)
        naive = mrsl_naive(realify(spec.partial_matrix()), p["naive_k"], seed=seed)
        yield n, spec.m, mbar, seed, s_guar, float(bound), s_hat, naive


def _run_custom(p):
    if not p.get("matrix_file"):
        raise InputError("custom experiment requires a matrix_file parameter")
    with open(p["matrix_file"]) as fh:
        a = parse_matrix_text(fh.read()).to_float_array()
    return _rate_sweep(a, p, p["seed"] * 10007)


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".10g")
    return str(v)


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Execute the configured sweep, write its CSV, and draw its SVG, if
    one is asked for, from the same formatted cells; return a summary."""
    kind = _EXPERIMENTS[cfg.kind]
    cells = [[_fmt(v) for v in row] for row in kind.run(cfg.parameters)]
    lines = [f"# kind: {cfg.kind}", f"# config-hash: {cfg.digest()}"]
    lines += [",".join(r) for r in [kind.columns, *cells]]
    with open(cfg.output_csv, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    summary = {"kind": cfg.kind, "rows": len(cells), "csv": cfg.output_csv}
    if cfg.output_svg is not None:
        _emit_plot(kind, cells, cfg.output_svg)
        summary["svg"] = cfg.output_svg
    return summary


def _emit_plot(kind: _Kind, cells: list[list[str]], svg_path: str) -> None:
    """Render a kind's CSV cells, by column name, as a standalone SVG line
    plot or heatmap. Hand-emitted markup, byte-deterministic."""
    if not cells:
        raise InputError("CSV has no data rows")
    draw, *args = kind.plot
    svg = draw([dict(zip(kind.columns, c)) for c in cells], *args)
    with open(svg_path, "w") as fh:
        fh.write(svg)


_W, _H, _PAD = 640, 420, 56


def _scale(vals, lo_px, hi_px):
    lo, hi = min(vals), max(vals)
    span = (hi - lo) or 1.0
    return lambda v: lo_px + (v - lo) / span * (hi_px - lo_px)


def _svg_open(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W // 2}" y="24" text-anchor="middle" font-size="15" '
        f'font-family="sans-serif">{title}</text>',
    ]


def _axes(parts, xlabel, ylabel):
    parts.append(
        f'<line x1="{_PAD}" y1="{_H - _PAD}" x2="{_W - _PAD}" y2="{_H - _PAD}" '
        'stroke="black"/>'
    )
    parts.append(
        f'<line x1="{_PAD}" y1="{_PAD}" x2="{_PAD}" y2="{_H - _PAD}" stroke="black"/>'
    )
    parts.append(
        f'<text x="{_W // 2}" y="{_H - 12}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{_H // 2}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif" transform="rotate(-90 16 {_H // 2})">{ylabel}</text>'
    )


_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


def _line_svg(rows, xcol, ycols, title) -> str:
    xs = [float(r[xcol]) for r in rows]
    all_y = [float(r[c]) for r in rows for c in ycols]
    sx = _scale(xs, _PAD, _W - _PAD)
    sy = _scale(all_y, _H - _PAD, _PAD)
    parts = _svg_open(title)
    _axes(parts, xcol, " / ".join(ycols))
    for ci, col in enumerate(ycols):
        pts = sorted(zip(xs, (float(r[col]) for r in rows)))
        path = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        color = _COLORS[ci % len(_COLORS)]
        parts.append(f'<polyline points="{path}" fill="none" stroke="{color}"/>')
        parts.append(
            f'<text x="{_W - _PAD + 4}" y="{_PAD + 16 * ci + 10}" font-size="11" '
            f'font-family="sans-serif" fill="{color}">{col}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _heatmap_svg(rows, xcol, ycol, vcol, title) -> str:
    xs = sorted({float(r[xcol]) for r in rows})
    ys = sorted({float(r[ycol]) for r in rows})
    # mean over rows sharing a cell (e.g. multiple graph seeds)
    acc: dict[tuple[float, float], list[float]] = {}
    for r in rows:
        acc.setdefault((float(r[xcol]), float(r[ycol])), []).append(float(r[vcol]))
    cw = (_W - 2 * _PAD) / len(xs)
    ch = (_H - 2 * _PAD) / len(ys)
    parts = _svg_open(title)
    _axes(parts, xcol, ycol)
    for (x, y), vals in sorted(acc.items()):
        v = sum(vals) / len(vals)
        shade = int(round(255 * (1.0 - v)))
        px = _PAD + xs.index(x) * cw
        py = _H - _PAD - (ys.index(y) + 1) * ch
        parts.append(
            f'<rect x="{px:.2f}" y="{py:.2f}" width="{cw:.2f}" height="{ch:.2f}" '
            f'fill="rgb({shade},{shade},255)"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


class _Kind(NamedTuple):
    """A kind's runner, which yields one value tuple per CSV row in column
    order; its CSV columns; its plot: a drawing function, columns, title."""

    run: Callable[[dict], Iterable[tuple]]
    columns: tuple[str, ...]
    plot: tuple


_RATE = ("sparsity", "trials", "seed", "rate")
_BOUNDS = "sparsity bounds versus measurement count"

# KINDS and DEFAULTS list the same kinds, in this order
_EXPERIMENTS = {
    "fig3-cycles": _Kind(
        _run_fig3,
        ("cycle_length", "edges", *_RATE),
        (_line_svg, "sparsity", ["rate"], "recovery rate"),
    ),
    "fig4-erdos-renyi": _Kind(
        _run_fig4,
        ("p_exponent", "p", "graph_seed", "edges", "sparsity", "trials", "seed",
         "successes", "rate"),
        (_heatmap_svg, "p_exponent", "sparsity", "rate",
         "recovery rate over Erdos-Renyi graphs"),
    ),
    "fig5-dft-recovery": _Kind(
        _run_fig5,
        ("n", "mbar", *_RATE, "masc_fraction"),
        (_line_svg, "sparsity", ["rate", "masc_fraction"],
         "recovery rate and certified support fraction"),
    ),
    "fig6-mrsl-large": _Kind(
        _run_fig6,
        ("n", "omega_size", "mbar", "sample_size", "seed", "s_max_sampled",
         "coherence_bound", "s_guaranteed"),
        (_line_svg, "omega_size", ["s_guaranteed", "s_max_sampled"], _BOUNDS),
    ),
    "fig7-mrsl-small": _Kind(
        _run_fig7,
        ("n", "omega_size", "mbar", "seed", "s_guaranteed", "coherence_bound",
         "s_max_sampled", "mrsl_naive"),
        (_line_svg, "omega_size", ["s_guaranteed", "s_max_sampled", "mrsl_naive"],
         _BOUNDS),
    ),
    "custom": _Kind(_run_custom, _RATE, (_line_svg, "sparsity", ["rate"], "recovery rate")),
}

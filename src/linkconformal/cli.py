"""Command-line interface.

Subcommands: run, sweep-lambda, sweep-cliques, synth, fit-powerlaw.
Global flags (--config, --seed, --out, --alpha) and sampler flags
(--lambda, --sampler-mode, --sampler-agg) apply wherever they make sense;
command-line values override config-file values. A subcommand that fails
on a bad value or an unreadable or unwritable file prints one
``linkconformal: error: ...`` line to stderr and exits with status 2.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

from .config import _KEY_TABLE, RunConfig, _parse_floats, build_run_config, parse_config_text
from .graph import _edge_list_text, _write_text, degree_sequence, load_edge_list
from .pipeline import _degree_fit, load_graph, report_text, run_pipeline, sweep_cliques, sweep_lambda, write_csv
from .sampling import AGGREGATIONS, MODES


def _add_common(parser):
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--out", help="output path (stdout when omitted)")
    parser.add_argument("--alpha", type=float, help="miscoverage level in (0, 1)")
    parser.add_argument("--lambda", type=float, help="sampler intensity")
    parser.add_argument("--sampler-mode", choices=MODES)
    parser.add_argument("--sampler-agg", choices=AGGREGATIONS)
    parser.add_argument("--edge-list", help="edge-list file; synthetic graph when omitted")
    parser.add_argument("--feature-file", help="optional node feature file")
    parser.add_argument("--splits", type=int, help="number of random splits")
    parser.add_argument("--reps", type=int, help="repetitions per split")


def _run_config(args, **overrides) -> RunConfig:
    """The --config file's values, overridden by every flag whose destination is
    a config key and then by ``overrides``."""
    config_path = getattr(args, "config", None)
    file_values = parse_config_text(Path(config_path).read_text(encoding="utf-8")) if config_path else {}
    flags = {key: value for key, value in vars(args).items() if key in _KEY_TABLE}
    return build_run_config(file_values, {**flags, **overrides})


def _emit(text: str, out_path) -> int:
    """Write ``text`` to ``out_path``, or to stdout when omitted."""
    if out_path:
        _write_text(out_path, text, "output")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_run(args) -> int:
    return _emit(report_text(run_pipeline(_run_config(args))), args.out)


def _emit_rows(rows, args) -> int:
    """Write sweep rows as CSV (when --csv is given) and as ``{"rows": [...]}`` JSON."""
    if args.csv:
        write_csv(rows, args.csv)
    return _emit(report_text({"rows": [asdict(r) for r in rows]}), args.out)


def _cmd_sweep_lambda(args) -> int:
    return _emit_rows(sweep_lambda(_run_config(args), _parse_floats(args.lambdas)), args)


def _parse_mxn(token: str):
    """(m, n) from a token like "25x20"; ValueError naming the token otherwise."""
    m, _, n = token.partition("x")
    try:
        return int(m), int(n)
    except ValueError:
        raise ValueError(f"expected MxN like 25x20, got {token!r}") from None


def _cmd_sweep_cliques(args) -> int:
    grid = [_parse_mxn(token) for token in args.grid.replace(",", " ").split()]
    rows = sweep_cliques(_run_config(args), grid, n_variants=args.variants)
    return _emit_rows(rows, args)


def _cmd_synth(args) -> int:
    cliques = dict(zip(("clique_m", "clique_n"), _parse_mxn(args.cliques))) if args.cliques else {}
    return _emit(_edge_list_text(load_graph(_run_config(args, **cliques))), args.out)


def _cmd_fit_powerlaw(args) -> int:
    graph = load_edge_list(Path(args.edge_list).read_text(encoding="utf-8"))
    fit = _degree_fit(degree_sequence(graph))
    if fit is None:
        raise ValueError("the graph admits no power-law fit: it has fewer than 2 distinct positive degrees")
    return _emit(report_text(asdict(fit)), args.out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="linkconformal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="full pipeline over splits x reps")
    _add_common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_lam = sub.add_parser("sweep-lambda", help="sampling-arm sweep over lambda values")
    _add_common(p_lam)
    p_lam.add_argument("--lambdas", required=True, help="comma-separated lambda grid")
    p_lam.add_argument("--csv", help="optional CSV output path")
    p_lam.set_defaults(func=_cmd_sweep_lambda)

    p_clq = sub.add_parser("sweep-cliques", help="clique-injection study over an (m, n) grid")
    _add_common(p_clq)
    p_clq.add_argument("--grid", required=True, help="grid like 25x20,50x20")
    p_clq.add_argument("--variants", type=int, default=5, help="injected variants per grid point")
    p_clq.add_argument("--csv", help="optional CSV output path")
    p_clq.set_defaults(func=_cmd_sweep_cliques)

    p_syn = sub.add_parser("synth", help="write a synthetic power-law edge list")
    # Overrides of the synth_* config keys; RunConfig holds their defaults.
    p_syn.add_argument("--nodes", type=int, dest="synth_nodes", metavar="NODES")
    p_syn.add_argument("--beta", type=float, dest="synth_beta", metavar="BETA")
    p_syn.add_argument("--dmin", type=int, dest="synth_d_min", metavar="DMIN")
    p_syn.add_argument("--cliques", help="optional injection like 25x20")
    p_syn.add_argument("--seed", type=int)
    p_syn.add_argument("--out")
    p_syn.set_defaults(func=_cmd_synth)

    p_fit = sub.add_parser("fit-powerlaw", help="fit a degree power law to an edge list")
    p_fit.add_argument("--edge-list", required=True)
    p_fit.add_argument("--out")
    p_fit.set_defaults(func=_cmd_fit_powerlaw)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # One line and status 2, as argparse reports a bad argument.
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":
    raise SystemExit(main())

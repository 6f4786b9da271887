"""Command-line interface.

Subcommands: run, sweep-lambda, sweep-cliques, synth, fit-powerlaw.
Global flags (--config, --seed, --out, --alpha) and sampler flags
(--lambda, --sampler-mode, --sampler-agg) apply wherever they make sense;
command-line values override config-file values.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict

from .config import build_run_config, parse_config_text
from .graph import degree_sequence, generate_powerlaw_graph, inject_cliques, load_edge_list
from .pipeline import report_text, run_pipeline, sweep_cliques, sweep_lambda, write_csv, write_report
from .powerlaw import fit_power_law
from .seeding import derive_seed


def _add_common(parser):
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--out", help="output path (stdout when omitted)")
    parser.add_argument("--alpha", type=float, help="miscoverage level in (0, 1)")
    parser.add_argument("--lambda", dest="lam", type=float, help="sampler intensity")
    parser.add_argument("--sampler-mode", choices=("literal", "directional"))
    parser.add_argument("--sampler-agg", choices=("sum", "max"))
    parser.add_argument("--edge-list", help="edge-list file; synthetic graph when omitted")
    parser.add_argument("--feature-file", help="optional node feature file")
    parser.add_argument("--splits", type=int, help="number of random splits")
    parser.add_argument("--reps", type=int, help="repetitions per split")


def _run_config(args) -> "RunConfig":
    file_values = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            file_values = parse_config_text(fh.read())
    overrides = {
        "seed": args.seed,
        "alpha": args.alpha,
        "lambda": args.lam,
        "sampler_mode": args.sampler_mode,
        "sampler_agg": args.sampler_agg,
        "edge_list": args.edge_list,
        "feature_file": args.feature_file,
        "splits": args.splits,
        "reps": args.reps,
    }
    return build_run_config(file_values, overrides)


def _emit(payload, out_path):
    """Write a report or JSON-ready dict to ``out_path``, or to stdout when omitted."""
    if out_path:
        write_report(payload, out_path)
    else:
        sys.stdout.write(report_text(payload))


def _cmd_run(args) -> int:
    _emit(run_pipeline(_run_config(args)), args.out)
    return 0


def _parse_lambdas(text: str):
    return [float(t) for t in text.replace(",", " ").split()]


def _cmd_sweep_lambda(args) -> int:
    rows = sweep_lambda(_run_config(args), _parse_lambdas(args.lambdas))
    payload = {"rows": [asdict(r) for r in rows]}
    if args.csv:
        write_csv(rows, args.csv)
    _emit(payload, args.out)
    return 0


def _parse_grid(text: str):
    grid = []
    for token in text.replace(",", " ").split():
        m, _, n = token.partition("x")
        grid.append((int(m), int(n)))
    return grid


def _cmd_sweep_cliques(args) -> int:
    rows = sweep_cliques(_run_config(args), _parse_grid(args.grid), n_variants=args.variants)
    payload = {"rows": [asdict(r) for r in rows]}
    if args.csv:
        write_csv(rows, args.csv)
    _emit(payload, args.out)
    return 0


def _cmd_synth(args) -> int:
    seed = args.seed if args.seed is not None else 0
    graph = generate_powerlaw_graph(args.nodes, args.beta, args.dmin, derive_seed(seed, "synth-graph"))
    if args.cliques:
        m, _, n = args.cliques.partition("x")
        graph = inject_cliques(graph, int(m), int(n), derive_seed(seed, "inject-cliques"))
    lines = [f"# nodes {graph.num_nodes}"]
    lines += map(" ".join, graph.edge_array().astype(str).tolist())
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_fit_powerlaw(args) -> int:
    with open(args.edge_list, encoding="utf-8") as fh:
        graph = load_edge_list(fh.read())
    fit = fit_power_law(degree_sequence(graph, drop_isolated=True))
    payload = {
        "beta_hat": fit.beta_hat,
        "d_min": fit.d_min,
        "ks": fit.ks,
        "tail_size": fit.tail_size,
    }
    _emit(payload, args.out)
    return 0


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
    p_syn.add_argument("--nodes", type=int, default=2000)
    p_syn.add_argument("--beta", type=float, default=2.5)
    p_syn.add_argument("--dmin", type=int, default=1)
    p_syn.add_argument("--cliques", help="optional injection like 25x20")
    p_syn.add_argument("--seed", type=int)
    p_syn.add_argument("--out")
    p_syn.set_defaults(func=_cmd_synth)

    p_fit = sub.add_parser("fit-powerlaw", help="fit a degree power law to an edge list")
    p_fit.add_argument("--edge-list", required=True)
    p_fit.add_argument("--out")
    p_fit.set_defaults(func=_cmd_fit_powerlaw)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())

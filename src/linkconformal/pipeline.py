"""End-to-end experiment pipeline, sweeps, and machine-readable reports.

One trial: split the edge pool, build the training subgraph, train the
link predictor, then run one or both calibration arms. The plain arm fits
quantile functions on train+val edge embeddings and calibrates on the
calibration subset; the sampling arm first resamples train/val/calib
edges toward the fitted power law. Both arms of a trial score the exact
same test edges with the same trained base model.

Trials are indexed by (split, repetition); every random stream is derived
from (master seed, indices, purpose tag), so reports are reproducible
from their own config echo.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .config import RunConfig, config_echo
from .conformal import conformalize, evaluate
from .errors import DegenerateCalibrationError
from .graph import (
    Graph,
    degree_sequence,
    ensure_features,
    generate_powerlaw_graph,
    inject_cliques,
    load_edge_list,
    load_features,
    negative_sample,
    split_edges,
    training_subgraph,
)
from .model import edge_embeddings, encode_nodes, structural_features, train_link_predictor
from .powerlaw import adaptive_min_tail, fit_power_law
from .quantile import fit_quantile_functions
from .sampling import SamplerConfig, sample_edges
from .seeding import derive_seed


@dataclass(frozen=True)
class TrialRecord:
    arm: str
    split: int
    rep: int
    seed: int
    coverage: Optional[float] = None
    avg_length: Optional[float] = None
    q_hat: Optional[float] = None
    ks_before: Optional[float] = None
    ks_after: Optional[float] = None
    density_after: Optional[float] = None
    error: Optional[str] = None


@dataclass(frozen=True)
class ExperimentReport:
    config_echo: dict
    trials: Tuple[TrialRecord, ...]
    summary: dict

    def to_dict(self) -> dict:
        return {
            "config_echo": self.config_echo,
            "trials": [asdict(t) for t in self.trials],
            "summary": self.summary,
        }


@dataclass(frozen=True)
class LambdaSweepRow:
    lam: float
    density: Optional[float]
    ks: Optional[float]
    coverage: Optional[float]
    avg_length: Optional[float]
    n_trials: int
    n_degenerate: int


@dataclass(frozen=True)
class CliqueSweepRow:
    m: int
    n: int
    mean_ks: Optional[float]
    mean_length: Optional[float]
    mean_coverage: Optional[float]


def load_graph(config: RunConfig) -> Graph:
    """Load the configured edge list or synthesize a power-law graph.

    Synthetic graphs get their features before any clique injection, so
    structural features describe the clean base graph and injected edges
    stay feature-independent (mirroring random cliques added to a real
    dataset).
    """
    if config.edge_list:
        with open(config.edge_list, encoding="utf-8") as fh:
            graph = load_edge_list(fh.read())
        if config.feature_file:
            with open(config.feature_file, encoding="utf-8") as fh:
                graph = graph.with_features(load_features(fh.read(), graph.num_nodes))
    else:
        graph = generate_powerlaw_graph(
            config.synth_nodes,
            config.synth_beta,
            config.synth_d_min,
            derive_seed(config.seed, "synth-graph"),
        )
        if config.feature_mode == "structural":
            graph = graph.with_features(
                structural_features(graph, config.feature_dim, derive_seed(config.seed, "features"))
            )
    if config.clique_n > 0:
        graph = inject_cliques(
            graph, config.clique_m, config.clique_n, derive_seed(config.seed, "inject-cliques")
        )
    return ensure_features(graph, config.feature_dim, derive_seed(config.seed, "features"))


def edge_pool(graph: Graph, config: RunConfig):
    """Positive edges plus an equal number of sampled non-edges (fixed once)."""
    positives = graph.edge_array()
    negatives = negative_sample(graph, len(positives), derive_seed(config.seed, "negatives"))
    return positives, negatives


def _graph_ks(graph: Graph) -> Optional[float]:
    degrees = degree_sequence(graph, drop_isolated=True)
    if degrees.size < 2 or np.unique(degrees).size < 2:
        return None
    return fit_power_law(degrees, min_tail=adaptive_min_tail(degrees.size)).ks


def _mean(values) -> Optional[float]:
    """Mean of the values that are not None; None when none are left."""
    values = [v for v in values if v is not None]
    return float(np.mean(values)) if values else None


def _graph_density(num_nodes: int, num_edges: int) -> float:
    return num_edges / (num_nodes * (num_nodes - 1) / 2.0)


class _TrialBase:
    """Shared per-trial state: split, subgraph, trained model, embeddings.

    The test edges are embedded once; every calibration arm scores them.
    """

    def __init__(self, graph, positives, negatives, config: RunConfig, split_idx: int, rep_idx: int):
        self.config = config
        self.split_idx = split_idx
        self.rep_idx = rep_idx
        self.model_seed = derive_seed(config.seed, split_idx, rep_idx, "model")
        split = split_edges(
            positives, negatives, config.ratios, derive_seed(config.seed, split_idx, "split")
        )
        self.split = split
        self.subgraph = training_subgraph(graph, split)
        self.ks_before = _graph_ks(self.subgraph)
        self.params = train_link_predictor(
            self.subgraph, split.train, split.val, config.model, seed=self.model_seed
        )
        self.node_embeddings = encode_nodes(self.params, self.subgraph)
        self.test_embedded = self.embed(split.test)

    def embed(self, rows):
        """Edge embeddings and float labels of (k, 3) labeled rows."""
        return edge_embeddings(self.node_embeddings, rows[:, :2]), rows[:, 2].astype(np.float64)

    def _calibrated_record(self, arm, train_val, calib, extra):
        z_fit, y_fit = self.embed(train_val)
        qmodel = fit_quantile_functions(
            z_fit,
            y_fit,
            self.config.alpha,
            self.config.quantile,
            seed=derive_seed(self.config.seed, self.split_idx, self.rep_idx, f"quantile-{arm}"),
        )
        z_calib, y_calib = self.embed(calib)
        z_test, y_test = self.test_embedded
        intervals, q_hat = conformalize(qmodel, z_calib, y_calib, z_test, self.config.alpha)
        if q_hat == math.inf:
            alpha = self.config.alpha
            raise DegenerateCalibrationError(
                f"a calibration set of K={len(calib)} edges gives an infinite q_hat at "
                f"alpha={alpha}: K >= (1 - alpha) / alpha = {(1.0 - alpha) / alpha:g} is needed"
            )
        report = evaluate(
            intervals, y_test, q_hat=q_hat, alpha=self.config.alpha, calib_size=len(calib)
        )
        return TrialRecord(
            arm=arm,
            split=self.split_idx,
            rep=self.rep_idx,
            seed=self.model_seed,
            coverage=report.empirical_coverage,
            avg_length=report.avg_interval_length,
            q_hat=q_hat,
            ks_before=self.ks_before,
            **extra,
        )

    def _recorded(self, arm, run) -> TrialRecord:
        """``run()``, or the arm's error record when calibration degenerates."""
        try:
            return run()
        except DegenerateCalibrationError as exc:
            return TrialRecord(
                arm=arm,
                split=self.split_idx,
                rep=self.rep_idx,
                seed=self.model_seed,
                ks_before=self.ks_before,
                error=str(exc),
            )

    def run_cqr(self) -> TrialRecord:
        fit_rows = np.concatenate([self.split.train, self.split.val])
        return self._recorded("cqr", lambda: self._calibrated_record(
            "cqr", fit_rows, self.split.calib, {"ks_after": None, "density_after": None}
        ))

    def run_sampled(self, lam: Optional[float] = None) -> TrialRecord:
        return self._recorded("sampled", lambda: self._sampled_record(lam))

    def _sampled_record(self, lam: Optional[float]) -> TrialRecord:
        config = self.config
        sampler = SamplerConfig(
            lam=config.sampler_lambda if lam is None else lam,
            agg=config.sampler_agg,
            mode=config.sampler_mode,
            seed=derive_seed(config.seed, self.split_idx, self.rep_idx, "sampler"),
        )
        train_s, val_s, calib_s = sample_edges(
            self.split.train, self.split.val, self.split.calib, self.subgraph, sampler
        )
        if not len(train_s):
            raise DegenerateCalibrationError("sampling removed every training edge")
        fit_rows = np.concatenate([train_s, val_s])
        sampled_graph = self.subgraph.with_edges(fit_rows[fit_rows[:, 2] == 1, :2])
        return self._calibrated_record(
            "sampled", fit_rows, calib_s,
            {
                "ks_after": _graph_ks(sampled_graph),
                "density_after": _graph_density(sampled_graph.num_nodes, sampled_graph.num_edges),
            },
        )


def _arm_summary(records: Sequence[TrialRecord]) -> Optional[dict]:
    ok = [r for r in records if r.error is None]
    if not ok:
        return None
    coverages = np.array([r.coverage for r in ok])
    lengths = np.array([r.avg_length for r in ok])
    ddof = 1 if len(ok) > 1 else 0
    return {
        "mean_coverage": float(coverages.mean()),
        "std_coverage": float(coverages.std(ddof=ddof)),
        "mean_length": float(lengths.mean()),
        "std_length": float(lengths.std(ddof=ddof)),
        "n_trials": len(ok),
        "n_degenerate": len(records) - len(ok),
    }


def _build_summary(trials: Sequence[TrialRecord]) -> dict:
    arms = {}
    for arm in ("cqr", "sampled"):
        stats = _arm_summary([t for t in trials if t.arm == arm])
        if stats is not None:
            arms[arm] = stats
    headline = arms.get("sampled") or arms.get("cqr") or {}
    improvement = None
    if "cqr" in arms and "sampled" in arms and arms["cqr"]["mean_length"] > 0:
        improvement = (
            (arms["cqr"]["mean_length"] - arms["sampled"]["mean_length"])
            / arms["cqr"]["mean_length"]
            * 100.0
        )
    summary = {
        "mean_coverage": headline.get("mean_coverage"),
        "std_coverage": headline.get("std_coverage"),
        "mean_length": headline.get("mean_length"),
        "std_length": headline.get("std_length"),
        "improvement_pct": improvement,
        "arms": arms,
    }
    return summary


def run_pipeline(config: RunConfig, graph: Optional[Graph] = None) -> ExperimentReport:
    """Run n_splits x n_reps trials of the full pipeline and aggregate.

    An arm whose calibration degenerates (sampling removed its edges, or
    too few calibration edges for alpha give an infinite q_hat) is recorded
    with an error and skipped by the aggregates; the sweep is never aborted.
    """
    graph = load_graph(config) if graph is None else ensure_features(
        graph, config.feature_dim, derive_seed(config.seed, "features")
    )
    positives, negatives = edge_pool(graph, config)
    trials: List[TrialRecord] = []
    for split_idx in range(config.n_splits):
        for rep_idx in range(config.n_reps):
            base = _TrialBase(graph, positives, negatives, config, split_idx, rep_idx)
            trials.append(base.run_cqr())
            if config.run_sampled_arm:
                trials.append(base.run_sampled())
    return ExperimentReport(config_echo(config), tuple(trials), _build_summary(trials))


def sweep_lambda(config: RunConfig, lambdas: Sequence[float], graph: Optional[Graph] = None) -> List[LambdaSweepRow]:
    """One sampling-arm run per lambda, reusing each trial's base model.

    The base model does not depend on lambda, so it is trained once per
    trial and shared across the whole grid.
    """
    if not lambdas:
        raise ValueError("sweep_lambda needs at least one lambda value")
    graph = load_graph(config) if graph is None else ensure_features(
        graph, config.feature_dim, derive_seed(config.seed, "features")
    )
    positives, negatives = edge_pool(graph, config)
    per_lambda: dict = {lam: [] for lam in lambdas}
    for split_idx in range(config.n_splits):
        for rep_idx in range(config.n_reps):
            base = _TrialBase(graph, positives, negatives, config, split_idx, rep_idx)
            for lam in lambdas:
                per_lambda[lam].append(base.run_sampled(lam=lam))
    rows = []
    for lam in lambdas:
        records = per_lambda[lam]
        ok = [r for r in records if r.error is None]
        rows.append(
            LambdaSweepRow(
                lam=lam,
                density=_mean(r.density_after for r in ok),
                ks=_mean(r.ks_after for r in ok),
                coverage=_mean(r.coverage for r in ok),
                avg_length=_mean(r.avg_length for r in ok),
                n_trials=len(records),
                n_degenerate=len(records) - len(ok),
            )
        )
    return rows


def sweep_cliques(
    config: RunConfig,
    grid: Sequence[Tuple[int, int]],
    n_variants: int = 5,
    base_graph: Optional[Graph] = None,
) -> List[CliqueSweepRow]:
    """Clique-injection study: per (m, n), average KS and plain-arm length.

    Each grid point gets ``n_variants`` injected graphs; one plain-arm
    trial runs on each and the fitted KS of the full variant graph is
    recorded alongside the interval length. Variant seeds do not depend on
    the grid point, so variant i of every (m, n) shares its base graph,
    negative pool, split, and model streams: grid points differ only by
    the injected cliques. ``mean_ks`` averages the variants that admit a
    KS fit and is None when none does.
    """
    if not grid:
        raise ValueError("sweep_cliques needs a non-empty grid")
    if n_variants < 1:
        raise ValueError(f"n_variants must be >= 1, got {n_variants}")
    base_config = replace(config, clique_m=0, clique_n=0, n_splits=1, n_reps=1)
    base_graph = load_graph(base_config) if base_graph is None else ensure_features(
        base_graph, config.feature_dim, derive_seed(config.seed, "features")
    )
    rows = []
    for m, n in grid:
        ks_values, lengths, coverages = [], [], []
        for variant in range(n_variants):
            if n > 0:
                variant_graph = inject_cliques(
                    base_graph, m, n, derive_seed(config.seed, "clique-variant", variant)
                )
            else:
                variant_graph = base_graph
            variant_config = replace(
                config,
                seed=derive_seed(config.seed, "clique-run", variant),
                n_splits=1,
                n_reps=1,
                run_sampled_arm=False,
            )
            positives, negatives = edge_pool(variant_graph, variant_config)
            base = _TrialBase(variant_graph, positives, negatives, variant_config, 0, 0)
            record = base.run_cqr()
            ks_values.append(_graph_ks(variant_graph))
            lengths.append(record.avg_length)
            coverages.append(record.coverage)
        rows.append(
            CliqueSweepRow(
                m=m,
                n=n,
                mean_ks=_mean(ks_values),
                mean_length=_mean(lengths),
                mean_coverage=_mean(coverages),
            )
        )
    return rows


def report_text(report) -> str:
    """A report (or any JSON-ready dict) as JSON text with stable key order."""
    payload = report.to_dict() if hasattr(report, "to_dict") else report
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def write_report(report, path) -> None:
    """Write ``report_text(report)`` to ``path``."""
    text = report_text(report)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc


def write_csv(rows, path) -> None:
    """Flatten sweep rows to CSV: header row, comma separators, '.' decimals."""
    if not rows:
        raise ValueError("no rows to write")
    dicts = [asdict(r) if not isinstance(r, dict) else r for r in rows]
    header = list(dicts[0].keys())
    lines = [",".join(header)]
    for row in dicts:
        lines.append(",".join("" if row[k] is None else str(row[k]) for k in header))
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write csv to {path}: {exc}") from exc

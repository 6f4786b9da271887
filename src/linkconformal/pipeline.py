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

import functools
import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .config import RunConfig, config_echo
from .conformal import conformalize, evaluate
from .errors import DegenerateCalibrationError, check_int
from .graph import (
    Graph,
    _write_text,
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
from .powerlaw import PowerLawFit, adaptive_min_tail, fit_power_law
from .quantile import QuantileModel, fit_quantile_functions
from .sampling import sample_edges
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

    def __post_init__(self):
        if self.arm not in ("cqr", "sampled"):
            raise ValueError(f"arm must be 'cqr' or 'sampled', got {self.arm!r}")
        for name in ("split", "rep", "seed"):
            check_int(getattr(self, name), name, 0)


@dataclass(frozen=True, eq=False)
class ArmOutcome:
    """What one calibration arm of a trial computes; its test labels are the trial's.

    The quantile band fitted on ``fit_rows``, calibrated on the ``calib``
    rows (both (k, 3) labeled rows), and the test intervals it gives, with
    their coverage and mean length. ``ks_after`` and ``density_after``
    describe the graph of the sampled arm's kept positive rows; they are
    None for the plain arm.
    """

    qmodel: QuantileModel
    fit_rows: np.ndarray
    calib: np.ndarray
    q_hat: float
    intervals: np.recarray
    coverage: float
    avg_length: float
    ks_after: Optional[float]
    density_after: Optional[float]


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


def load_graph(config: RunConfig, graph: Optional[Graph] = None) -> Graph:
    """The trial graph: ``graph`` as given, else the configured edge list or a
    synthesized power-law graph with ``clique_n`` cliques injected.

    A graph without features gets them by one rule: the feature file if one
    is given, else structural features when ``feature_mode`` is "structural",
    else seeded standard-normal ones. They are made before any clique
    injection, so structural features describe the clean base graph and
    injected edges stay feature-independent (mirroring random cliques added
    to a real dataset). A given graph keeps its own features and gets no
    cliques. Raises ValueError when the features are not ``feature_dim`` wide.
    """
    given = graph is not None
    if not given and config.edge_list:
        graph = load_edge_list(Path(config.edge_list).read_text(encoding="utf-8"))
    elif not given:
        graph = generate_powerlaw_graph(config.synth_nodes, config.synth_beta, config.synth_d_min,
                                        derive_seed(config.seed, "synth-graph"))
    if graph.features is None:
        seed = derive_seed(config.seed, "features")
        # A parsed or structural matrix is fresh and held nowhere else: it is
        # frozen in place, not copied.
        if config.feature_file:
            graph = graph._with_own_features(
                load_features(Path(config.feature_file).read_text(encoding="utf-8"), graph.num_nodes)
            )
        elif config.feature_mode == "structural":
            graph = graph._with_own_features(structural_features(graph, config.feature_dim, seed))
        else:
            graph = ensure_features(graph, config.feature_dim, seed)
    width = graph.features.shape[1]
    if width != config.feature_dim:
        raise ValueError(f"the graph's features are {width} wide, but feature_dim is {config.feature_dim}")
    if not given and config.clique_n > 0:
        graph = inject_cliques(graph, config.clique_m, config.clique_n, derive_seed(config.seed, "inject-cliques"))
    return graph


def _degree_fit(node_degrees: np.ndarray) -> Optional[PowerLawFit]:
    """Power-law fit of the positive degrees (tail floor ``adaptive_min_tail``); None if < 2 distinct."""
    degrees = node_degrees[node_degrees > 0]
    if np.unique(degrees).size < 2:
        return None
    return fit_power_law(degrees, min_tail=adaptive_min_tail(degrees.size))


def _fitted_ks(node_degrees: np.ndarray) -> Optional[float]:
    fit = _degree_fit(node_degrees)
    return None if fit is None else fit.ks


def _mean(values) -> Optional[float]:
    """Mean of the values that are not None; None when none are left."""
    values = [v for v in values if v is not None]
    return float(np.mean(values)) if values else None


class _TrialBase:
    """Shared per-trial state: split, subgraph, degree fit, and the trained model's embeddings.

    The degree fit and the test embeddings are made once; every arm reads them.
    """

    def __init__(self, graph, split, config: RunConfig, split_idx: int, rep_idx: int):
        self.config = config
        self.split = split
        self.split_idx = split_idx
        self.rep_idx = rep_idx
        self.model_seed = derive_seed(config.seed, split_idx, rep_idx, "model")
        self.subgraph = training_subgraph(graph, split)
        self.node_degrees = degree_sequence(self.subgraph)
        self.degree_fit = _degree_fit(self.node_degrees)
        params = train_link_predictor(self.subgraph, split.train, split.val, config.model, seed=self.model_seed)
        self.node_embeddings = encode_nodes(params, self.subgraph)
        self.test_embedded = self.embed(split.test)

    def embed(self, rows):
        """Edge embeddings and float labels of (k, 3) labeled rows."""
        return edge_embeddings(self.node_embeddings, rows[:, :2]), rows[:, 2].astype(np.float64)

    def arm(self, arm: str, lam: Optional[float] = None) -> ArmOutcome:
        """Arm "cqr" or "sampled" (at ``lam``, default the configured lambda):
        fit its quantile band, calibrate it and score the test edges.

        Raises DegenerateCalibrationError when the sampled arm has no power-law
        fit or no training edge left, when the calibration or test set is
        empty, or when q_hat is infinite.
        """
        if arm not in ("cqr", "sampled"):
            raise ValueError(f"arm must be 'cqr' or 'sampled', got {arm!r}")
        if arm == "cqr" and lam is not None:
            raise ValueError("lam applies only to the sampled arm")
        split, ks_after, density_after = self.split, None, None
        if arm == "cqr":
            fit_rows, calib = np.concatenate([split.train, split.val]), split.calib
        else:
            if self.degree_fit is None:
                raise DegenerateCalibrationError("the training subgraph admits no power-law fit")
            sampler = self.config.sampler(lam, derive_seed(self.config.seed, self.split_idx, self.rep_idx, "sampler"))
            train, val, calib = sample_edges(
                split.train, split.val, split.calib, self.node_degrees, self.degree_fit, sampler
            )
            if not len(train):
                raise DegenerateCalibrationError("sampling removed every training edge")
            fit_rows = np.concatenate([train, val])
            # The kept positive rows are distinct subgraph edges, so their endpoint
            # counts are the degrees of the graph they form; no Graph is built.
            positives = fit_rows[fit_rows[:, 2] == 1, :2]
            num_nodes = self.subgraph.num_nodes
            ks_after = _fitted_ks(np.bincount(positives.ravel(), minlength=num_nodes))
            density_after = len(positives) / (num_nodes * (num_nodes - 1) / 2.0)
            del train, val, positives  # the quantile fit holds only the fit rows, as in the plain arm
        for name, rows in (("calibration", calib), ("test", split.test)):
            if not len(rows):
                raise DegenerateCalibrationError(f"the {name} set is empty: it has 0 edges")
        alpha = self.config.alpha
        seed = derive_seed(self.config.seed, self.split_idx, self.rep_idx, f"quantile-{arm}")
        qmodel = fit_quantile_functions(self.node_embeddings, fit_rows[:, 2].astype(np.float64), alpha,
                                        self.config.quantile, seed=seed, endpoints=fit_rows[:, :2])
        intervals, q_hat = conformalize(qmodel, *self.embed(calib), self.test_embedded[0], alpha)
        if q_hat == math.inf:
            raise DegenerateCalibrationError(
                f"a calibration set of K={len(calib)} edges gives an infinite q_hat at "
                f"alpha={alpha}: K >= (1 - alpha) / alpha = {(1.0 - alpha) / alpha:g} is needed"
            )
        report = evaluate(intervals, self.test_embedded[1])
        return ArmOutcome(qmodel, fit_rows, calib, q_hat, intervals, report.empirical_coverage,
                          report.avg_interval_length, ks_after, density_after)

    def run_arm(self, arm: str, lam: Optional[float] = None) -> TrialRecord:
        """The record of ``arm(arm, lam)``; an error record when its calibration degenerates."""
        shared = dict(arm=arm, split=self.split_idx, rep=self.rep_idx, seed=self.model_seed,
                      ks_before=None if self.degree_fit is None else self.degree_fit.ks)
        try:
            outcome = self.arm(arm, lam)
        except DegenerateCalibrationError as exc:
            return TrialRecord(**shared, error=str(exc))
        return TrialRecord(**shared, coverage=outcome.coverage, avg_length=outcome.avg_length,
                           q_hat=outcome.q_hat, ks_after=outcome.ks_after, density_after=outcome.density_after)


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
    return {
        "mean_coverage": headline.get("mean_coverage"),
        "std_coverage": headline.get("std_coverage"),
        "mean_length": headline.get("mean_length"),
        "std_length": headline.get("std_length"),
        "improvement_pct": improvement,
        "arms": arms,
    }


def _trials(config: RunConfig, graph: Optional[Graph]):
    """One trained ``_TrialBase`` per (split, rep) on ``load_graph(config, graph)``,
    all on one edge pool: its edges plus as many sampled non-edges, drawn once."""
    graph = load_graph(config, graph)
    positives = graph.edge_array()
    negatives = negative_sample(graph, len(positives), derive_seed(config.seed, "negatives"))
    for split_idx in range(config.n_splits):
        split = split_edges(positives, negatives, config.ratios, derive_seed(config.seed, split_idx, "split"))
        for rep_idx in range(config.n_reps):
            yield _TrialBase(graph, split, config, split_idx, rep_idx)


def run_pipeline(config: RunConfig, graph: Optional[Graph] = None) -> ExperimentReport:
    """Run n_splits x n_reps trials of the full pipeline and aggregate.

    An arm whose calibration degenerates (sampling removed its edges, its
    calibration or test set is empty, or too few calibration edges for
    alpha give an infinite q_hat) is recorded with an error and skipped by
    the aggregates; the sweep is never aborted.
    """
    trials: List[TrialRecord] = []
    for base in _trials(config, graph):
        trials.append(base.run_arm("cqr"))
        if config.run_sampled_arm:
            trials.append(base.run_arm("sampled"))
    return ExperimentReport(config_echo(config), tuple(trials), _build_summary(trials))


def sweep_lambda(config: RunConfig, lambdas: Sequence[float], graph: Optional[Graph] = None) -> List[LambdaSweepRow]:
    """One sampling-arm run per lambda, reusing each trial's base model.

    The base model does not depend on lambda, so it is trained once per
    trial and shared across the whole grid. The grid is checked before any
    training: its values must be distinct and valid sampler lambdas.
    """
    if not lambdas:
        raise ValueError("sweep_lambda needs at least one lambda value")
    if len(set(lambdas)) < len(lambdas):
        raise ValueError(f"sweep_lambda needs distinct lambda values, got {list(lambdas)}")
    for lam in lambdas:
        config.sampler(lam)
    per_lambda: dict = {lam: [] for lam in lambdas}
    for base in _trials(config, graph):
        for lam in lambdas:
            per_lambda[lam].append(base.run_arm("sampled", lam))
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
    the injected cliques, every n = 0 point shares the base graph's trials,
    and a repeated grid point runs once. ``mean_ks`` averages the variants
    that admit a KS fit and is None when none does. The grid is checked
    before any training.
    """
    if not grid:
        raise ValueError("sweep_cliques needs a non-empty grid")
    check_int(n_variants, "n_variants", 1)
    base_graph = load_graph(replace(config, clique_m=0, clique_n=0), base_graph)
    for m, n in grid:
        point = f"grid point (m={m}, n={n})"
        check_int(m, f"{point}: m", 0)
        check_int(n, f"{point}: n", 0)
        if n > 0 and not 2 <= m <= base_graph.num_nodes:
            raise ValueError(f"{point} needs 2 <= m <= num_nodes when n > 0")
    graph_ks = functools.cache(lambda graph: _fitted_ks(degree_sequence(graph)))

    @functools.cache  # keyed by the injected (m, n), or None for the base graph
    def plain_run(cliques, variant):
        graph = base_graph if cliques is None else inject_cliques(
            base_graph, *cliques, derive_seed(config.seed, "clique-variant", variant))
        variant_config = replace(config, seed=derive_seed(config.seed, "clique-run", variant))
        record = next(_trials(variant_config, graph)).run_arm("cqr")
        return graph_ks(graph), record.avg_length, record.coverage

    rows = []
    for m, n in grid:
        ks_values, lengths, coverages = zip(*(plain_run((m, n) if n else None, i) for i in range(n_variants)))
        rows.append(CliqueSweepRow(m=m, n=n, mean_ks=_mean(ks_values), mean_length=_mean(lengths),
                                   mean_coverage=_mean(coverages)))
    return rows


def report_text(report) -> str:
    """A report (or any JSON-ready dict) as JSON text with stable key order."""
    payload = report.to_dict() if hasattr(report, "to_dict") else report
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def write_report(report, path) -> None:
    """Write ``report_text(report)`` to ``path``."""
    _write_text(path, report_text(report), "report")


def write_csv(rows, path) -> None:
    """Flatten sweep rows to CSV: header row, comma separators, '.' decimals."""
    if not rows:
        raise ValueError("no rows to write")
    dicts = [asdict(r) if not isinstance(r, dict) else r for r in rows]
    header = list(dicts[0].keys())
    lines = [",".join(header)]
    for row in dicts:
        lines.append(",".join("" if row[k] is None else str(row[k]) for k in header))
    _write_text(path, "\n".join(lines) + "\n", "csv")

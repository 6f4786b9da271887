"""Per-layer metrics and cross-layer checks from the calls of a traced phase.

A phase is the traced graph build ("setup") or one traced pipeline call
("round-<i>"). Time metrics are self times of the layer's spans; counts are
computed from the arguments and results the tracer kept.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

import checks
from checks import interval_bounds, labeled_array
from linkconformal.model import ModelConfig
from linkconformal.quantile import QuantileConfig

PIPELINE_SPAN = "pipeline"
SUBSETS = ("train", "val", "calib", "test")

# time metric -> span name
TIME_METRICS = {
    "graph.negative_sample_s": "graph.negative_sample",
    "graph.split_edges_s": "graph.split_edges",
    "graph.training_subgraph_s": "graph.training_subgraph",
    "graph.degree_sequence_s": "graph.degree_sequence",
    "graph.generate_s": "graph.generate",
    "graph.inject_cliques_s": "graph.inject_cliques",
    "model.train_s": "model.train",
    "model.encode_s": "model.encode",
    "model.edge_embeddings_s": "model.edge_embeddings",
    "quantile.fit_s": "quantile.fit",
    "conformal.conformalize_s": "conformal.conformalize",
    "conformal.evaluate_s": "conformal.evaluate",
    "powerlaw.fit_s": "powerlaw.fit",
    "powerlaw.hurwitz_zeta_s": "powerlaw.hurwitz_zeta",
    "sampling.sample_edges_s": "sampling.sample_edges",
    "pipeline.self_s": PIPELINE_SPAN,
}

# rate metric -> (numerator, denominator), both additive metrics
RATIO_METRICS = {
    "model.train_steps_per_s": ("model.train_steps", "model.train_s"),
    "quantile.steps_per_s": ("quantile.steps", "quantile.fit_s"),
    "sampling.retention": ("sampling.edges_kept", "sampling.edges_offered"),
}


def phase_metrics(tracer, phase: str) -> dict:
    """Additive metrics (self times and counts) of one phase."""
    self_times = tracer.self_times(phase)
    out = {metric: self_times.get(span, 0.0) for metric, span in TIME_METRICS.items()}

    def calls(name):
        return tracer.calls_named(name, phase)

    out["graph.labeled_edges"] = sum(
        len(getattr(c.result, s)) for c in calls("graph.split_edges") for s in SUBSETS
    )
    steps = 0
    for c in calls("model.train"):
        cfg = c.args["config"] or ModelConfig()
        steps += cfg.epochs * math.ceil(len(c.args["train"]) / cfg.batch_size)
    out["model.train_steps"] = steps
    out["model.edge_embeddings_calls"] = len(calls("model.edge_embeddings"))
    fits = calls("quantile.fit")
    out["quantile.fit_calls"] = len(fits)
    steps = 0
    for c in fits:
        cfg = c.args["config"] or QuantileConfig()
        steps += cfg.epochs * math.ceil(np.size(c.args["labels"]) / cfg.batch_size)
    out["quantile.steps"] = steps
    out["conformal.intervals"] = sum(len(c.result[0]) for c in calls("conformal.conformalize"))
    out["powerlaw.fit_calls"] = len(calls("powerlaw.fit"))
    out["powerlaw.hurwitz_zeta_offsets"] = sum(np.size(c.args["a"]) for c in calls("powerlaw.hurwitz_zeta"))
    samples = calls("sampling.sample_edges")
    out["sampling.edges_offered"] = sum(len(c.args[s]) for c in samples for s in SUBSETS[:3])
    out["sampling.edges_kept"] = sum(len(kept) for c in samples for kept in c.result)
    return out


def combine(setup: dict, rounds: list) -> dict:
    """Set-up phase plus the median round; rates from each round, then the median."""
    out = {name: setup[name] + statistics.median(r[name] for r in rounds) for name in setup}
    for name, (num, den) in RATIO_METRICS.items():
        out[name] = statistics.median(r[num] / r[den] if r[den] else 0.0 for r in rounds)
    return out


def check_phase(check, tracer, phase: str, records) -> None:
    """Checks (a), (c), (d) and (e) on the calls of one traced pipeline call.

    ``records`` are the (arm, coverage, avg_length) of the successful arm
    runs, in the order the program ran them.
    """

    def calls(name):
        return tracer.calls_named(name, phase)

    for c in calls("graph.negative_sample"):
        graph = c.args["graph"]
        check("(c) negatives", checks.check_negatives,
              graph.edge_array(), graph.num_nodes, c.result, c.args["count"])
    for c in calls("graph.split_edges"):
        subsets = {s: labeled_array(getattr(c.result, s)) for s in SUBSETS}
        check("(c) split", checks.check_split, c.args["positives"], c.args["negatives"], subsets)
    for c in calls("graph.training_subgraph"):
        split = c.args["split"]
        check("(c) training subgraph", checks.check_training_subgraph,
              c.result.edge_array(), labeled_array(split.train), labeled_array(split.val))
    for c in calls("sampling.sample_edges"):
        inputs = [labeled_array(c.args[s]) for s in SUBSETS[:3]]
        outputs = [labeled_array(kept) for kept in c.result]
        check("(d) sampled subsets", checks.check_sampled, inputs, outputs)
    for c in calls("powerlaw.fit"):
        fit = c.result
        check("(e) power-law fit", checks.check_power_law_fit,
              c.args["degrees"], fit.beta_hat, fit.d_min, fit.ks)

    conformalized = calls("conformal.conformalize")
    evaluated = calls("conformal.evaluate")
    if not len(conformalized) == len(evaluated) == len(records):
        check.failures.append(
            f"(a) conformal: {len(conformalized)} conformalize calls, "
            f"{len(evaluated)} evaluate calls, {len(records)} arm records"
        )
        return
    for conf, ev, (arm, coverage, avg_length) in zip(conformalized, evaluated, records):
        qmodel = conf.args["qmodel"]
        expected = checks.expected_intervals(
            qmodel.quantiles(conf.args["calib_embeddings"]),
            conf.args["calib_labels"],
            qmodel.quantiles(conf.args["test_embeddings"]),
            conf.args["alpha"],
        )
        lower, upper = interval_bounds(conf.result[0])
        check(f"(a) conformalize, {arm} arm", checks.check_conformalize,
              expected, lower, upper, conf.result[1])
        check(f"(a) trial record, {arm} arm", checks.check_record,
              expected, ev.args["labels"], coverage, avg_length)

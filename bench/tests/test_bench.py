"""Tests of the benchmark itself: each check rejects a known-bad input, the
traced layers report every per-layer metric, and the printer covers
BENCHMARK.json.

Run from the repository root: ``python -m pytest bench/tests``.
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import layers
import run
from checks import CheckFailed, labeled_array
from tracing import Tracer

import linkconformal as lc
from linkconformal.config import RunConfig
from linkconformal.model import ModelConfig
from linkconformal.pipeline import load_graph, run_pipeline
from linkconformal.quantile import QuantileConfig


@pytest.fixture(scope="module")
def graph():
    g = lc.generate_powerlaw_graph(300, 2.5, 1, seed=3)
    return lc.inject_cliques(g, 8, 3, seed=4)


@pytest.fixture(scope="module")
def pool(graph):
    positives = sorted(graph.edges)
    return positives, lc.negative_sample(graph, len(positives), seed=5)


@pytest.fixture(scope="module")
def split(pool):
    return lc.split_edges(*pool, (0.5, 0.1, 0.2, 0.2), seed=6)


def _subsets(split):
    return {name: labeled_array(getattr(split, name)) for name in ("train", "val", "calib", "test")}


# --- (a) conformal ---------------------------------------------------------------


def _bands(n, rng):
    centre = rng.random(n)
    half = rng.random(n) * 0.3
    return np.stack([centre - half, centre + half], axis=1)


def test_conformal_check_accepts_program_output():
    rng = np.random.default_rng(0)
    calib, test = _bands(200, rng), _bands(50, rng)
    y = rng.integers(0, 2, 200).astype(float)

    class Bands:
        def quantiles(self, z):
            return z

    intervals, q_hat = lc.conformalize(Bands(), calib, y, test, 0.1)
    expected = checks.expected_intervals(calib, y, test, 0.1)
    checks.check_conformalize(expected, *checks.interval_bounds(intervals), q_hat)


def test_conformal_check_rejects_q_hat_off_by_one_rank():
    rng = np.random.default_rng(1)
    calib, test = _bands(200, rng), _bands(50, rng)
    y = rng.integers(0, 2, 200).astype(float)
    lower, upper, q_hat = checks.expected_intervals(calib, y, test, 0.1)
    scores = np.sort(np.maximum(calib[:, 0] - y, y - calib[:, 1]))
    k = checks.conformal_rank(200, 0.1)
    assert scores[k - 1] == q_hat
    for wrong in (scores[k - 2], scores[k]):
        bad = (test[:, 0] - wrong, test[:, 1] + wrong)
        with pytest.raises(CheckFailed):
            checks.check_conformalize((lower, upper, q_hat), *bad, wrong)


def test_conformal_rank_is_exact_at_integer_boundaries():
    # (K+1)(1-alpha) = 900 exactly: the 900th score, not the 901st
    assert checks.conformal_rank(999, 0.1) == 900
    assert checks.conformal_rank(9, 0.1) == 9


def test_record_check_rejects_wrong_coverage():
    lower, upper = np.array([0.0, 0.5]), np.array([1.0, 0.6])
    y = np.array([1.0, 0.0])
    checks.check_record((lower, upper, 0.0), y, 0.5, 0.55)
    with pytest.raises(CheckFailed):
        checks.check_record((lower, upper, 0.0), y, 1.0, 0.55)
    with pytest.raises(CheckFailed):
        checks.check_record((lower, upper, 0.0), y, 0.5, 0.6)


# --- (b) plain coverage ----------------------------------------------------------


def test_plain_coverage_band():
    checks.check_plain_coverage(0.905, 0.1, 1000, 1000, 1)
    with pytest.raises(CheckFailed):
        checks.check_plain_coverage(0.80, 0.1, 1000, 1000, 1)
    with pytest.raises(CheckFailed):
        checks.check_plain_coverage(0.99, 0.1, 1000, 1000, 1)


def test_quota_sizes_match_split(split, pool):
    sizes = checks.quota_sizes(len(pool[0]), (0.5, 0.1, 0.2, 0.2))
    assert [len(getattr(split, s)) for s in ("train", "val", "calib", "test")] == [2 * n for n in sizes]


# --- (c) graph layer ---------------------------------------------------------------


def test_split_check_accepts_program_split(pool, split):
    checks.check_split(*pool, _subsets(split))


def test_split_check_rejects_overlap(pool, split):
    subsets = _subsets(split)
    # swap one calib positive for a train positive: sizes and balance hold
    calib = subsets["calib"].copy()
    pos_row = np.flatnonzero(calib[:, 2] == 1)[0]
    calib[pos_row] = subsets["train"][subsets["train"][:, 2] == 1][0]
    subsets["calib"] = calib
    with pytest.raises(CheckFailed, match="overlap"):
        checks.check_split(*pool, subsets)


def test_split_check_rejects_imbalance_and_missing_edges(pool, split):
    subsets = _subsets(split)
    subsets["test"] = subsets["test"][1:]
    with pytest.raises(CheckFailed):
        checks.check_split(*pool, subsets)


def test_negatives_check(graph, pool):
    negatives = pool[1]
    checks.check_negatives(graph.edge_array(), graph.num_nodes, negatives, len(negatives))
    bad = list(negatives)
    bad[0] = pool[0][0]
    with pytest.raises(CheckFailed, match="is an edge"):
        checks.check_negatives(graph.edge_array(), graph.num_nodes, bad, len(bad))
    bad = list(negatives)
    bad[1] = bad[0]
    with pytest.raises(CheckFailed, match="repeat"):
        checks.check_negatives(graph.edge_array(), graph.num_nodes, bad, len(bad))


def test_training_subgraph_check(graph, split):
    sub = lc.training_subgraph(graph, split)
    train, val = labeled_array(split.train), labeled_array(split.val)
    checks.check_training_subgraph(sub.edge_array(), train, val)
    with pytest.raises(CheckFailed):
        checks.check_training_subgraph(sub.edge_array()[1:], train, val)


# --- (d) sampling layer --------------------------------------------------------------


def test_sampled_check(graph, split):
    sub = lc.training_subgraph(graph, split)
    cfg = lc.SamplerConfig(lam=2.4, mode="literal", seed=7)
    kept = lc.sample_edges(split.train, split.val, split.calib, sub, cfg)
    inputs = [labeled_array(s) for s in (split.train, split.val, split.calib)]
    outputs = [labeled_array(s) for s in kept]
    checks.check_sampled(inputs, outputs)
    unbalanced = [outputs[0][outputs[0][:, 2] == 1], outputs[1], outputs[2]]
    with pytest.raises(CheckFailed, match="balanced"):
        checks.check_sampled(inputs, unbalanced)
    foreign = [o.copy() for o in outputs]
    foreign[2][0] = labeled_array(split.test)[0]
    with pytest.raises(CheckFailed, match="not offered"):
        checks.check_sampled(inputs, foreign)


# --- (e) power-law layer ---------------------------------------------------------------


def test_power_law_check(graph):
    degrees = lc.degree_sequence(graph, drop_isolated=True)
    fit = lc.fit_power_law(degrees)
    checks.check_power_law_fit(degrees, fit.beta_hat, fit.d_min, fit.ks)
    with pytest.raises(CheckFailed, match="KS"):
        checks.check_power_law_fit(degrees, fit.beta_hat, fit.d_min, fit.ks + 1e-6)
    with pytest.raises(CheckFailed, match="beta_hat"):
        checks.check_power_law_fit(degrees, fit.beta_hat * 1.01, fit.d_min, fit.ks)


# --- (f) reproducibility -------------------------------------------------------------


def test_identical_check():
    checks.check_identical([b"a", b"a"])
    with pytest.raises(CheckFailed):
        checks.check_identical([b"a", b"a", b"b"])


# --- traced layers and the printer -----------------------------------------------------


def _tiny_config():
    return RunConfig(
        alpha=0.1, seed=3, n_splits=1, n_reps=1, synth_nodes=300, clique_m=8, clique_n=3,
        feature_dim=8, sampler_lambda=2.4, sampler_mode="literal",
        model=ModelConfig(hidden_dim=8, num_layers=2, epochs=3, learning_rate=0.1, batch_size=512),
        quantile=QuantileConfig(epochs=3, learning_rate=2e-2, batch_size=128, hidden_dim=8),
    )


def test_traced_run_checks_pass_and_cover_every_layer_metric():
    config = _tiny_config()
    tracer = Tracer(phase="setup")
    with tracer.installed():
        graph = load_graph(config)
    setup = layers.phase_metrics(tracer, "setup")
    tracer.drop_calls()
    tracer.phase = "round-0"
    with tracer.installed(), tracer.span(layers.PIPELINE_SPAN):
        report = run_pipeline(config, graph=graph)
    check = run.Checker()
    layers.check_phase(check, tracer, "round-0", run.arm_records(report)[0])
    assert check.failures == []
    values = layers.combine(setup, [layers.phase_metrics(tracer, "round-0")])
    values.update(run.mean_lengths(report))
    values.update({"trace.overhead_s": 0.0, "src.lines": 1})
    names = {m["name"] for m in run.load_spec()["per_layer"]}
    assert set(values) == names
    assert values["powerlaw.fit_calls"] == 3  # subgraph, sampler, sampled graph
    assert values["model.edge_embeddings_calls"] == 6  # three subsets per arm
    # the wrappers are removed again
    import linkconformal.pipeline as pipeline_mod
    assert pipeline_mod.split_edges is lc.split_edges


def test_traced_check_catches_a_wrong_record():
    config = _tiny_config()
    graph = load_graph(config)
    tracer = Tracer(phase="round-0")
    with tracer.installed():
        report = run_pipeline(config, graph=graph)
    records = run.arm_records(report)[0]
    arm, coverage, length = records[0]
    check = run.Checker()
    layers.check_phase(check, tracer, "round-0", [(arm, coverage, length + 0.01)] + records[1:])
    assert any("(a) trial record" in f for f in check.failures)


@pytest.mark.parametrize("section", ["end_to_end", "per_layer"])
def test_printer_prints_every_metric_with_its_unit(section):
    specs = run.load_spec()[section]
    values = {m["name"]: 1.25 for m in specs}
    result = json.loads(run.result_line(True, 4, 0, values, specs))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in specs}
    assert all(m["value"] == 1.25 for m in result["metrics"].values())
    del values[specs[0]["name"]]
    with pytest.raises(KeyError):
        run.result_line(True, 4, 0, values, specs)


def test_fails_without_program_source(tmp_path):
    shutil.copy(run.SPEC_FILE, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "acceptance-trial", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

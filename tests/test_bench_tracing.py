"""The bench tracer's contract with the program.

``bench/tracing.py`` times each stage by replacing a module attribute,
such as ``pipeline.split_edges`` or ``graph.hurwitz_zeta``, for the span
of a traced call. A module that stops calling a stage through its own
module-level name would break only the bench, so every target is checked
here. The bench's output checks also read traced arguments by parameter
name and results by type, so one traced run must pass them too.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from linkconformal.config import RunConfig
from linkconformal.model import ModelConfig
from linkconformal.pipeline import load_graph, run_pipeline, sweep_cliques, sweep_lambda
from linkconformal.quantile import QuantileConfig

from test_pipeline import tiny_config

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_bench_module(monkeypatch, name):
    """Import ``bench/<name>.py`` under its plain name, removed again after the test."""
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_is_a_callable_module_attribute(monkeypatch):
    tracing = _load_bench_module(monkeypatch, "tracing")
    assert tracing.TARGETS
    broken = [
        f"{module.__name__}.{attr}"
        for module, attr, _ in tracing.TARGETS
        if not callable(getattr(module, attr, None))
    ]
    assert broken == []


def test_traced_run_passes_the_bench_output_checks(monkeypatch):
    # The bench modules import each other by plain name, some inside functions.
    monkeypatch.syspath_prepend(str(BENCH))
    _, tracing, layers, run = (_load_bench_module(monkeypatch, name)
                               for name in ("checks", "tracing", "layers", "run"))
    # The 300-node, both-arm config of the bench's own traced-run test.
    config = RunConfig(
        alpha=0.1, seed=3, n_splits=1, n_reps=1, synth_nodes=300, clique_m=8, clique_n=3,
        feature_dim=8, sampler_lambda=2.4, sampler_mode="literal",
        model=ModelConfig(hidden_dim=8, num_layers=2, epochs=3, learning_rate=0.1, batch_size=512),
        quantile=QuantileConfig(epochs=3, learning_rate=2e-2, batch_size=128, hidden_dim=8),
    )
    tracer = tracing.Tracer()
    with tracer.installed():
        report = run_pipeline(config, graph=load_graph(config))
    records, errors = run.arm_records(report)
    assert (len(records), errors) == (2, 0)
    check = run.Checker()
    layers.check_phase(check, tracer, tracer.phase, records)
    assert check.failures == []


# Each trial fits its training subgraph once, for ks_before and every sampled
# arm; each sampled arm fits its sampled graph once, for ks_after; and
# sweep_cliques fits the base graph once for every n = 0 variant, and not at
# all on a grid without an n = 0 point.
@pytest.mark.parametrize("run, fits", [
    # ks_before, then ks_after of the one sampled arm
    (lambda: run_pipeline(tiny_config(n_splits=1, n_reps=1)), 2),
    # ks_before, then one ks_after per lambda
    (lambda: sweep_lambda(tiny_config(sampler_mode="directional"), [0.5, 1.0, 4.0]), 4),
    # the golden grid: six plain trials, the base graph, two injected variants
    (lambda: sweep_cliques(tiny_config(run_sampled_arm=False), [(5, 0), (8, 2), (9, 0)],
                           n_variants=2), 9),
    # no n = 0 point: two plain trials and two injected variants
    (lambda: sweep_cliques(tiny_config(run_sampled_arm=False), [(8, 2)], n_variants=2), 4),
], ids=["run_pipeline", "sweep_lambda", "sweep_cliques", "sweep_cliques_no_base_point"])
def test_power_law_fit_count(monkeypatch, run, fits):
    tracing = _load_bench_module(monkeypatch, "tracing")
    tracer = tracing.Tracer()
    with tracer.installed():
        run()
    assert len(tracer.calls_named("powerlaw.fit")) == fits

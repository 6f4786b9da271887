"""The benchmark's workloads: inputs built from a seed, and the pipeline call.

Each workload is a RunConfig derived from the workload seed, the graph that
``load_graph`` builds from it. A round is one ``run_pipeline`` call on that
graph; the rounds of one invocation repeat the same call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

from linkconformal.config import RunConfig
from linkconformal.model import ModelConfig
from linkconformal.quantile import QuantileConfig

# The link model and quantile net of acceptance criterion 9.
STRONG_MODEL = ModelConfig(hidden_dim=32, num_layers=2, epochs=300, learning_rate=0.1,
                           batch_size=4096, scorer_hidden_dim=32)
STRONG_QNET = QuantileConfig(epochs=300, learning_rate=2e-2, batch_size=256, hidden_dim=32)
# One-epoch nets for the 10^5-node graph, so that the edge layers dominate.
LARGE_MODEL = ModelConfig(hidden_dim=16, num_layers=2, epochs=1, learning_rate=0.1,
                          batch_size=32768, scorer_hidden_dim=16)
LARGE_QNET = QuantileConfig(epochs=1, learning_rate=2e-2, batch_size=1024, hidden_dim=16)


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    make_config: Callable[[int], RunConfig]


def _acceptance_config(seed: int) -> RunConfig:
    return RunConfig(
        alpha=0.1, seed=seed, n_splits=1, n_reps=1,
        synth_nodes=2000, synth_beta=2.5, synth_d_min=1,
        clique_m=25, clique_n=5, feature_dim=32,
        model=STRONG_MODEL, quantile=STRONG_QNET,
        sampler_lambda=2.4, sampler_mode="literal", sampler_agg="sum",
    )


def _large_config(seed: int) -> RunConfig:
    return RunConfig(
        alpha=0.1, seed=seed, n_splits=1, n_reps=1,
        synth_nodes=100_000, synth_beta=2.5, synth_d_min=1,
        clique_m=50, clique_n=20, feature_dim=16,
        model=LARGE_MODEL, quantile=LARGE_QNET,
        sampler_lambda=1.0, sampler_mode="directional", sampler_agg="sum",
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("acceptance-trial", 555, _acceptance_config),
        Workload("large-graph", 1, _large_config),
    )
}


def result_bytes(report) -> bytes:
    """Canonical serialization of a report, for byte comparison."""
    return json.dumps(report.to_dict(), indent=2).encode("utf-8")

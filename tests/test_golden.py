"""Pinned fixed-seed reports: every refactor that claims to preserve
behaviour must reproduce them byte for byte.

The files under ``tests/golden/`` were written by ``write_report``: three
``run_pipeline`` reports, and one ``{"rows": [...]}`` payload per sweep,
the form the CLI writes. Rewrite them only in a change that means to alter
reports, and say why. With names, only those files are rewritten, so that
adding a golden leaves the others untouched; without, all of them are:

    PYTHONPATH=src python tests/test_golden.py [NAME ...]

The benchmark's two workloads are pinned too, by the sha256 of their
``bench/workloads.result_bytes`` at one BLAS thread: their reports are
larger, and their bytes depend on the thread count (four dense products
reduce in another order at another count).
"""

import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from linkconformal.model import ModelConfig
from linkconformal.pipeline import run_pipeline, sweep_cliques, sweep_lambda, write_report
from linkconformal.quantile import QuantileConfig

from test_pipeline import TINY_MODEL, tiny_config

GOLDEN_DIR = Path(__file__).parent / "golden"
ROOT = Path(__file__).resolve().parents[1]


def rejection_config():
    # Ten times tiny_config's nodes, two splits and the directional
    # sampler, kept to about a second by 2-epoch nets.
    return tiny_config(
        seed=2024, n_splits=2, synth_nodes=3000, clique_m=10, clique_n=5, feature_dim=8,
        sampler_lambda=1.0, sampler_mode="directional",
        model=ModelConfig(hidden_dim=16, num_layers=2, epochs=2, learning_rate=0.1,
                          batch_size=4096, scorer_hidden_dim=16),
        quantile=QuantileConfig(epochs=2, learning_rate=2e-2, batch_size=256, hidden_dim=16),
    )


def _rows(rows):
    return {"rows": [asdict(r) for r in rows]}


GOLDEN = {
    "tiny.json": lambda: run_pipeline(tiny_config()),
    "rejection_3000.json": lambda: run_pipeline(rejection_config()),
    # The mean-neighbor operator, through structural features and training.
    "mean_neighbor.json": lambda: run_pipeline(tiny_config(
        feature_mode="structural", model=replace(TINY_MODEL, aggregation="mean-neighbor")
    )),
    "sweep_lambda.json": lambda: _rows(sweep_lambda(
        tiny_config(n_splits=2, sampler_mode="directional"), [0.5, 1.0, 4.0]
    )),
    # agg="max" in both modes: literal rows first, then directional.
    "sampler_max.json": lambda: _rows([
        row for mode in ("literal", "directional")
        for row in sweep_lambda(
            tiny_config(n_splits=2, sampler_mode=mode, sampler_agg="max"), [0.5, 2.0]
        )
    ]),
    # (5, 0) and (9, 0) are both the uninjected base graph.
    "sweep_cliques.json": lambda: _rows(sweep_cliques(
        tiny_config(run_sampled_arm=False), [(5, 0), (8, 2), (9, 0)], n_variants=2
    )),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_matches_golden(name, tmp_path):
    path = tmp_path / name
    write_report(GOLDEN[name](), path)
    assert path.read_bytes() == (GOLDEN_DIR / name).read_bytes()


# Leading 16 hex digits of each workload's report sha256, at its default seed.
BENCH_HASHES = {"acceptance-trial": "aa1a220faf45a923", "large-graph": "a77f2e67a573c7a8"}

_HASH_WORKLOADS = """
import hashlib, sys
from linkconformal.pipeline import load_graph, run_pipeline
from workloads import WORKLOADS, result_bytes
for name in sys.argv[1:]:
    config = WORKLOADS[name].make_config(WORKLOADS[name].default_seed)
    report = run_pipeline(config, graph=load_graph(config))
    print(name, hashlib.sha256(result_bytes(report)).hexdigest()[:16])
"""


def test_bench_workload_reports_match_their_pinned_hashes():
    # A subprocess, because OpenBLAS reads its thread count when it loads.
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench"), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", _HASH_WORKLOADS, *BENCH_HASHES], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert dict(line.split() for line in proc.stdout.splitlines()) == BENCH_HASHES


if __name__ == "__main__":
    names = sys.argv[1:] or list(GOLDEN)
    unknown = sorted(set(names) - set(GOLDEN))
    if unknown:
        raise SystemExit(f"unknown golden(s) {unknown}; known: {sorted(GOLDEN)}")
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in names:
        write_report(GOLDEN[name](), GOLDEN_DIR / name)

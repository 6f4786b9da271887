"""The public API's integer rule, for every export of ``linkconformal``.

Every parameter annotated ``int`` (or ``Optional[int]``) of every callable
that ``linkconformal/__init__.py`` exports takes a Python or NumPy integer
of at least its floor. A bool, a float (even a whole one) or NaN, and an
integer below the floor, raise ValueError whose message starts with the
parameter's name. Seeds are checked where they are used, in
``seeding.derive_rng``/``derive_seed``, so a ``seed`` argument follows the
same rule as a count.

TABLE holds, per export with integer parameters, a factory of valid keyword
arguments and each integer parameter's floor. NO_INTEGER_PARAMETER lists the
other exports. A completeness check fails when an export is in neither, or
when the table's parameters differ from the annotations.
"""

import functools
import inspect
import math
import re
import typing
from typing import Optional

import numpy as np
import pytest

import linkconformal as lc

from test_pipeline import tiny_config

BAD_TYPES = (True, 1.5, 2.0, math.nan)
TINY_MODEL = lc.ModelConfig(hidden_dim=4, num_layers=1, epochs=0, batch_size=8, scorer_hidden_dim=4)
TINY_QNET = lc.QuantileConfig(epochs=1, batch_size=8, hidden_dim=4)


@functools.cache
def _graph():
    """A 10-node ring with 3-wide features."""
    edges = [(i, (i + 1) % 10) for i in range(10)]
    return lc.Graph(10, edges, np.random.default_rng(0).standard_normal((10, 3)))


@functools.cache
def _labeled_rows():
    """(train, val) labeled rows on ``_graph``: ring edges as positives, chords as negatives."""
    pos = [(i, (i + 1) % 10, 1) for i in range(10)]
    neg = [(i, (i + 5) % 10, 0) for i in range(5)] + [(i, (i + 3) % 10, 0) for i in range(5)]
    return np.array(pos[:8] + neg[:8]), np.array(pos[8:] + neg[8:])


@functools.cache
def _link_params():
    train, val = _labeled_rows()
    return lc.train_link_predictor(_graph(), train, val, TINY_MODEL, seed=0)


@functools.cache
def _quantile_data():
    rng = np.random.default_rng(1)
    return rng.standard_normal((16, 3)), rng.integers(0, 2, 16).astype(np.float64)


@functools.cache
def _quantile_model():
    z, y = _quantile_data()
    return lc.fit_quantile_functions(z, y, 0.2, TINY_QNET, seed=0)


def _pool():
    pos = [(i, (i + 1) % 10) for i in range(10)]
    neg = [(i, (i + 5) % 10) for i in range(5)] + [(i, (i + 3) % 10) for i in range(5)]
    return dict(positives=pos, negatives=neg)


# export name -> (valid keyword arguments, {integer parameter: floor})
TABLE = {
    "RunConfig": (dict, {"seed": 0, "n_splits": 1, "n_reps": 1, "feature_dim": 1, "synth_nodes": 10,
                         "synth_d_min": 1, "clique_m": 0, "clique_n": 0}),
    "ModelConfig": (dict, {"hidden_dim": 1, "num_layers": 1, "epochs": 0, "batch_size": 1, "scorer_hidden_dim": 1}),
    "QuantileConfig": (dict, {"epochs": 0, "batch_size": 1, "hidden_dim": 1}),
    "SamplerConfig": (dict, {"seed": 0}),
    "TrialRecord": (lambda: dict(arm="cqr", split=0, rep=0, seed=0), {"split": 0, "rep": 0, "seed": 0}),
    "Graph": (lambda: dict(num_nodes=3, edges=[(0, 1)]), {"num_nodes": 1}),
    "load_features": (lambda: dict(text="0 1.5\n", num_nodes=2), {"num_nodes": 1}),
    "ensure_features": (lambda: dict(graph=lc.Graph(4, [(0, 1)]), dim=2, seed=0), {"dim": 1, "seed": 0}),
    "structural_features": (lambda: dict(graph=_graph(), dim=2, seed=0), {"dim": 1, "seed": 0}),
    "generate_powerlaw_graph": (lambda: dict(num_nodes=20, beta=2.5, d_min=1, seed=0),
                                {"num_nodes": 10, "d_min": 1, "seed": 0}),
    "generate_latent_powerlaw_graph": (lambda: dict(num_nodes=20, beta=2.5, d_min=1, feature_dim=2, seed=0),
                                       {"num_nodes": 10, "d_min": 1, "feature_dim": 1, "seed": 0}),
    "inject_cliques": (lambda: dict(graph=_graph(), m=3, n=1, seed=0), {"m": 2, "n": 0, "seed": 0}),
    "negative_sample": (lambda: dict(graph=_graph(), count=2, seed=0), {"count": 0, "seed": 0}),
    "split_edges": (lambda: dict(**_pool(), ratios=(0.5, 0.1, 0.2, 0.2), seed=0), {"seed": 0}),
    "train_link_predictor": (lambda: dict(subgraph=_graph(), train=_labeled_rows()[0], val=_labeled_rows()[1],
                                          config=TINY_MODEL, seed=0), {"seed": 0}),
    "gradient_check": (lambda: dict(params=_link_params(), batch=_labeled_rows()[0], graph=_graph(), step=1e-5,
                                    n_coords=2, seed=0), {"n_coords": 1, "seed": 0}),
    "fit_quantile_functions": (lambda: dict(embeddings=_quantile_data()[0], labels=_quantile_data()[1], alpha=0.2,
                                            config=TINY_QNET, seed=0), {"seed": 0}),
    "quantile_gradient_check": (lambda: dict(model=_quantile_model(), embeddings=_quantile_data()[0],
                                             labels=_quantile_data()[1], step=1e-6, n_coords=2, seed=0),
                                {"n_coords": 1, "seed": 0}),
    "pareto_sequence": (lambda: dict(x_m=1.0, beta_hat=2.0, count=5, seed=0), {"count": 1, "seed": 0}),
    "PowerLawFit": (lambda: dict(beta_hat=2.5, d_min=1, ks=0.1, tail_size=5), {"d_min": 1, "tail_size": 1}),
    "estimate_beta": (lambda: dict(degrees=[1, 2, 3], d_min=1), {"d_min": 1}),
    "ks_statistic": (lambda: dict(degrees=[1, 2, 3], beta=2.5, d_min=1), {"d_min": 1}),
    "powerlaw_cdf": (lambda: dict(d=3, beta=2.5, d_min=1), {"d_min": 1}),
    "fit_power_law": (lambda: dict(degrees=[1, 2, 2, 3], min_tail=1), {"min_tail": 1}),
    "adaptive_min_tail": (lambda: dict(num_degrees=100), {"num_degrees": 0}),
    "sweep_cliques": (lambda: dict(config=tiny_config(synth_nodes=30, clique_n=0), grid=[(2, 0)], n_variants=1),
                      {"n_variants": 1}),
}

NO_INTEGER_PARAMETER = {
    "CapacityError", "ConformalReport", "DegenerateCalibrationError", "EdgeListParseError", "EdgeSplit",
    "ExperimentReport", "ModelParams", "QuantileModel", "build_run_config", "config_echo", "conformal_quantile",
    "conformalize", "degree_sequence", "edge_embeddings", "encode_nodes", "evaluate", "hurwitz_zeta",
    "keep_probabilities", "load_edge_list", "nonconformity", "parse_config_text", "pinball_loss",
    "prediction_interval", "run_pipeline", "sample_edges", "sweep_lambda", "training_subgraph", "write_csv",
    "write_report",
}


def integer_parameters(obj) -> set:
    """Names of the parameters of ``obj`` (its ``__init__`` for a class) annotated int or Optional[int]."""
    target = obj.__init__ if inspect.isclass(obj) else obj
    if not inspect.isfunction(target):  # a builtin __init__, as an exception class inherits
        return set()
    hints = typing.get_type_hints(target)
    return {name for name, hint in hints.items() if name != "return" and hint in (int, Optional[int])}


def test_every_export_is_in_the_table():
    exports = {name for name in dir(lc) if not name.startswith("_") and callable(getattr(lc, name))}
    assert set(TABLE) | NO_INTEGER_PARAMETER == exports
    assert not set(TABLE) & NO_INTEGER_PARAMETER
    for name in NO_INTEGER_PARAMETER:
        assert integer_parameters(getattr(lc, name)) == set(), name
    for name, (_, floors) in TABLE.items():
        assert set(floors) == integer_parameters(getattr(lc, name)), name


@pytest.mark.parametrize("name", sorted(TABLE))
def test_table_arguments_are_valid(name):
    # So that each bad case below fails on its one bad value; NumPy integers pass.
    factory, floors = TABLE[name]
    getattr(lc, name)(**factory())
    for param, low in floors.items():
        getattr(lc, name)(**{**factory(), param: np.int64(factory().get(param, low))})


CASES = [
    pytest.param(name, param, bad, id=f"{name}-{param}-{bad!r}")
    for name, (_, floors) in sorted(TABLE.items())
    for param, low in floors.items()
    for bad in (*BAD_TYPES, low - 1)
]


@pytest.mark.parametrize("name, param, bad", CASES)
def test_bad_integer_names_its_parameter(name, param, bad):
    factory, _ = TABLE[name]
    rule = "an integer" if isinstance(bad, (bool, float)) else f">= {bad + 1}"
    with pytest.raises(ValueError, match=f"^{re.escape(param)} must be {rule}, got {re.escape(repr(bad))}$"):
        getattr(lc, name)(**{**factory(), param: bad})

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

The real rule is the same for every parameter annotated ``float`` (or
``Optional[float]``), and for each entry of ``QuantileModel.levels`` and of
the split ``ratios``: a real number (Python or NumPy, not bool) in the
parameter's interval, or ValueError reading "{name} must be a real number,
got ..." or "{name} must lie in (low, high), got ...", with "[" or "]"
where the interval is closed. NaN lies in no interval, and an infinity only
in one closed at it. REAL_TABLE holds each such parameter's interval, and
REAL_SEQUENCES each such entry's; a second completeness check fails on a
float parameter missing from REAL_TABLE.
"""

import dataclasses
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


INF = math.inf
TRAINING_REALS = {"learning_rate": (0, INF, "[)"), "momentum": (0, 1, "[)")}

# export name -> (valid keyword arguments, {real parameter: (low, high, ends[, the name its error uses])})
REAL_TABLE = {
    "RunConfig": (dict, {"alpha": (0, 1, "()"), "synth_beta": (1, INF, "()"),
                         "sampler_lambda": (0, INF, "[)", "lambda")}),  # checked by RunConfig.sampler()
    "ModelConfig": (dict, TRAINING_REALS),
    "QuantileConfig": (dict, TRAINING_REALS),
    "SamplerConfig": (dict, {"lam": (0, INF, "[)", "lambda")}),
    "PowerLawFit": (TABLE["PowerLawFit"][0], {"beta_hat": (1, INF, "()"), "ks": (0, 1, "[]")}),
    "conformal_quantile": (lambda: dict(scores=[0.1, 0.2, 0.3], alpha=0.5), {"alpha": (0, 1, "()")}),
    "conformalize": (lambda: dict(qmodel=_quantile_model(), calib_embeddings=_quantile_data()[0],
                                  calib_labels=_quantile_data()[1], test_embeddings=_quantile_data()[0][:4],
                                  alpha=0.2), {"alpha": (0, 1, "()")}),
    "fit_quantile_functions": (TABLE["fit_quantile_functions"][0], {"alpha": (0, 1, "()")}),
    "pinball_loss": (lambda: dict(prediction=0.5, target=1.0, gamma=0.3), {"gamma": (0, 1, "()")}),
    "prediction_interval": (lambda: dict(lower=[0.0], upper=[1.0], q_hat=0.1), {"q_hat": (-INF, INF, "[]")}),
    "generate_powerlaw_graph": (TABLE["generate_powerlaw_graph"][0], {"beta": (1, INF, "()")}),
    "generate_latent_powerlaw_graph": (TABLE["generate_latent_powerlaw_graph"][0],
                                       {"beta": (1, INF, "()"), "homophily": (0, INF, "[)")}),
    "hurwitz_zeta": (lambda: dict(beta=2.5, a=1.0), {"beta": (1, INF, "()")}),
    "ks_statistic": (TABLE["ks_statistic"][0], {"beta": (1, INF, "()")}),
    "powerlaw_cdf": (TABLE["powerlaw_cdf"][0], {"beta": (1, INF, "()")}),
    "pareto_sequence": (TABLE["pareto_sequence"][0], {"x_m": (0, INF, "()"), "beta_hat": (0, INF, "()")}),
    "gradient_check": (TABLE["gradient_check"][0], {"step": (0, INF, "()")}),
    "quantile_gradient_check": (TABLE["quantile_gradient_check"][0], {"step": (0, INF, "()")}),
}

# Their float fields are results that the package computes (coverage, lengths, q_hat, KS distances), not
# arguments: a trial that fails carries None in them, and a q_hat of +inf is a legal result.
REAL_RESULTS = {"ConformalReport", "TrialRecord"}

# (export, sequence parameter) -> (valid keyword arguments, interval of each entry)
REAL_SEQUENCES = {
    ("QuantileModel", "levels"): (lambda: dataclasses.asdict(_quantile_model()), (0, 1, "()")),
    ("RunConfig", "ratios"): (dict, (0, INF, "[)")),
    ("split_edges", "ratios"): (TABLE["split_edges"][0], (0, INF, "[)")),
}


def real_parameters(obj) -> set:
    """Names of the parameters of ``obj`` (its ``__init__`` for a class) annotated float or Optional[float]."""
    target = obj.__init__ if inspect.isclass(obj) else obj
    if not inspect.isfunction(target):
        return set()
    hints = typing.get_type_hints(target)
    return {name for name, hint in hints.items() if name != "return" and hint in (float, Optional[float])}


def test_every_real_parameter_is_in_the_real_table():
    exports = {name for name in dir(lc) if not name.startswith("_") and callable(getattr(lc, name))}
    assert set(REAL_TABLE) <= exports and REAL_RESULTS <= exports and not set(REAL_TABLE) & REAL_RESULTS
    for name in sorted(exports - set(REAL_TABLE) - REAL_RESULTS):
        assert real_parameters(getattr(lc, name)) == set(), name
    for name, (_, intervals) in REAL_TABLE.items():
        assert set(intervals) == real_parameters(getattr(lc, name)), name


def _bad_reals(low, high, ends):
    """Both bools, NaN, each open end, a value just past each finite closed end, and each infinity outside."""
    bad = [True, False, math.nan]
    for end, bracket, past in ((low, ends[0], -0.5), (high, ends[1], 0.5)):
        if bracket in "()":
            bad.append(float(end))
        elif math.isfinite(end):
            bad.append(end + past)
    closed = _closed_ends(low, high, ends)
    return bad + [x for x in (-INF, INF) if x not in bad and x not in closed]


def _closed_ends(low, high, ends):
    return [end for end, bracket in ((low, ends[0]), (high, ends[1])) if bracket in "[]"]


def _message(name, low, high, ends, bad):
    rule = "be a real number" if isinstance(bad, bool) else f"lie in {ends[0]}{low}, {high}{ends[1]}"
    return f"^{re.escape(f'{name} must {rule}, got {bad!r}')}$"


def _default(name, param, factory):
    """The valid value of ``param``: the factory's, else the parameter's default."""
    return factory().get(param, inspect.signature(getattr(lc, name)).parameters[param].default)


@pytest.mark.parametrize("name", sorted(REAL_TABLE))
def test_real_table_arguments_are_valid(name):
    # Valid values pass as Python floats, as NumPy floats, and at each closed end.
    factory, intervals = REAL_TABLE[name]
    getattr(lc, name)(**factory())
    for param, (low, high, ends, *_) in intervals.items():
        for good in (np.float64(_default(name, param, factory)), *_closed_ends(low, high, ends)):
            getattr(lc, name)(**{**factory(), param: good})


REAL_CASES = [
    pytest.param(name, param, bad, id=f"{name}-{param}-{bad!r}")
    for name, (_, intervals) in sorted(REAL_TABLE.items())
    for param, interval in intervals.items()
    for bad in _bad_reals(*interval[:3])
]


@pytest.mark.parametrize("name, param, bad", REAL_CASES)
def test_bad_real_follows_the_rule(name, param, bad):
    factory, intervals = REAL_TABLE[name]
    low, high, ends, *error_name = intervals[param]
    with pytest.raises(ValueError, match=_message(error_name[0] if error_name else param, low, high, ends, bad)):
        getattr(lc, name)(**{**factory(), param: bad})


def _with_entry(name, param, index, value):
    """``name``'s valid keyword arguments with entry ``index`` of sequence ``param`` set to ``value``."""
    factory, _ = REAL_SEQUENCES[name, param]
    entries = list(_default(name, param, factory))
    entries[index] = value
    return {**factory(), param: tuple(entries)}


@pytest.mark.parametrize("name, param", sorted(REAL_SEQUENCES))
def test_real_sequence_entries_are_valid(name, param):
    valid = _default(name, param, REAL_SEQUENCES[name, param][0])
    for index in (0, 1):
        getattr(lc, name)(**_with_entry(name, param, index, np.float64(valid[index])))


SEQUENCE_CASES = [
    pytest.param(name, param, index, bad, id=f"{name}-{param}[{index}]-{bad!r}")
    for (name, param), (_, interval) in sorted(REAL_SEQUENCES.items())
    for index in (0, 1)
    for bad in _bad_reals(*interval)
]


@pytest.mark.parametrize("name, param, index, bad", SEQUENCE_CASES)
def test_bad_real_entry_follows_the_rule(name, param, index, bad):
    _, interval = REAL_SEQUENCES[name, param]
    with pytest.raises(ValueError, match=_message(param, *interval, bad)):
        getattr(lc, name)(**_with_entry(name, param, index, bad))

"""Run configuration: defaults, flat key=value config files, CLI overrides.

Config files hold one ``key = value`` pair per line; '#' starts a comment.
Values given on the command line override values from the file, which
override the built-in defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .graph import _checked_ratios, _content_lines
from .model import ModelConfig
from .quantile import QuantileConfig
from .sampling import SamplerConfig


@dataclass(frozen=True)
class RunConfig:
    alpha: float = 0.1
    ratios: tuple = (0.5, 0.1, 0.2, 0.2)
    seed: int = 0
    n_splits: int = 5
    n_reps: int = 4
    edge_list: Optional[str] = None
    feature_file: Optional[str] = None
    feature_dim: int = 16
    feature_mode: str = "random"  # or "structural": smoothed over the base graph
    synth_nodes: int = 2000
    synth_beta: float = 2.5
    synth_d_min: int = 1
    clique_m: int = 0
    clique_n: int = 0
    sampler_lambda: float = 1.0
    sampler_mode: str = "directional"
    sampler_agg: str = "sum"
    run_sampled_arm: bool = True
    model: ModelConfig = field(default_factory=ModelConfig)
    quantile: QuantileConfig = field(default_factory=QuantileConfig)

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        train, _, calib, test = _checked_ratios(self.ratios)
        if min(train, calib, test) <= 0:
            raise ValueError(f"ratios need positive train, calib and test shares, got {self.ratios}")
        if self.n_splits < 1 or self.n_reps < 1:
            raise ValueError("n_splits and n_reps must be >= 1")
        if self.clique_n < 0:
            raise ValueError(f"clique_n must be >= 0, got {self.clique_n}")
        if self.feature_dim < 1:
            raise ValueError(f"feature_dim must be >= 1, got {self.feature_dim}")
        if self.feature_mode not in ("random", "structural"):
            raise ValueError(f"feature_mode must be 'random' or 'structural', got {self.feature_mode!r}")
        # The sampler's own checks, run before any trial trains a model.
        SamplerConfig(lam=self.sampler_lambda, agg=self.sampler_agg, mode=self.sampler_mode)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"cannot parse boolean from {text!r}")


def _parse_floats(text: str) -> tuple:
    return tuple(float(t) for t in text.replace(",", " ").split())


def _parse_opt_int(text: str):
    return None if text.strip().lower() in ("", "none") else int(text)


# key -> (coercion, config section, field name); section None means RunConfig itself.
_KEY_TABLE = {
    "alpha": (float, None, "alpha"),
    "ratios": (_parse_floats, None, "ratios"),
    "seed": (int, None, "seed"),
    "splits": (int, None, "n_splits"),
    "reps": (int, None, "n_reps"),
    "edge_list": (str, None, "edge_list"),
    "feature_file": (str, None, "feature_file"),
    "feature_dim": (int, None, "feature_dim"),
    "feature_mode": (str, None, "feature_mode"),
    "synth_nodes": (int, None, "synth_nodes"),
    "synth_beta": (float, None, "synth_beta"),
    "synth_d_min": (int, None, "synth_d_min"),
    "clique_m": (int, None, "clique_m"),
    "clique_n": (int, None, "clique_n"),
    "lambda": (float, None, "sampler_lambda"),
    "sampler_mode": (str, None, "sampler_mode"),
    "sampler_agg": (str, None, "sampler_agg"),
    "run_sampled_arm": (_parse_bool, None, "run_sampled_arm"),
    "model_hidden_dim": (int, "model", "hidden_dim"),
    "model_num_layers": (int, "model", "num_layers"),
    "model_aggregation": (str, "model", "aggregation"),
    "model_epochs": (int, "model", "epochs"),
    "model_learning_rate": (float, "model", "learning_rate"),
    "model_batch_size": (int, "model", "batch_size"),
    "model_momentum": (float, "model", "momentum"),
    "model_scorer_hidden_dim": (_parse_opt_int, "model", "scorer_hidden_dim"),
    "quantile_epochs": (int, "quantile", "epochs"),
    "quantile_learning_rate": (float, "quantile", "learning_rate"),
    "quantile_batch_size": (int, "quantile", "batch_size"),
    "quantile_hidden_dim": (int, "quantile", "hidden_dim"),
    "quantile_momentum": (float, "quantile", "momentum"),
}


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines into a raw string dict."""
    values = {}
    for line_number, line in _content_lines(text):
        if "=" not in line:
            raise ValueError(f"config line {line_number}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KEY_TABLE:
            raise ValueError(f"config line {line_number}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def build_run_config(file_values: Optional[dict] = None, overrides: Optional[dict] = None) -> RunConfig:
    """Assemble a RunConfig from defaults, file values, and CLI overrides.

    ``file_values`` maps config-file keys to raw strings; ``overrides``
    maps the same keys to already-typed values (None entries are ignored).
    """
    merged = {**(file_values or {}), **{k: v for k, v in (overrides or {}).items() if v is not None}}
    buckets = {None: {}, "model": {}, "quantile": {}}
    for key, value in merged.items():
        coerce, section, name = _KEY_TABLE[key]
        buckets[section][name] = coerce(value) if isinstance(value, str) else value
    return RunConfig(
        model=ModelConfig(**buckets["model"]),
        quantile=QuantileConfig(**buckets["quantile"]),
        **buckets[None],
    )


def config_echo(config: RunConfig) -> dict:
    """Flat, stably ordered view of a RunConfig for report embedding."""
    echo = {}
    for key, (_, section, name) in _KEY_TABLE.items():
        source = config if section is None else getattr(config, section)
        value = getattr(source, name)
        echo[key] = list(value) if isinstance(value, tuple) else value
    return echo

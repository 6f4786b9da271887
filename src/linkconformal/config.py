"""Run configuration: defaults, flat key=value config files, CLI overrides.

Config files hold one ``key = value`` pair per line; '#' starts a comment.
Values given on the command line override values from the file, which
override the built-in defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional, get_type_hints

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
        self.sampler()  # the sampler's own checks, run before any trial trains a model

    def sampler(self, lam: Optional[float] = None, seed: int = 0) -> SamplerConfig:
        """The sampler settings, with ``lam`` in place of the configured lambda when given."""
        return SamplerConfig(lam=self.sampler_lambda if lam is None else lam, agg=self.sampler_agg,
                             mode=self.sampler_mode, seed=seed)


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


# A field's annotation -> the coercion of its config-file string.
_COERCIONS = {float: float, int: int, str: str, Optional[str]: str, bool: _parse_bool,
              tuple: _parse_floats, Optional[int]: _parse_opt_int}
# RunConfig fields whose config key is not the field name.
_SHORT_KEYS = {"n_splits": "splits", "n_reps": "reps", "sampler_lambda": "lambda"}
# RunConfig fields that hold a network's settings; their keys take the field name as prefix.
_SECTIONS = {"model": ModelConfig, "quantile": QuantileConfig}


def _key_table() -> dict:
    """key -> (coercion, config section, field name); section None means RunConfig itself.

    RunConfig's own fields come first, then each section's, in declaration order.
    """
    table = {}
    for section, cls in ((None, RunConfig), *_SECTIONS.items()):
        hints = get_type_hints(cls)
        for f in fields(cls):
            if section is None and f.name in _SECTIONS:
                continue
            key = _SHORT_KEYS.get(f.name, f.name) if section is None else f"{section}_{f.name}"
            table[key] = (_COERCIONS[hints[f.name]], section, f.name)
    return table


_KEY_TABLE = _key_table()


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
    buckets = {None: {}, **{section: {} for section in _SECTIONS}}
    for key, value in merged.items():
        if key not in _KEY_TABLE:
            raise ValueError(f"unknown config key {key!r}")
        coerce, section, name = _KEY_TABLE[key]
        if isinstance(value, str):
            try:
                value = coerce(value)
            except ValueError as exc:
                raise ValueError(f"config key {key!r}: {exc}") from None
        buckets[section][name] = value
    return RunConfig(**buckets[None], **{section: cls(**buckets[section]) for section, cls in _SECTIONS.items()})


def config_echo(config: RunConfig) -> dict:
    """Flat, stably ordered view of a RunConfig for report embedding."""
    echo = {}
    for key, (_, section, name) in _KEY_TABLE.items():
        source = config if section is None else getattr(config, section)
        value = getattr(source, name)
        echo[key] = list(value) if isinstance(value, tuple) else value
    return echo

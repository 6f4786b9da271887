"""Calibrated prediction intervals for graph link prediction.

Trains a small graph link scorer, fits conditional quantile functions over
edge embeddings, calibrates the band with a split-conformal quantile for
finite-sample coverage, and optionally resamples edges toward the fitted
power-law degree distribution to tighten the intervals.
"""

from .config import RunConfig, build_run_config, config_echo, parse_config_text
from .conformal import (
    ConformalReport,
    conformal_quantile,
    conformalize,
    evaluate,
    nonconformity,
    prediction_interval,
)
from .errors import CapacityError, DegenerateCalibrationError, EdgeListParseError
from .graph import (
    EdgeSplit,
    Graph,
    degree_sequence,
    ensure_features,
    generate_latent_powerlaw_graph,
    generate_powerlaw_graph,
    inject_cliques,
    load_edge_list,
    load_features,
    negative_sample,
    split_edges,
    training_subgraph,
)
from .model import (
    ModelConfig,
    ModelParams,
    edge_embeddings,
    encode_nodes,
    gradient_check,
    structural_features,
    train_link_predictor,
)
from .pipeline import (
    ExperimentReport,
    TrialRecord,
    run_pipeline,
    sweep_cliques,
    sweep_lambda,
    write_csv,
    write_report,
)
from .powerlaw import (
    PowerLawFit,
    adaptive_min_tail,
    estimate_beta,
    fit_power_law,
    hurwitz_zeta,
    ks_statistic,
    powerlaw_cdf,
)
from .quantile import (
    QuantileConfig,
    QuantileModel,
    fit_quantile_functions,
    pinball_loss,
    quantile_gradient_check,
)
from .sampling import (
    Ecdf,
    SamplerConfig,
    ecdf,
    edge_keep_probability,
    keep_probabilities,
    pareto_inverse_cdf,
    pareto_sequence,
    sample_edges,
)

__version__ = "0.1.0"

"""The paper's permutation-invariance condition, end to end.

Exact split-conformal coverage needs a score function trained without
regard to which edges of calib ∪ test are calibration and which are test.
Here one trial is built twice on the same graph and edge pool: from its own
``EdgeSplit`` and from the same split with calib and test exchanged. The
ratios are (0.5, 0.1, 0.2, 0.2), so the exchanged split keeps every subset's
size and balance. Everything trained must come out bit-identical: the node
embeddings, the degree fit, the plain arm's quantile model, and the sampled
arm's fit rows and quantile model (the sampler draws one uniform per edge,
keyed by (seed, u, v, label), and rebalances each subset on its own stream).

The sampled arm's calibration rows are the one input that depends on the
assignment: they are the calibration edges the sampler kept. That is where
the sampled arm's calib and test stop being exchangeable (ROADMAP item 4).
"""

import numpy as np
import pytest

from linkconformal.graph import EdgeSplit
from linkconformal.pipeline import _trials, _TrialBase, load_graph

from test_pipeline import tiny_config


def _weights(qmodel):
    return [a.tobytes() for a in qmodel.param_arrays()]


@pytest.mark.parametrize("feature_mode", ["random", "structural"])
def test_training_cannot_see_which_edges_are_calibration(feature_mode):
    config = tiny_config(feature_mode=feature_mode)
    assert config.ratios == (0.5, 0.1, 0.2, 0.2)
    own = next(_trials(config, None))
    split = own.split
    swapped = _TrialBase(load_graph(config), EdgeSplit(split.train, split.val, split.test, split.calib),
                         config, own.split_idx, own.rep_idx)

    assert own.node_embeddings.tobytes() == swapped.node_embeddings.tobytes()
    assert own.degree_fit == swapped.degree_fit
    assert _weights(own.arm("cqr").qmodel) == _weights(swapped.arm("cqr").qmodel)
    sampled, sampled_swapped = own.arm("sampled"), swapped.arm("sampled")
    assert sampled.fit_rows.tobytes() == sampled_swapped.fit_rows.tobytes()
    assert _weights(sampled.qmodel) == _weights(sampled_swapped.qmodel)
    # The one assignment-dependent input: the kept calibration rows come from
    # the calibration edges, which the exchange replaced with the test edges.
    assert not np.array_equal(sampled.calib, sampled_swapped.calib)

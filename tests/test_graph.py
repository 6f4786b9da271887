import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkconformal.errors import CapacityError, EdgeListParseError
from linkconformal.graph import (
    EdgeSplit,
    Graph,
    _edge_list_text,
    _ordered_pairs,
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
from linkconformal.powerlaw import fit_power_law
from linkconformal.seeding import derive_rng, derive_seed


def path_graph(n):
    return Graph(n, frozenset((i, i + 1) for i in range(n - 1)))


def row_set(rows):
    """The rows of a 2-D array as a set of tuples."""
    return set(map(tuple, rows.tolist()))


class TestGraphType:
    def test_normalizes_and_dedups(self):
        g = Graph(3, frozenset({(1, 0), (0, 1), (1, 2)}))
        assert g.edge_array().tolist() == [[0, 1], [1, 2]]
        assert g.num_edges == 2

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(3, frozenset({(1, 1)}))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, frozenset({(0, 3)}))
        with pytest.raises(ValueError):
            Graph(3, frozenset({(-1, 2)}))

    def test_rejects_non_integer_num_nodes(self):
        with pytest.raises(ValueError, match=r"^num_nodes must be an integer, got 3\.0$"):
            Graph(3.0, [(0, 1), (1, 2)])
        assert Graph(np.int64(3), [(0, 1), (1, 2)]).edge_array().tolist() == [[0, 1], [1, 2]]

    def test_degree_sum_is_twice_edges(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(5, 40))
            pairs = {(int(a), int(b)) for a, b in rng.integers(0, n, size=(30, 2)) if a != b}
            g = Graph(n, frozenset(pairs))
            assert degree_sequence(g).sum() == 2 * g.num_edges

    def test_edge_array_sorted_unique_and_read_only(self):
        g = Graph(5, [(3, 1), (0, 4), (1, 3), (2, 0)])
        arr = g.edge_array()
        assert arr.dtype == np.int64
        assert arr.tolist() == [[0, 2], [0, 4], [1, 3]]
        assert not arr.flags.writeable

    def test_features_validated_and_frozen(self):
        g = Graph(2, frozenset({(0, 1)}), features=[[1.0], [2.0]])
        assert not g.features.flags.writeable
        with pytest.raises(ValueError):
            Graph(2, frozenset(), features=np.zeros((3, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        feats = np.zeros((4, 3))
        feats[2, 1] = bad
        feats[3, 0] = np.nan
        with pytest.raises(ValueError, match="^features of node 2 are not finite$"):
            Graph(4, [(0, 1)], features=feats)
        with pytest.raises(ValueError, match="^features of node 2 are not finite$"):
            path_graph(4).with_features(feats)

    def test_derived_graphs_share_features_and_callers_arrays_are_copied(self):
        g = ensure_features(generate_powerlaw_graph(60, 2.5, 1, seed=3), 4, seed=4)
        pos = g.edge_array()
        split = split_edges(pos, negative_sample(g, len(pos), seed=5), (0.5, 0.1, 0.2, 0.2), seed=6)
        assert training_subgraph(g, split).features is g.features
        assert inject_cliques(g, 4, 2, seed=7).features is g.features
        assert g.with_edges([(0, 1)]).features is g.features
        feats = np.ones((3, 2))
        built, attached = Graph(3, [(0, 1)], feats), path_graph(3).with_features(feats)
        feats[1, 0] = 7.0
        for graph in (built, attached):
            assert not np.shares_memory(graph.features, feats)
            assert np.array_equal(graph.features, np.ones((3, 2)))

    def test_with_features_shares_the_edge_array(self):
        g = generate_powerlaw_graph(60, 2.5, 1, seed=3)
        attached = g.with_features(np.ones((60, 2)))
        assert attached.edge_array() is g.edge_array()
        assert attached.num_nodes == g.num_nodes
        with pytest.raises(ValueError, match="features must be"):
            g.with_features(np.ones((59, 2)))


class TestLoadEdgeList:
    def test_basic_parse(self):
        g = load_edge_list("0 1\n1 2")
        assert g.num_nodes == 3
        assert g.edge_array().tolist() == [[0, 1], [1, 2]]

    @pytest.mark.parametrize("text, warns", [("0 1\n1 0", True), ("1 0\n0 1", True), ("1 0\n1 0", False)],
                             ids=["forward-first", "reverse-first", "same-direction"])
    def test_undirected_dedup(self, text, warns):
        # The warning fires exactly when some pair is listed in both directions.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            g = load_edge_list(text)
        assert [str(w.message) for w in caught] == ["directed duplicates collapsed to undirected edges"] * warns
        assert g.edge_array().tolist() == [[0, 1]]

    def test_nodes_header_round_trips(self):
        g = generate_powerlaw_graph(50, 2.5, 1, seed=derive_seed(705, "synth-graph"))
        assert degree_sequence(g)[-1] == 0  # the highest node is isolated
        again = load_edge_list(_edge_list_text(g))
        assert again.num_nodes == g.num_nodes == 50
        assert np.array_equal(again.edge_array(), g.edge_array())
        assert load_edge_list("# nodes 2\n0 4\n").num_nodes == 5  # a floor, not a cap
        assert load_edge_list("# nodes 5\n").num_nodes == 5
        assert load_edge_list("0 1\n# nodes 5\n").num_nodes == 2  # only a first-line header counts

    def test_parse_error_with_line(self):
        with pytest.raises(EdgeListParseError) as err:
            load_edge_list("0 a")
        assert err.value.line_number == 1

    def test_token_count_error(self):
        with pytest.raises(EdgeListParseError):
            load_edge_list("0 1 2")

    def test_negative_index(self):
        with pytest.raises(ValueError):
            load_edge_list("0 -1")

    def test_comments_and_hint(self):
        g = load_edge_list("# nodes 10\n# header\n0 1\n")
        assert g.num_nodes == 10

    def test_empty_needs_hint(self):
        with pytest.raises(ValueError):
            load_edge_list("# nothing\n")
        assert load_edge_list("# nodes 4\n# nothing\n").num_nodes == 4


class TestLoadFeatures:
    def test_round_trip(self):
        feats = load_features("0 1.5 2.0\n2 0.5 -1.0\n", num_nodes=3)
        assert feats.shape == (3, 2)
        assert feats[1].tolist() == [0.0, 0.0]
        assert feats[2].tolist() == [0.5, -1.0]

    def test_dim_mismatch(self):
        with pytest.raises(EdgeListParseError):
            load_features("0 1.0\n1 1.0 2.0\n", num_nodes=2)

    def test_repeated_node_rejected(self):
        with pytest.raises(EdgeListParseError, match="^line 3: node 0 already has features on line 1$") as err:
            load_features("0 1 2\n# node 0 again\n0 3 4\n", num_nodes=2)
        assert err.value.line_number == 3

    def test_non_finite_values_rejected_when_attached(self):
        feats = load_features("0 nan 1\n1 2 inf\n", num_nodes=2)
        with pytest.raises(ValueError, match="^features of node 0 are not finite$"):
            path_graph(2).with_features(feats)
        feats = load_features("0 1 2\n1 2 -inf\n", num_nodes=3)
        with pytest.raises(ValueError, match="^features of node 1 are not finite$"):
            path_graph(3).with_features(feats)


class TestNegativeSample:
    def test_complete_graph_capacity(self):
        g = Graph(3, frozenset({(0, 1), (0, 2), (1, 2)}))
        with pytest.raises(CapacityError):
            negative_sample(g, 1, seed=0)

    def test_unique_non_edge(self):
        assert negative_sample(path_graph(3), 1, seed=0).tolist() == [[0, 2]]

    def test_determinism(self):
        rng = np.random.default_rng(1)
        pairs = {(int(a), int(b)) for a, b in rng.integers(0, 100, size=(50, 2)) if a != b}
        g = Graph(100, frozenset(pairs))
        a = negative_sample(g, 50, seed=7)
        b = negative_sample(g, 50, seed=7)
        assert np.array_equal(a, b)
        assert not np.array_equal(negative_sample(g, 50, seed=8), a)

    def test_avoids_edges_and_self_loops(self):
        g = path_graph(20)
        out = negative_sample(g, 100, seed=3).tolist()
        assert len(set(map(tuple, out))) == 100
        edges = row_set(g.edge_array())
        for u, v in out:
            assert u < v
            assert (u, v) not in edges

    def test_exhaustive_draw(self):
        g = path_graph(6)
        capacity = 6 * 5 // 2 - g.num_edges
        out = negative_sample(g, capacity, seed=0)
        assert len(out) == capacity


def reference_rejection_sample(graph, count, seed):
    # The set-based rejection loop that the array version replaced, verbatim.
    n = graph.num_nodes
    rng = derive_rng(seed, "negative-sample")
    forbidden = row_set(graph.edge_array())
    result = set()
    while len(result) < count:
        batch = max(1024, 2 * (count - len(result)))
        us = rng.integers(0, n, size=batch)
        vs = rng.integers(0, n, size=batch)
        for a, b in zip(us, vs):
            if a == b:
                continue
            pair = (int(a), int(b)) if a < b else (int(b), int(a))
            if pair in forbidden or pair in result:
                continue
            result.add(pair)
            if len(result) == count:
                break
    return sorted(result)


class TestNegativeSampleRejection:
    @pytest.fixture
    def graph(self):
        # 60 nodes, 1770 pairs: large draws repeat pairs within a batch and
        # need several batches
        return inject_cliques(generate_powerlaw_graph(60, 2.5, 1, seed=3), 8, 2, seed=4)

    def test_matches_reference_loop(self, graph):
        capacity = 60 * 59 // 2 - graph.num_edges
        for count, seed in ((1, 0), (200, 1), (1000, 2), (capacity, 3)):
            out = negative_sample(graph, count, seed=seed)
            assert out.dtype == np.int64 and out.shape == (count, 2)
            assert list(map(tuple, out.tolist())) == reference_rejection_sample(graph, count, seed)

    @pytest.mark.parametrize("n, density, seed", [(40, 0.3, 11), (70, 0.3, 12), (50, 0.7, 13)])
    def test_near_capacity_matches_reference_loop(self, n, density, seed):
        # Near capacity most rounds accept few pairs or none, so each round's
        # test against the keys accepted so far must not lose or repeat one.
        iu, iv = np.triu_indices(n, k=1)
        keep = np.random.default_rng(seed).random(iu.size) < density
        graph = Graph(n, np.column_stack([iu[keep], iv[keep]]))
        capacity = iu.size - graph.num_edges
        for count in (capacity // 2, capacity - 20, capacity - 1, capacity):
            out = negative_sample(graph, count, seed=seed + count)
            assert list(map(tuple, out.tolist())) == reference_rejection_sample(graph, count, seed + count)

    def test_deterministic_per_seed(self, graph):
        a = negative_sample(graph, 500, seed=7)
        assert np.array_equal(a, negative_sample(graph, 500, seed=7))
        assert not np.array_equal(a, negative_sample(graph, 500, seed=8))

    def test_distinct_non_edges(self, graph):
        pairs = row_set(negative_sample(graph, 900, seed=5))
        assert len(pairs) == 900
        assert all(u < v for u, v in pairs)
        assert not pairs & row_set(graph.edge_array())

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_sorted_distinct_in_range_non_edges(self, data):
        # up to complete graphs, and draws up to the full capacity
        n = data.draw(st.integers(2, 30), label="num_nodes")
        iu, iv = np.triu_indices(n, k=1)
        density = data.draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]), label="density")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="graph_seed"))
        keep = rng.random(iu.size) < density
        graph = Graph(n, np.column_stack([iu[keep], iv[keep]]))
        capacity = iu.size - graph.num_edges
        count = data.draw(st.one_of(st.just(capacity), st.integers(0, capacity)), label="count")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        out = negative_sample(graph, count, seed=seed)
        assert out.dtype == np.int64 and out.shape == (count, 2)
        assert np.all((0 <= out[:, 0]) & (out[:, 0] < out[:, 1]) & (out[:, 1] < n))
        rows = list(map(tuple, out.tolist()))
        assert rows == sorted(set(rows))
        assert not set(rows) & row_set(graph.edge_array())
        assert np.array_equal(out, negative_sample(graph, count, seed=seed))


class TestSplitEdges:
    def test_counts_with_remainder(self):
        pos = [(0, i + 1) for i in range(10)]
        neg = [(1, i + 2) for i in range(10)]
        split = split_edges(pos, neg, (0.5, 0.1, 0.2, 0.2), seed=0)
        assert [len(s) for s in (split.train, split.val, split.calib, split.test)] == [10, 2, 4, 4]

    def test_degenerate_all_train(self):
        pos = [(0, 1), (1, 2)]
        neg = [(0, 2), (0, 3)]
        split = split_edges(pos, neg, (1, 0, 0, 0), seed=0)
        assert len(split.train) == 4
        assert len(split.val) == len(split.calib) == len(split.test) == 0

    def test_class_balance_per_subset(self):
        pos = [(0, i + 1) for i in range(21)]
        neg = [(1, i + 2) for i in range(21)]
        split = split_edges(pos, neg, (0.5, 0.1, 0.2, 0.2), seed=5)
        for subset in (split.train, split.val, split.calib, split.test):
            n_pos = int(subset[:, 2].sum())
            assert 2 * n_pos == len(subset)

    def test_union_preserved(self):
        pos = [(0, i + 1) for i in range(12)]
        neg = [(1, i + 2) for i in range(12)]
        split = split_edges(pos, neg, (0.4, 0.2, 0.2, 0.2), seed=2)
        got = sorted(map(tuple, np.concatenate([split.train, split.val, split.calib, split.test]).tolist()))
        want = sorted([(u, v, 1) for u, v in pos] + [(u, v, 0) for u, v in neg])
        assert got == want

    def test_bad_ratios(self):
        with pytest.raises(ValueError):
            split_edges([(0, 1)], [(0, 2)], (0.5, 0.5, 0.5, 0.5), seed=0)
        with pytest.raises(ValueError):
            split_edges([(0, 1)], [(0, 2)], (0.5, 0.6, -0.1, 0.0), seed=0)

    def test_count_mismatch(self):
        with pytest.raises(ValueError):
            split_edges([(0, 1), (1, 2)], [(0, 2)], (0.25, 0.25, 0.25, 0.25), seed=0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-5, 40), st.integers(-5, 40), st.integers(0, 1)), max_size=50),
       st.sampled_from([2, 3]))
def test_ordered_pairs_match_row_sort(rows, width):
    rows = np.array(rows, dtype=np.int64).reshape(-1, 3)[:, :width]
    want = np.column_stack([np.sort(rows[:, :2], axis=1), rows[:, 2:]])
    got = _ordered_pairs(rows)
    assert got.dtype == np.int64 and got.tobytes() == want.tobytes()


class TestEdgeSplitType:
    def test_rejects_duplicates_across_subsets(self):
        with pytest.raises(ValueError, match=r"^duplicate labeled edge across subsets: \(0, 1, 1\)$"):
            EdgeSplit(
                train=((0, 1, 1), (0, 2, 0)),
                val=((1, 0, 1), (0, 3, 0)),
                calib=(),
                test=(),
            )

    def test_rejects_imbalance(self):
        with pytest.raises(ValueError):
            EdgeSplit(
                train=((0, 1, 1), (1, 2, 1), (2, 3, 1)),
                val=(),
                calib=(),
                test=(),
            )


class TestTrainingSubgraph:
    def make_split(self):
        train = ((0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1),
                 (0, 5, 0), (0, 6, 0), (0, 7, 0), (1, 7, 0))
        val = ((4, 5, 1), (2, 7, 0))
        calib = ((5, 6, 1), (3, 7, 0))
        test = ((6, 7, 1), (4, 7, 0))
        return EdgeSplit(train, val, calib, test)

    def test_includes_train_val_positives_only(self):
        g = Graph(8, frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)}))
        split = self.make_split()
        sub = training_subgraph(g, split)
        assert sub.num_edges == 5
        assert not {(5, 6), (6, 7)} & row_set(sub.edge_array())

    def test_empty_warns(self):
        g = Graph(4, frozenset({(0, 1)}))
        split = EdgeSplit(((0, 2, 0),), (), ((0, 1, 1), (0, 3, 0)), ())
        with pytest.warns(UserWarning):
            sub = training_subgraph(g, split)
        assert sub.num_edges == 0


class TestDegreeSequence:
    def test_triangle(self):
        g = Graph(3, frozenset({(0, 1), (1, 2), (0, 2)}))
        assert degree_sequence(g).tolist() == [2, 2, 2]

    def test_star(self):
        g = Graph(4, frozenset({(0, 1), (0, 2), (0, 3)}))
        assert sorted(degree_sequence(g).tolist()) == [1, 1, 1, 3]

    def test_drop_isolated(self):
        g = Graph(5, frozenset({(0, 1)}))
        assert degree_sequence(g, drop_isolated=True).tolist() == [1, 1]
        assert degree_sequence(g).tolist() == [1, 1, 0, 0, 0]


class TestInjectCliques:
    def test_edge_count_on_empty(self):
        g = Graph(5)
        out = inject_cliques(g, 3, 1, seed=0)
        assert out.num_edges == 3

    def test_identity_when_zero(self):
        g = path_graph(5)
        assert inject_cliques(g, 3, 0, seed=0) is g

    def test_never_decreases(self):
        g = path_graph(30)
        rng = np.random.default_rng(0)
        for _ in range(5):
            out = inject_cliques(g, int(rng.integers(2, 10)), int(rng.integers(1, 4)), seed=int(rng.integers(1000)))
            assert out.num_edges >= g.num_edges
            assert row_set(g.edge_array()) <= row_set(out.edge_array())

    def test_validation(self):
        g = path_graph(5)
        with pytest.raises(ValueError):
            inject_cliques(g, 1, 1, seed=0)
        with pytest.raises(ValueError):
            inject_cliques(g, 6, 1, seed=0)

    def test_deterministic(self):
        g = path_graph(40)
        a, b = (inject_cliques(g, 5, 3, seed=9) for _ in range(2))
        assert np.array_equal(a.edge_array(), b.edge_array())


class TestGeneratePowerlawGraph:
    def test_deterministic(self):
        a = generate_powerlaw_graph(200, 2.5, 1, seed=4)
        b = generate_powerlaw_graph(200, 2.5, 1, seed=4)
        assert np.array_equal(a.edge_array(), b.edge_array())

    def test_matching_limit(self):
        # enormous beta concentrates every degree at 1: stub pairing gives
        # a (partial) matching, so every node has degree <= 1
        g = generate_powerlaw_graph(100, 50.0, 1, seed=2)
        assert degree_sequence(g).max() <= 1

    def test_exponent_recovery(self):
        g = generate_powerlaw_graph(2000, 2.5, 1, seed=7)
        fit = fit_power_law(degree_sequence(g, drop_isolated=True))
        assert 2.3 <= fit.beta_hat <= 2.7

    def test_validations(self):
        with pytest.raises(ValueError):
            generate_powerlaw_graph(5, 2.5, 1, seed=0)
        with pytest.raises(ValueError):
            generate_powerlaw_graph(100, 1.0, 1, seed=0)
        with pytest.raises(ValueError):
            generate_powerlaw_graph(100, 2.5, 0, seed=0)

    @pytest.mark.parametrize("generate", [
        lambda beta: generate_powerlaw_graph(200, beta, 1, seed=0),
        lambda beta: generate_latent_powerlaw_graph(200, beta, 1, 4, seed=0),
    ], ids=["plain", "latent"])
    @pytest.mark.parametrize("beta", [float("nan"), float("inf")])
    def test_non_finite_beta_rejected(self, generate, beta):
        with pytest.raises(ValueError, match=rf"^beta must lie in \(1, inf\), got {beta}$"):
            generate(beta)


class TestLatentPowerlawGraph:
    def test_features_attached_and_deterministic(self):
        a = generate_latent_powerlaw_graph(100, 2.5, 2, 8, seed=3)
        b = generate_latent_powerlaw_graph(100, 2.5, 2, 8, seed=3)
        assert a.features.shape == (100, 8)
        assert np.array_equal(a.edge_array(), b.edge_array())
        assert np.array_equal(a.features, b.features)

    def test_homophily_wires_similar_nodes(self):
        g = generate_latent_powerlaw_graph(300, 2.5, 4, 8, seed=1, homophily=10.0)
        x = g.features / np.linalg.norm(g.features, axis=1, keepdims=True)
        edge_arr = g.edge_array()
        cos_edges = np.mean(np.sum(x[edge_arr[:, 0]] * x[edge_arr[:, 1]], axis=1))
        rng = np.random.default_rng(0)
        pairs = rng.integers(0, 300, size=(2000, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        cos_rand = np.mean(np.sum(x[pairs[:, 0]] * x[pairs[:, 1]], axis=1))
        assert cos_edges > cos_rand + 0.1


class TestEnsureFeatures:
    def test_fills_missing(self):
        g = path_graph(5)
        out = ensure_features(g, 3, seed=0)
        assert out.features.shape == (5, 3)
        again = ensure_features(g, 3, seed=0)
        assert np.array_equal(out.features, again.features)

    def test_keeps_existing(self):
        g = Graph(2, frozenset({(0, 1)}), features=[[1.0], [2.0]])
        assert ensure_features(g, 7, seed=0) is g

    def test_draw_is_frozen_in_place_not_copied(self, traced_peak):
        # A copy of the drawn matrix would peak at twice its size.
        g = Graph(100_000)
        out, peak = traced_peak(lambda: ensure_features(g, 16, seed=1))
        assert out.features.shape == (100_000, 16) and not out.features.flags.writeable
        assert out.edge_array() is g.edge_array()
        assert peak <= 1.1 * out.features.nbytes

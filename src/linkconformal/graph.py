"""Undirected simple graphs: construction, I/O, splitting, and synthesis.

Node ids are integers in [0, num_nodes). A graph holds its edges once, as
a sorted, deduplicated, read-only (E, 2) int64 array of (min, max) rows;
self-loops are rejected and duplicates collapsed at construction, so every
Graph in the package satisfies sum(degrees) == 2 * num_edges. Labeled
edge subsets are read-only (k, 3) int64 arrays of (u, v, label) rows.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import CapacityError, EdgeListParseError
from .powerlaw import hurwitz_zeta
from .seeding import derive_rng


def as_edge_rows(edges, width: Optional[int] = None) -> np.ndarray:
    """Edges as a (k, width) int64 array, from an array or any iterable of tuples.

    Without ``width``, any row width of at least 2 is accepted. The input
    array itself is returned when it already has the right dtype.
    """
    if not isinstance(edges, (np.ndarray, list, tuple)):
        edges = list(edges)
    rows = np.asarray(edges, dtype=np.int64)
    if rows.size == 0:
        return np.empty((0, width or 2), dtype=np.int64)
    if rows.ndim != 2 or (rows.shape[1] != width if width else rows.shape[1] < 2):
        raise ValueError(f"expected edge rows of width {width or '>= 2'}, got shape {rows.shape}")
    return rows


def as_labeled_rows(edges) -> np.ndarray:
    """``as_edge_rows(edges, 3)`` of (u, v, label) rows, once every label is 0 or 1."""
    rows = as_edge_rows(edges, 3)
    bad = (rows[:, 2] != 0) & (rows[:, 2] != 1)
    if bad.any():
        raise ValueError(f"label must be 0 or 1, got {rows[np.argmax(bad), 2]}")
    return rows


def _ordered_pairs(rows: np.ndarray) -> np.ndarray:
    """A copy of the (k, w) int64 ``rows`` whose first two columns hold each row's (min, max)."""
    out = np.empty(rows.shape, dtype=np.int64)
    np.minimum(rows[:, 0], rows[:, 1], out=out[:, 0])
    np.maximum(rows[:, 0], rows[:, 1], out=out[:, 1])
    out[:, 2:] = rows[:, 2:]
    return out


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _finite_rows(matrix: np.ndarray) -> np.ndarray:
    """Whether each row of a 2-D float ``matrix`` is finite.

    A row is finite exactly when its min and max (with 0) are, which takes
    two floats per row instead of a boolean mask of the matrix's shape. A
    finite min and max of the whole matrix settle every row at once, which
    costs far less than per-row reductions over a few columns.
    """
    if np.isfinite(matrix.min(initial=0.0)) and np.isfinite(matrix.max(initial=0.0)):
        return np.ones(len(matrix), dtype=bool)
    return np.isfinite(matrix.min(axis=1, initial=0.0)) & np.isfinite(matrix.max(axis=1, initial=0.0))


def _checked_features(features: np.ndarray, num_nodes: int) -> np.ndarray:
    """``features`` frozen in place, once they are a finite (num_nodes, d) matrix."""
    if features.ndim != 2 or features.shape[0] != num_nodes:
        raise ValueError(f"features must be ({num_nodes}, d), got {features.shape}")
    finite = _finite_rows(features)
    if not finite.all():
        raise ValueError(f"features of node {np.argmin(finite)} are not finite")
    return _frozen(features)


def row_keys(rows: np.ndarray) -> np.ndarray:
    """One int64 key per (u, v, label) row with label 0 or 1.

    Keys are distinct for distinct rows and increase in lexicographic row
    order, so sorting keys sorts rows.
    """
    ends = rows[:, :2] - rows[:, :2].min(initial=0)
    return (ends[:, 0] * (ends.max(initial=0) + 1) + ends[:, 1]) * 2 + rows[:, 2]


class Graph:
    """Immutable undirected simple graph with optional node features.

    ``edges`` may be an (E, 2) array or any iterable of node pairs.
    ``features`` are copied into a read-only float64 (num_nodes, d) matrix,
    which every graph derived by ``with_edges`` shares; ``with_features``
    shares the edge array instead. Non-finite features raise ValueError
    naming the first node that has one.
    """

    def __init__(self, num_nodes: int, edges=(), features: Optional[np.ndarray] = None):
        if not isinstance(num_nodes, (int, np.integer)) or num_nodes < 1:
            raise ValueError(f"num_nodes must be a positive integer, got {num_nodes!r}")
        pairs = _ordered_pairs(as_edge_rows(edges, 2))
        for bad, message in (
            (pairs[:, 0] == pairs[:, 1], "self-loop at edge"),
            (pairs[:, 0] < 0, "negative node index in edge"),
            (pairs[:, 1] >= num_nodes, f"node >= num_nodes={num_nodes} in edge"),
        ):
            if bad.any():
                raise ValueError(f"{message} {tuple(pairs[np.argmax(bad)].tolist())}")
        keys = np.sort(pairs[:, 0] * num_nodes + pairs[:, 1])
        keys = keys[np.diff(keys, prepend=-1) > 0]
        if features is not None:
            features = _checked_features(np.array(features, dtype=np.float64), num_nodes)
        self.__dict__.update(
            num_nodes=num_nodes,
            features=features,
            _pairs=_frozen(np.column_stack(np.divmod(keys, num_nodes))),
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"Graph is immutable; cannot set {name!r}")

    @property
    def num_edges(self) -> int:
        return len(self._pairs)

    @cached_property
    def edges(self) -> frozenset:
        """The edges as a frozenset of (min, max) tuples, built on first read."""
        return frozenset(zip(*self._pairs.T.tolist()))

    def edge_array(self) -> np.ndarray:
        """Edges as a read-only (E, 2) int64 array in lexicographic order."""
        return self._pairs

    def with_edges(self, edges) -> "Graph":
        """The graph on ``edges``, sharing this graph's read-only features."""
        graph = Graph(self.num_nodes, edges)
        graph.__dict__["features"] = self.features
        return graph

    def with_features(self, features: np.ndarray) -> "Graph":
        """This graph with a copy of ``features`` attached, sharing its read-only edge array."""
        return self._with_own_features(np.array(features, dtype=np.float64))

    def _with_own_features(self, features: np.ndarray) -> "Graph":
        """``with_features`` without the copy: the float64 ``features`` are checked
        and frozen in place, so the caller must hold no other writable reference."""
        graph = Graph(self.num_nodes)
        graph.__dict__.update(features=_checked_features(features, self.num_nodes), _pairs=self._pairs)
        return graph


_SUBSET_NAMES = ("train", "val", "calib", "test")


@dataclass(frozen=True)
class EdgeSplit:
    """Labeled edges partitioned into train/val/calib/test subsets.

    Each subset is given as (k, 3) rows of (u, v, label) and stored as a
    read-only int64 array in the given row order.
    """

    train: np.ndarray
    val: np.ndarray
    calib: np.ndarray
    test: np.ndarray

    def __post_init__(self):
        subsets = {name: _frozen(as_labeled_rows(getattr(self, name)).copy()) for name in _SUBSET_NAMES}
        rows = np.concatenate(list(subsets.values()))
        canonical = _ordered_pairs(rows)
        keys = row_keys(canonical)
        ordered = np.sort(keys)
        repeated = ordered[1:] == ordered[:-1]
        if repeated.any():
            key = tuple(canonical[np.argmax(keys == ordered[np.argmax(repeated)])].tolist())
            raise ValueError(f"duplicate labeled edge across subsets: {key}")
        for name, subset in subsets.items():
            n_pos = int(subset[:, 2].sum())
            if abs(2 * n_pos - len(subset)) > 1:
                raise ValueError(
                    f"{name} subset is class-imbalanced: "
                    f"{n_pos} positive vs {len(subset) - n_pos} negative"
                )
            object.__setattr__(self, name, subset)

    @property
    def subsets(self):
        return {name: getattr(self, name) for name in _SUBSET_NAMES}


def _content_lines(text: str):
    """(line number, stripped line) for each line that is neither blank nor a '#' comment."""
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line_number, line


def load_edge_list(text: str, num_nodes_hint: Optional[int] = None) -> Graph:
    """Parse an edge-list document into a Graph.

    One edge per line as two whitespace-separated integer node ids; lines
    starting with '#' are comments. num_nodes is the largest of the hint,
    N from a first line ``# nodes N``, and max index + 1. Reversed
    duplicates collapse to one undirected edge, with a warning when some
    pair is listed in both directions.
    """
    rows = []
    for line_number, line in _content_lines(text):
        tokens = line.split()
        if len(tokens) != 2:
            raise EdgeListParseError(line_number, f"expected two tokens, got {len(tokens)}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeListParseError(line_number, f"non-integer token in {tokens!r}") from None
        if u < 0 or v < 0:
            raise ValueError(f"line {line_number}: negative node index ({u}, {v})")
        if u == v:
            raise ValueError(f"line {line_number}: self-loop at node {u}")
        rows.append((u, v))
    pairs = as_edge_rows(rows, 2)
    header = text.partition("\n")[0].split()  # "# nodes N", as _edge_list_text writes it
    floor = int(header[2]) if header[:2] == ["#", "nodes"] and len(header) == 3 and header[2].isdecimal() else 0
    num_nodes = max(int(pairs.max(initial=-1)) + 1, floor, num_nodes_hint or 0)
    if num_nodes < 1:
        raise ValueError("empty edge list and no num_nodes_hint given")
    # Self-loops are rejected above, so a row whose reverse is also a row
    # is a pair listed in both directions.
    if np.isin(pairs[:, 0] * num_nodes + pairs[:, 1], pairs[:, 1] * num_nodes + pairs[:, 0]).any():
        warnings.warn("directed duplicates collapsed to undirected edges", stacklevel=2)
    return Graph(num_nodes, pairs)


def _edge_list_text(graph: Graph) -> str:
    """``graph`` as an edge-list document: ``# nodes N``, then one "u v" line per edge."""
    lines = [f"# nodes {graph.num_nodes}"]
    lines += map(" ".join, graph.edge_array().astype(str).tolist())
    return "\n".join(lines) + "\n"


def load_features(text: str, num_nodes: int) -> np.ndarray:
    """Parse a feature table: node id followed by d reals per line.

    Nodes absent from the file get all-zero rows.
    """
    out = None
    for line_number, line in _content_lines(text):
        tokens = line.split()
        try:
            node = int(tokens[0])
            values = [float(t) for t in tokens[1:]]
        except ValueError:
            raise EdgeListParseError(line_number, f"bad feature row {tokens!r}") from None
        if not values:
            raise EdgeListParseError(line_number, "feature row has no values")
        if node < 0 or node >= num_nodes:
            raise ValueError(f"line {line_number}: node id {node} out of range")
        if out is None:
            out = np.zeros((num_nodes, len(values)))
        elif len(values) != out.shape[1]:
            raise EdgeListParseError(line_number, f"expected {out.shape[1]} values, got {len(values)}")
        out[node] = values
    if out is None:
        raise ValueError("feature document contains no rows")
    return out


def _write_text(path, text: str, what: str) -> None:
    """Write ``text`` to ``path`` as UTF-8; on failure, raise OSError "cannot write {what} to {path}: ..."."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write {what} to {path}: {exc}") from exc


def ensure_features(graph: Graph, dim: int, seed: int) -> Graph:
    """Attach seeded standard-normal features when the graph has none."""
    if graph.features is not None:
        return graph
    rng = derive_rng(seed, "features")
    return graph._with_own_features(rng.standard_normal((graph.num_nodes, dim)))


def negative_sample(graph: Graph, count: int, seed: int):
    """Sample ``count`` distinct non-edges uniformly, without replacement.

    Returns (count, 2) int64 rows (u, v), u < v, in lexicographic order.
    Each batch of uniform node pairs accepts, in draw order, the first
    occurrence of every pair that is neither a self-loop, an edge nor
    already accepted. Raises CapacityError when the graph has fewer than
    ``count`` non-edges, so the loop ends. Deterministic given the seed.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    n = graph.num_nodes
    capacity = n * (n - 1) // 2 - graph.num_edges
    if count > capacity:
        raise CapacityError(f"requested {count} non-edges but only {capacity} exist")
    rng = derive_rng(seed, "negative-sample")
    edges = graph.edge_array()
    # Both key arrays stay ascending (the edge rows are in lexicographic
    # order), so that a round tests membership by binary search and merges
    # its new keys in.
    edge_keys = edges[:, 0] * n + edges[:, 1]
    accepted = np.empty(0, dtype=np.int64)
    while accepted.size < count:
        batch = max(1024, 2 * (count - accepted.size))
        us = rng.integers(0, n, size=batch)
        vs = rng.integers(0, n, size=batch)
        keys = (np.minimum(us, vs) * n + np.maximum(us, vs))[us != vs]
        # The batch's distinct keys in ascending order, tested against both
        # key arrays, then the fresh ones' first draws in draw order. Each
        # key's first draw is the least index in its run of an unstable
        # argsort: what np.unique(keys, return_index=True) gives, without
        # the slower stable sort it runs.
        order = np.argsort(keys)
        ordered = keys[order]
        starts = np.flatnonzero(np.diff(ordered, prepend=-1))
        distinct, first = ordered[starts], np.minimum.reduceat(order, starts)
        fresh = ~_sorted_contains(edge_keys, distinct) & ~_sorted_contains(accepted, distinct)
        new = np.sort(keys[np.sort(first[fresh])[: count - accepted.size]])
        if new.size:
            accepted = np.insert(accepted, np.searchsorted(accepted, new), new)
    return np.column_stack(np.divmod(accepted, n))


def _sorted_contains(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Mask of the ``keys`` that occur in the ascending array ``sorted_keys``."""
    if not sorted_keys.size:
        return np.zeros(keys.shape, dtype=bool)
    return sorted_keys.take(np.searchsorted(sorted_keys, keys), mode="clip") == keys


def _quota_sizes(n: int, ratios) -> list:
    # Floor each quota, then hand leftovers to subsets in declaration order
    # (train first) so the partition is deterministic.
    floors = [int(np.floor(r * n)) for r in ratios]
    leftover = n - sum(floors)
    for i in range(leftover):
        floors[i % len(floors)] += 1
    return floors


def _checked_ratios(ratios) -> tuple:
    """Four split ratios (train, val, calib, test) as floats, non-negative and summing to 1."""
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 4:
        raise ValueError(f"expected 4 ratios, got {len(ratios)}")
    if any(r < 0 for r in ratios):
        raise ValueError(f"ratios must be non-negative, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got sum={sum(ratios)!r}")
    return ratios


def split_edges(positives, negatives, ratios, seed: int) -> EdgeSplit:
    """Shuffle and partition positive and negative pairs by ratio.

    Positives and negatives are shuffled and partitioned independently with
    the same quotas, so every subset is exactly class-balanced. Ratios are
    four non-negative reals summing to 1 (tolerance 1e-9), ordered
    (train, val, calib, test).
    """
    ratios = _checked_ratios(ratios)
    positives = _ordered_pairs(as_edge_rows(positives, 2))
    negatives = _ordered_pairs(as_edge_rows(negatives, 2))
    if len(positives) != len(negatives):
        raise ValueError(
            f"positive/negative counts differ: {len(positives)} vs {len(negatives)}"
        )
    rng = derive_rng(seed, "split")
    pos, neg = (
        np.column_stack([pairs[rng.permutation(len(pairs))], np.full(len(pairs), label)])
        for pairs, label in ((positives, 1), (negatives, 0))
    )
    bounds = np.cumsum([0] + _quota_sizes(len(pos), ratios))
    return EdgeSplit(*(np.concatenate([pos[a:b], neg[a:b]]) for a, b in zip(bounds[:-1], bounds[1:])))


def training_subgraph(graph: Graph, split: EdgeSplit) -> Graph:
    """Graph over the same nodes containing only train+val positive edges."""
    rows = np.concatenate([split.train, split.val])
    edges = rows[rows[:, 2] == 1, :2]
    if not len(edges):
        warnings.warn("training subgraph has no edges", stacklevel=2)
    return graph.with_edges(edges)


def degree_sequence(graph: Graph, drop_isolated: bool = False) -> np.ndarray:
    """Per-node degrees as an int64 array; optionally without zero entries."""
    degrees = np.bincount(graph.edge_array().ravel(), minlength=graph.num_nodes)
    return degrees[degrees > 0] if drop_isolated else degrees


def inject_cliques(graph: Graph, m: int, n: int, seed: int) -> Graph:
    """Add n cliques of m uniformly chosen nodes each (deduplicated).

    Nodes are drawn without replacement within a clique and with
    replacement across cliques.
    """
    if m < 2:
        raise ValueError(f"clique size must be >= 2, got {m}")
    if m > graph.num_nodes:
        raise ValueError(f"clique size {m} exceeds num_nodes {graph.num_nodes}")
    if n < 0:
        raise ValueError(f"clique count must be >= 0, got {n}")
    if n == 0:
        return graph
    rng = derive_rng(seed, "cliques")
    iu, iv = np.triu_indices(m, k=1)
    members = np.array([rng.choice(graph.num_nodes, size=m, replace=False) for _ in range(n)])
    cliques = np.column_stack([members[:, iu].ravel(), members[:, iv].ravel()])
    return graph.with_edges(np.concatenate([graph.edge_array(), cliques]))


def _check_powerlaw_args(num_nodes: int, beta: float, d_min: int) -> None:
    """The argument checks that both power-law generators share."""
    if num_nodes < 10:
        raise ValueError(f"num_nodes must be >= 10, got {num_nodes}")
    if not 1.0 < beta < np.inf:
        raise ValueError(f"beta must be finite and exceed 1, got {beta}")
    if d_min < 1:
        raise ValueError(f"d_min must be >= 1, got {d_min}")


def _powerlaw_degree_sample(num_nodes: int, beta: float, d_min: int, rng) -> np.ndarray:
    support = np.arange(d_min, num_nodes, dtype=np.float64)
    pmf = support ** (-beta) / hurwitz_zeta(beta, float(d_min))
    cdf = np.cumsum(pmf)
    u = rng.random(num_nodes)
    idx = np.searchsorted(cdf, u, side="left")
    return (d_min + np.minimum(idx, support.size - 1)).astype(np.int64)


def generate_powerlaw_graph(num_nodes: int, beta: float, d_min: int, seed: int) -> Graph:
    """Random graph whose degrees follow the discrete power law.

    Target degrees are drawn by inverse-CDF sampling from
    Pr(d) = d^-beta / zeta(beta, d_min), capped at num_nodes - 1 and
    parity-corrected, then wired by configuration-model stub pairing with
    self-loops and duplicate edges discarded.
    """
    _check_powerlaw_args(num_nodes, beta, d_min)
    rng = derive_rng(seed, "powerlaw-graph")
    degrees = _powerlaw_degree_sample(num_nodes, beta, d_min, rng)
    if degrees.sum() % 2 == 1:
        if degrees[0] < num_nodes - 1:
            degrees[0] += 1
        else:
            degrees[0] -= 1
    stubs = np.repeat(np.arange(num_nodes), degrees)
    rng.shuffle(stubs)
    half = stubs.size // 2
    us, vs = stubs[:half], stubs[half : 2 * half]
    keep = us != vs
    return Graph(num_nodes, np.column_stack([us[keep], vs[keep]]))


def generate_latent_powerlaw_graph(
    num_nodes: int,
    beta: float,
    d_min: int,
    feature_dim: int,
    seed: int,
    homophily: float = 6.0,
) -> Graph:
    """Power-law graph whose edges also follow a latent feature geometry.

    Nodes get unit-norm Gaussian latent vectors (exposed as the graph's
    features). Pair (u, v) is wired with probability proportional to
    d_u * d_v * exp(homophily * <x_u, x_v>), where the d are power-law
    degree targets, scaled so the expected edge count matches the degree
    budget. Unlike the configuration model, held-out edges of this graph
    are predictable from the features, which makes it a stand-in for real
    attributed graphs; edges added later between random nodes (injected
    cliques) ignore the geometry and stay feature-independent.
    """
    _check_powerlaw_args(num_nodes, beta, d_min)
    if homophily < 0:
        raise ValueError(f"homophily must be >= 0, got {homophily}")
    rng = derive_rng(seed, "latent-powerlaw-graph")
    degrees = _powerlaw_degree_sample(num_nodes, beta, d_min, rng)
    latent = rng.standard_normal((num_nodes, feature_dim))
    unit = latent / np.maximum(np.linalg.norm(latent, axis=1, keepdims=True), 1e-12)
    iu, iv = np.triu_indices(num_nodes, k=1)
    affinity = np.exp(homophily * np.sum(unit[iu] * unit[iv], axis=1))
    weight = degrees[iu] * degrees[iv] * affinity
    target_edges = degrees.sum() / 2.0
    prob = np.minimum(weight * (target_edges / weight.sum()), 1.0)
    chosen = rng.random(prob.size) < prob
    # Raw (unnormalized) latents as features: unit-variance entries train
    # faster through the propagation layers than row-normalized ones.
    return Graph(num_nodes, np.column_stack([iu[chosen], iv[chosen]]), latent)

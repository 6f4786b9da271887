"""Spans recorded from outside the program, by wrapping module attributes.

The program calls its stage functions through names bound in the importing
module (``pipeline.split_edges``, ``sampling.fit_power_law``, ...), so the
tracer replaces those attributes with timing wrappers for the duration of a
traced call and restores them afterwards. Each span records a name, start,
end and parent; spans stay in memory until the run ends. Each wrapped call
also keeps its arguments and result, so checks and counts can run after the
timed call returns.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import linkconformal.graph as graph_mod
import linkconformal.pipeline as pipeline_mod
import linkconformal.powerlaw as powerlaw_mod
import linkconformal.sampling as sampling_mod

# (module, attribute, span name). A function imported into several modules
# is wrapped in each, under one span name.
TARGETS = (
    (pipeline_mod, "generate_powerlaw_graph", "graph.generate"),
    (pipeline_mod, "inject_cliques", "graph.inject_cliques"),
    (pipeline_mod, "negative_sample", "graph.negative_sample"),
    (pipeline_mod, "split_edges", "graph.split_edges"),
    (pipeline_mod, "training_subgraph", "graph.training_subgraph"),
    (pipeline_mod, "degree_sequence", "graph.degree_sequence"),
    (sampling_mod, "degree_sequence", "graph.degree_sequence"),
    (pipeline_mod, "train_link_predictor", "model.train"),
    (pipeline_mod, "encode_nodes", "model.encode"),
    (pipeline_mod, "edge_embeddings", "model.edge_embeddings"),
    (pipeline_mod, "fit_quantile_functions", "quantile.fit"),
    (pipeline_mod, "conformalize", "conformal.conformalize"),
    (pipeline_mod, "evaluate", "conformal.evaluate"),
    (pipeline_mod, "fit_power_law", "powerlaw.fit"),
    (sampling_mod, "fit_power_law", "powerlaw.fit"),
    (powerlaw_mod, "hurwitz_zeta", "powerlaw.hurwitz_zeta"),
    (graph_mod, "hurwitz_zeta", "powerlaw.hurwitz_zeta"),
    (pipeline_mod, "sample_edges", "sampling.sample_edges"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    phase: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Call:
    """One wrapped call: its span name, arguments by parameter name, result."""

    name: str
    args: Dict[str, Any]
    result: Any
    phase: str


@dataclass
class Tracer:
    spans: List[Span] = field(default_factory=list)
    phase: str = ""
    _stack: List[int] = field(default_factory=list)
    _raw_calls: list = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), parent=parent, phase=self.phase)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            # Arguments are bound to names later, outside the timed call.
            self._raw_calls.append((name, signature, args, kwargs, result, self.phase))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Replace each target attribute by a traced wrapper, then restore it."""
        originals = []
        try:
            for module, attr, name in TARGETS:
                original = getattr(module, attr)
                originals.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)

    def calls_named(self, name: str, phase: Optional[str] = None) -> List[Call]:
        """Calls of one span name, with arguments bound to parameter names."""
        out = []
        for call_name, signature, args, kwargs, result, call_phase in self._raw_calls:
            if call_name != name or (phase is not None and call_phase != phase):
                continue
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            out.append(Call(call_name, dict(bound.arguments), result, call_phase))
        return out

    def self_times(self, phase: str) -> Dict[str, float]:
        """Total self time per span name within one phase.

        A span's self time is its duration minus that of its direct
        children, so nested layers are not counted twice.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        totals: Dict[str, float] = {}
        for i, span in enumerate(self.spans):
            if span.phase == phase:
                totals[span.name] = totals.get(span.name, 0.0) + span.duration - child_time[i]
        return totals

    def drop_calls(self) -> None:
        """Release the arguments and results kept for checks."""
        self._raw_calls.clear()

    def to_json(self) -> list:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "phase": s.phase}
            for s in self.spans
        ]

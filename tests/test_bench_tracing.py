"""The bench tracer's contract with the program.

``bench/tracing.py`` times each stage by replacing a module attribute,
such as ``pipeline.split_edges`` or ``graph.hurwitz_zeta``, for the span
of a traced call. A module that stops calling a stage through its own
module-level name would break only the bench, so every target is checked
here.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_target_is_a_callable_module_attribute(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    broken = [
        f"{module.__name__}.{attr}"
        for module, attr, _ in tracing.TARGETS
        if not callable(getattr(module, attr, None))
    ]
    assert broken == []

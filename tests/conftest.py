import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """``traced_peak(fn)`` runs ``fn()`` under tracemalloc and returns
    ``(fn(), peak)``: peak is the most traced bytes allocated at once while
    ``fn`` ran, above what was allocated when it started."""

    def run(fn):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = fn()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        return result, peak

    return run

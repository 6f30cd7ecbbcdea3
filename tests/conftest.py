import tracemalloc

import pytest

from fairgfl.gcn import Stack


@pytest.fixture
def traced_peak():
    """traced_peak(fn, *args) -> (fn(*args), peak bytes that tracemalloc saw
    allocated during the call above what was live when it began)."""

    def run(fn, *args):
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            result = fn(*args)
            return result, tracemalloc.get_traced_memory()[1] - start
        finally:
            if not was_tracing:
                tracemalloc.stop()

    return run


@pytest.fixture
def one_graph():
    """one_graph(a_hat, x, labels) -> the gcn.Stack of that graph alone."""
    return lambda a_hat, x, labels: Stack(a_hat, (a_hat @ x,), labels, (0, len(x)))

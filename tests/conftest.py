"""Shared fixtures."""

import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """``run(fn, *args, **kwargs)`` calls ``fn`` under tracemalloc and returns (its result, peak bytes).

    numpy reports its array buffers to tracemalloc, so the peak counts every
    array the call allocates and nothing allocated before it.
    """

    def run(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            result = fn(*args, **kwargs)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return run

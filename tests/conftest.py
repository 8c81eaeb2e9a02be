"""Shared fixtures."""

import tracemalloc

import numpy.random  # noqa: F401  (numpy imports it on the first draw; traced, that import counts in a peak)
import pytest


@pytest.fixture
def traced_peak():
    """``run(fn, *args, **kwargs)`` calls ``fn`` under tracemalloc and returns (its result, peak bytes).

    numpy reports its array buffers to tracemalloc, so the peak counts every
    array the call allocates and nothing allocated before it. ``numpy.random``
    is imported with this module, so a call's first draw does not count the
    one-time import.
    """

    def run(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            result = fn(*args, **kwargs)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return run


@pytest.fixture
def count_calls(monkeypatch):
    """``count(owner, name, record=None)`` wraps ``owner.name`` and returns the list its calls append to.

    Each call appends ``record(*args, **kwargs)``, or 1 without ``record``,
    and then runs the original.
    """

    def count(owner, name, record=None):
        calls = []
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(1 if record is None else record(*args, **kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    return count

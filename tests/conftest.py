"""Shared fixtures."""

import tracemalloc
import weakref

import numpy as np
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


@pytest.fixture
def factor_refs(monkeypatch):
    """``watch(owner, keep=())`` wraps ``owner.gradient_factors`` and returns the weak references it fills.

    Each call adds a reference to every array of the ``GradientFactors`` it
    returns (pairs and outputs) and to every array such an array is a view
    of, except the arrays in ``keep``: a pair holds the caller's inputs
    themselves as the first layer's input when that layer trains. A dead
    reference means a freed buffer, whoever reads the process's memory;
    ``tracemalloc`` sees numpy's allocations but not LAPACK's workspace.
    """

    def watch(owner, keep=()):
        refs = []
        original = owner.gradient_factors

        def recorded(*args, **kwargs):
            factors = original(*args, **kwargs)
            arrays = [array for pair in factors.pairs for array in pair] + list(factors.outputs)
            while arrays:
                array = arrays.pop()
                if isinstance(array, np.ndarray) and not any(array is kept for kept in keep):
                    refs.append(weakref.ref(array))
                    arrays.append(array.base)
            return factors

        monkeypatch.setattr(owner, "gradient_factors", recorded)
        return refs

    return watch

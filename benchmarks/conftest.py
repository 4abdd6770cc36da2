"""Shared fixtures for the figure benchmarks.

Every benchmark regenerates one figure of the paper at CI scale, prints
the rows the paper reports, and asserts the expected *shape* (who wins,
roughly by how much) — not absolute numbers, which move with the host
and with the CI-scale inputs.
"""

import pytest


def run_once(benchmark, fn, *args, **kwargs):
    """pytest-benchmark wrapper for macro-benchmarks: one timed round."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

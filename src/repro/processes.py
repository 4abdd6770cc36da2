"""The one way this package starts a process.

Forked socketpair workers and dialing workers (:mod:`repro.remote`) and
test generation's solve helper (:mod:`repro.engine.solve_helper`) all
start through :func:`process_context`.  ``multiprocessing`` is imported
at the first start, not with the engine: a run that starts nothing does
not pay for it.
"""

from __future__ import annotations


def can_fork() -> bool:
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def process_context():
    """A ``fork`` context where the host has one, else ``spawn``."""
    import multiprocessing

    return multiprocessing.get_context("fork" if can_fork() else "spawn")

"""The one bounded memo, and the one way to drop the process-wide ones.

Every memo in this package caches a pure function of interned
expressions (or of an immutable tuple of them, or of a compiled module),
so losing an entry only loses acceleration: it is recomputed, never
answered differently.  That
makes first-in first-out eviction at a fixed bound sufficient, and makes
clearing always safe.

Lookups are plain dict operations (``key in memo``, ``memo[key]``,
``memo.get(key)`` are inherited from ``dict``); only the insert goes
through :meth:`BoundedMemo.put`.

Process-wide memos outlive a run, so a second run in the same process
finds the first one's answers — cheaper than a second process would be,
and with different ``testgen_group_solves`` / ``testgen_cost_units``.
An in-process A/B comparison calls :func:`clear_memos` between its arms
(:func:`repro.experiments.harness.run_cell` does, before every cell).
"""

from __future__ import annotations

from collections import OrderedDict

_PROCESS_WIDE: list["BoundedMemo"] = []


class BoundedMemo(OrderedDict):
    """A dict that forgets its oldest entry once it holds ``bound`` + 1."""

    def __init__(self, bound: int, *, process_wide: bool = False):
        super().__init__()
        self.bound = bound
        if process_wide:
            _PROCESS_WIDE.append(self)

    def put(self, key, value) -> None:
        self[key] = value
        if len(self) > self.bound:
            self.popitem(last=False)


def clear_memos() -> None:
    """Empty every process-wide memo, as a fresh process would find them."""
    for memo in _PROCESS_WIDE:
        memo.clear()

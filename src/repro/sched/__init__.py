"""repro.sched — the unified coverage/corpus-guided scheduler.

Every "what runs next" decision in the system goes through this package:

* **sequential search** — the ranking strategies in
  :mod:`repro.search.strategies` (``coverage``, ``topological``, and the
  DSM forwarding pick) are thin adapters over a shared
  :class:`Prioritizer` heap instead of bespoke argmin loops;
* **parallel dispatch** — the coordinator's task queue is a
  :class:`PartitionScheduler` priority queue scored by the same signal
  model over :class:`~repro.parallel.partition.Partition` metadata, and
  work-stealing victim selection ranks by that one score.

The model: a :class:`Signal` maps a work item (a live
:class:`~repro.engine.state.SymState` or a partition's metadata) to a
comparable score, *lower = run sooner*.  A :class:`Prioritizer` composes
signals lexicographically into one key and maintains a lazily-rescored
heap over the registered items, one entry per group of items that share
a key (per location when every signal is location-scoped).  Signals
available today:

* global coverage frontier (is the item's block uncovered *this run*?);
* stored corpus evidence (does any stored test cover the block? —
  :meth:`repro.store.db.ReproStore.covered_blocks`, indexed);
* pick counts and CFG-topological order;
* for partitions, prefix depth and the partition id —
  :func:`partition_score` (corpus novelty, prefix depth, pid) is the
  one key every dispatch and steal decision ranks by.

Scheduling invariants (enforced by ``tests/test_sched.py`` and, for
corpus-guided dispatch, ``tests/test_figure_laws.py``):

* **neutrality in plain mode** — scheduling changes the *order* paths
  are explored, never the path space: 1-worker and N-worker plain-mode
  runs emit identical test multisets under any dispatch policy;
* **lower-bound heap law** — a registered item's stored key never
  exceeds its current key (signals may only worsen while an item waits),
  so lazy rescoring on pop always returns a true minimum;
* **bookkeeping balance** — every ``on_add`` is matched by exactly one
  ``on_remove`` (pick, merge replacement, or frontier export), so the
  heap's alive-set always mirrors the engine worklist.
"""

from .prioritizer import (
    CorpusNoveltySignal,
    CoverageFrontierSignal,
    PickCountSignal,
    Prioritizer,
    Signal,
    TopologicalSignal,
)
from .partition_sched import PartitionScheduler, partition_score

__all__ = [
    "CorpusNoveltySignal",
    "CoverageFrontierSignal",
    "PartitionScheduler",
    "PickCountSignal",
    "Prioritizer",
    "Signal",
    "TopologicalSignal",
    "partition_score",
]

"""Parallel path exploration: coordinator/worker with path-prefix partitioning.

The sequential engine explores one worklist; this package fans that
worklist out over process-based workers.  The coordinator splits the path
space into *partitions* — serialized states whose path conditions are
disjoint prefixes — dispatches them to a pool of workers (each with its
own :class:`~repro.engine.executor.Engine` and incremental solver chain),
streams back tests/coverage/stats, and rebalances by work stealing when a
worker's frontier drains.

Quick start::

    from repro.parallel import run_parallel
    result = run_parallel("echo", workers=2)
    result.check_ledger()
    print(result.paths, len(result.tests.cases), result.wall_time)

Invariants (see the module docstrings for details):

* **partition disjointness** — outstanding partitions plus worker-local
  states always describe pairwise-disjoint input sets, so no path is
  explored twice (:mod:`repro.parallel.partition`);
* **stats-merge ledger** — additive fields of the merged stats equal the
  sum over the per-participant entries exactly
  (:meth:`ParallelResult.check_ledger`);
* **determinism** — a generated test is a pure function of its path
  condition, so a 1-worker and an N-worker plain-mode run emit the same
  test set and cover the same paths, independent of scheduling — *including*
  runs where workers die mid-campaign, thanks to the lease/requeue layer
  every fleet runs on (:mod:`repro.parallel.state`, :mod:`repro.remote`).
"""

from .coordinator import (
    ConfigError,
    Coordinator,
    ParallelConfig,
    ParallelResult,
    WorkerCrashError,
    run_parallel,
)
from .partition import Partition
from .state import CampaignState

__all__ = [
    "CampaignState",
    "ConfigError",
    "Coordinator",
    "ParallelConfig",
    "ParallelResult",
    "Partition",
    "WorkerCrashError",
    "run_parallel",
]

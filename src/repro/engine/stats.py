"""Execution statistics for experiments and regression tests."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class EngineStats:
    """Counters the experiment harness reads after a run.

    ``paths_completed`` counts terminal states weighted by multiplicity —
    the paper's estimated path count.  ``exact_paths`` is only populated
    when exact-path tracking (Fig. 3 instrumentation) is enabled.
    """

    blocks_executed: int = 0
    instructions_executed: int = 0
    # Lowering tier (repro.lang.compile): blocks whose straight-line prefix
    # was compiled, instructions retired by compiled code (a subset of
    # instructions_executed), and compiled runs that bailed back to the
    # interpreter before finishing their prefix.
    blocks_compiled: int = 0
    compiled_steps: int = 0
    compiled_bailouts: int = 0
    forks: int = 0
    branch_queries: int = 0
    merges: int = 0
    dsm_fastforward_picks: int = 0
    dsm_fastforward_states: int = 0
    dsm_ff_merges: int = 0
    states_created: int = 1
    states_terminated: int = 0
    states_infeasible: int = 0
    paths_completed: int = 0
    exact_paths: int = 0
    max_multiplicity: int = 0
    max_worklist: int = 0
    errors_found: int = 0
    tests_generated: int = 0
    # Work done by test generation's history-free solves.  Kept out of
    # the engine chain's ``SolverStats``, whose ledger must balance on its
    # own.  ``testgen_queries`` is one per test asked for; each of its
    # independence groups is either solved (``testgen_group_solves``, its
    # cost in ``testgen_cost_units``) or served (``testgen_group_hits``)
    # from the process-wide memo or, the ``testgen_corpus_hits`` among
    # them, from the store's corpus row for that test — which of these
    # depends on what the process generated before and on what the store
    # holds, so only solves + hits is order-independent.
    testgen_queries: int = 0
    testgen_cost_units: int = 0
    testgen_group_solves: int = 0
    testgen_group_hits: int = 0
    testgen_corpus_hits: int = 0
    wall_time: float = 0.0
    # CPU seconds consumed by this engine's process while exploring.
    # Unlike wall_time this is immune to timesharing, which makes it the
    # per-worker quantity the parallel-scaling figure's critical-path
    # speedup is computed from (meaningful even on a single-core host).
    cpu_time: float = 0.0
    timed_out: bool = False
    # Warm-start seeding volume (0 on cold runs / without a store).
    warm_models_seeded: int = 0
    warm_cores_seeded: int = 0
    # Scheduler subsystem (repro.sched): heap picks served by prioritized
    # strategies, lazy rescores the heap absorbed, and — on parallel runs
    # — the observed worker imbalance (max/mean of per-worker path work;
    # 1.0 = perfectly level; feeds next run's adaptive partition_factor).
    sched_picks: int = 0
    sched_rescores: int = 0
    sched_imbalance: float = 0.0

    # Fields that do not merge by addition: maxima stay maxima across
    # workers, ``timed_out`` is an any-of, and these are handled explicitly
    # in :meth:`merge`.
    _MAX_FIELDS = ("max_multiplicity", "max_worklist", "sched_imbalance")
    _OR_FIELDS = ("timed_out",)

    def snapshot(self) -> dict[str, float]:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    def merge(self, other: "EngineStats") -> "EngineStats":
        """Fold another engine's counters into this one.

        The merge law the parallel coordinator's ledger relies on:
        event counters (and ``wall_time``, which becomes aggregate CPU
        seconds) add component-wise; high-water marks take the max;
        ``timed_out`` is true if any participant tripped a budget.
        Addition-merged fields therefore satisfy the ledger invariant
        ``merged.f == sum(worker.f for worker in workers)`` exactly, and
        ``merge`` is associative and commutative over those fields.
        """
        for name in self.__dataclass_fields__:
            if name in self._MAX_FIELDS:
                setattr(self, name, max(getattr(self, name), getattr(other, name)))
            elif name in self._OR_FIELDS:
                setattr(self, name, getattr(self, name) or getattr(other, name))
            else:
                setattr(self, name, getattr(self, name) + getattr(other, name))
        return self

    @classmethod
    def merged(cls, parts) -> "EngineStats":
        """Merge an iterable of stats into a fresh all-zero ledger."""
        total = cls(states_created=0)
        for part in parts:
            total.merge(part)
        return total


@dataclass
class CoverageTracker:
    """Covered (function, block) pairs plus statement accounting."""

    covered: set[tuple[str, str]] = field(default_factory=set)
    statement_totals: dict[tuple[str, str], int] = field(default_factory=dict)

    def register_module(self, module) -> None:
        for fname, fn in module.functions.items():
            for label, block in fn.blocks.items():
                # A block's "statements" = instructions + terminator.
                self.statement_totals[(fname, label)] = len(block.instrs) + 1

    def touch(self, func: str, block: str) -> None:
        self.covered.add((func, block))

    @property
    def blocks_covered(self) -> int:
        return len(self.covered)

    @property
    def statements_covered(self) -> int:
        return sum(self.statement_totals.get(key, 1) for key in self.covered)

    @property
    def statements_total(self) -> int:
        return sum(self.statement_totals.values())

    def statement_coverage(self) -> float:
        total = self.statements_total
        return self.statements_covered / total if total else 0.0

"""The counters of one ledger participant, and the one rule that merges them.

A participant is a sequential engine, a partitioned run's split phase or
one worker, and it carries one :class:`Stats` record: the engine counts
into it and so does its solver chain (``engine.solver.stats is
engine.stats``).  A standalone chain gets a record of its own.

**Merge law.**  Every field adds component-wise, except the high-water
marks in ``_MAX_FIELDS`` (max) and the any-of flags in ``_OR_FIELDS``
(or).  So ``merged.f == sum(p.f for p in participants)`` holds exactly
for every field in :data:`ADDITIVE_FIELDS`, and :meth:`Stats.merge` is
associative and commutative — the law
:meth:`~repro.parallel.coordinator.ParallelResult.check_ledger` checks
field by field.  :meth:`Stats.delta` is its inverse on those fields: two
cumulative snapshots of one worker difference to the work between them.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field


@dataclass
class Stats:
    """Counters a run's harness, ledger and store row read after a run.

    ``paths_completed`` counts terminal states weighted by multiplicity —
    the paper's estimated path count.  ``exact_paths`` is only populated
    when exact-path tracking (Fig. 3 instrumentation) is enabled.
    """

    # -- the engine ------------------------------------------------------------
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
    # Work done by test generation's history-free solves, on chains of
    # their own, so the solver counters below balance without it.
    # ``testgen_queries`` is one per test asked for; each of its
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
    # strategies and lazy rescores the heap absorbed.
    sched_picks: int = 0
    sched_rescores: int = 0

    # -- the solver chain ------------------------------------------------------
    # Accounting invariant: queries == sat_answers + unsat_answers + timeouts.
    queries: int = 0
    sat_answers: int = 0
    unsat_answers: int = 0
    const_answers: int = 0
    sat_solver_runs: int = 0
    sat_decisions: int = 0
    sat_conflicts: int = 0
    sat_propagations: int = 0
    # Watch-list entries visited during BCP.  The blocker optimization
    # shows up as this falling relative to ``sat_propagations``.
    bcp_props: int = 0
    cost_units: int = 0
    time_total: float = 0.0
    timeouts: int = 0
    # In-memory cache effectiveness by tier (mirrored from the chain's
    # QueryCache): their sum is every query or group the cache answered.
    cache_hits_exact: int = 0
    cache_hits_subset: int = 0
    cache_hits_model: int = 0
    cache_misses: int = 0
    # Persistent-store tier (stay 0 when no store is attached): hits +
    # misses = groups that reached the bottom tier, misses = solves run.
    store_hits: int = 0
    store_misses: int = 0
    store_inserts: int = 0
    store_rejects: int = 0
    # Assumption cores extracted from UNSAT answers (incremental tier).
    unsat_cores: int = 0
    # Pre-solve tier (repro.solver.presolve): groups it answered without
    # bit-blasting (their sum is ``fastpath_hits``).
    presolve_hits_sat: int = 0
    presolve_hits_unsat: int = 0
    # Groups structurally rewritten at the solver boundary before blasting.
    presolve_rewrites: int = 0
    # Environment snapshots extended incrementally (vs. built from scratch).
    presolve_env_reuses: int = 0
    presolve_env_builds: int = 0
    # Work-list pops that reused the environment's generation-tagged fact
    # memo across pops (stays 0 with presolve batching disabled).
    presolve_batch_rounds: int = 0
    # Incremental-tier counters (stay 0 on a fresh-blast chain).
    # ``sat_solver_runs`` counts *full blasts*: every bottom-tier query on
    # the fresh chain, but only blaster (re)builds on the incremental one.
    assumption_probes: int = 0
    # Assumption literals whose level a probe found still on the CDCL
    # trail vs. had left to place; they sum to the literals probes carried.
    assumption_levels_reused: int = 0
    assumption_levels_opened: int = 0
    incremental_reuses: int = 0
    clauses_retained: int = 0
    clauses_forgotten: int = 0
    blasters_created: int = 0
    blasters_reset: int = 0
    # check_branch calls, and the ``¬cond`` arms among them that were never
    # asked: ``slice ∧ cond`` came back UNSAT and the caller's pc is
    # satisfiable (the satisfiable-pc invariant), so ``¬cond`` holds on it.
    branch_batches: int = 0
    branch_elisions: int = 0

    # The fields that do not merge by addition (module docstring).
    _MAX_FIELDS = ("max_multiplicity", "max_worklist")
    _OR_FIELDS = ("timed_out",)

    @property
    def fastpath_hits(self) -> int:
        """Groups answered without bit-blasting."""
        return self.presolve_hits_sat + self.presolve_hits_unsat

    def snapshot(self) -> dict[str, float]:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    def merge(self, other: "Stats") -> "Stats":
        """Fold another participant's counters into this one."""
        for name in self.__dataclass_fields__:
            mine, theirs = getattr(self, name), getattr(other, name)
            if name in self._MAX_FIELDS:
                setattr(self, name, max(mine, theirs))
            elif name in self._OR_FIELDS:
                setattr(self, name, mine or theirs)
            else:
                setattr(self, name, mine + theirs)
        return self

    @classmethod
    def merged(cls, parts) -> "Stats":
        """Merge an iterable of records into a fresh all-zero one."""
        total = cls(states_created=0)
        for part in parts:
            total.merge(part)
        return total

    def delta(self, prev: "Stats | None") -> "Stats":
        """The work since ``prev``, an earlier cumulative snapshot of the
        same participant (None: since the start).  Maxima and flags stay
        cumulative — a merged maximum only ever reads an upper bound."""
        if prev is None:
            return self
        out = copy.copy(self)
        for name in ADDITIVE_FIELDS:
            setattr(out, name, getattr(self, name) - getattr(prev, name))
        return out


# The fields the merge law adds up, in declaration order.
ADDITIVE_FIELDS = tuple(
    name for name in Stats.__dataclass_fields__
    if name not in Stats._MAX_FIELDS + Stats._OR_FIELDS
)


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

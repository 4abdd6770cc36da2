"""The solver chain: slice → cache → pre-solve → rewrite-fold → store → bit-blasting.

:class:`SolverChain` is the engine-facing facade, mirroring KLEE's stacked
solvers (independent-constraint splitter, counterexample cache, and STP at
the bottom — here our own CDCL bit-blaster).  It blasts each query that
reaches the bottom tier from scratch.  Ahead of the bottom tier sits the
*pre-solve* tier (:mod:`repro.solver.presolve`): incremental per-path
abstract domains that answer queries without blasting, plus a solver-
boundary structural simplifier that shrinks the groups that do get
blasted.  The fastpath neutrality law: enabling or disabling the tier
changes which tier answers (and the counters), never a verdict.

Two entries.  :meth:`SolverChain.check` decides any constraint set whole
(cache, then one pass per independence group).  A branch asks about its
*slice*: :meth:`SolverChain.check_sliced` and :meth:`~SolverChain
.check_branch`, the engine's feasibility queries, flatten the path
condition, keep what is transitively connected to the condition through
shared variables (:func:`~repro.expr.independence.relevant_constraints`)
and hand ``check`` that slice plus the condition — one independence
group whose cache key recurs across paths where a whole pc never does.
They rest on the **satisfiable-pc invariant**: the caller's pc is
satisfiable.  Then so is the rest of the pc, which shares no variable
with the slice or the condition, hence ``pc ∧ cond`` is SAT iff
``slice ∧ cond`` is; and when ``slice ∧ cond`` is UNSAT every model of
the pc satisfies ``¬cond``, so the other arm is SAT with no second query
(``branch_elisions``) and no cache evidence.  ``check`` assumes nothing
and is the oracle of that law (``tests/test_solver_slice.py``).

The optional persistent store (:mod:`repro.store`) is consulted at one
place only — :meth:`SolverChain._solve_group`, for a group every cheaper
tier has failed to decide, i.e. where the next step would be a SAT solve
— and is told one thing only: the verdict of the solve that follows a
miss (plus the UNSAT core extracted from it).  The tier-order ledger law,
with a store attached: ``store_hits + store_misses`` counts the groups
that reached the bottom tier, ``store_misses`` the bottom-tier solves run
(``assumption_probes`` here, ``sat_solver_runs`` on the fresh chain), and
``store_inserts <= store_misses + unsat_cores``.

:class:`IncrementalChain` replaces the bottom tier with *incremental*
assumption-based solving: one long-lived :class:`BitBlaster` is kept per
independence-group signature (the group's variable set), each constraint
is encoded once and activated per query through a guard literal, and the
CDCL core keeps its learned clauses and VSIDS activity across queries.
Invariants for the persistent blasters:

* a blaster only ever sees constraints over its signature's variables, so
  guard-gated encodings from older queries cannot interfere with verdicts
  — inactive constraints are simply disabled circuits;
* a blaster must be **reset** (dropped and lazily rebuilt) whenever a
  query against it times out — the conflict budget may have been burned on
  clauses the next query would also trip over — and when its clause
  database outgrows ``max_blaster_clauses``;
* models read from a persistent blaster may bind variables from earlier
  queries; callers must treat only the queried group's variables as
  authoritative (see :meth:`SolverChain._check_inner`).

Besides wall-clock time, the chain maintains a deterministic *cost unit*
counter (SAT decisions + conflicts, plus a constant per query) used by
the experiment harness as a platform-independent proxy for solver load.
Accounting invariant: ``queries == sat_answers + unsat_answers +
timeouts`` even when :class:`SolverTimeout` escapes ``check``.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import ClassVar

from ..expr import ops
from ..expr.independence import relevant_constraints, split_independent
from ..expr.nodes import Expr
from ..expr.subst import conjuncts as flatten_conjuncts
from .bitblast import BitBlaster
from .cache import QueryCache
from .presolve import SAT, UNSAT, PresolveManager, group_signature, simplify_group
from .sat import SatResult


@dataclass
class SolverStats:
    """Counters accumulated across all queries of one chain instance."""

    queries: int = 0
    sat_answers: int = 0
    unsat_answers: int = 0
    const_answers: int = 0
    cache_hits: int = 0
    fastpath_hits: int = 0
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
    # In-memory cache effectiveness, broken down by tier (synced from the
    # QueryCache's own counters; ``cache_hits`` above is the chain-side
    # total and predates the breakdown).
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
    # Pre-solve tier (repro.solver.presolve).  ``fastpath_hits`` above keeps
    # its historical meaning — answered without bit-blasting — and equals
    # ``presolve_hits_sat + presolve_hits_unsat`` exactly.
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

    def snapshot(self) -> dict[str, float]:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    def merge(self, other: "SolverStats") -> "SolverStats":
        """Fold ``other`` into this ledger entry (all fields are additive).

        The merge law the parallel coordinator relies on: merging the
        per-worker stats must equal the stats of one chain that answered
        every worker's queries — every field here is a pure event counter
        (or a duration), so component-wise addition is exact and the
        operation is associative and commutative.
        """
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self

    @classmethod
    def merged(cls, parts) -> "SolverStats":
        total = cls()
        for part in parts:
            total.merge(part)
        return total


@dataclass
class CheckResult:
    is_sat: bool
    model: dict[str, int] | None = None


class SolverTimeout(Exception):
    """A query exceeded the per-query conflict budget."""


@dataclass
class SolverChain:
    """Decides conjunctions of boolean expressions.

    Args:
        use_cache: enable the counterexample/model cache tier.
        use_fastpath: enable the equality/interval/probing fast path.
        use_independence: split queries into variable-disjoint groups.
        conflict_budget: per-query CDCL conflict limit (None = unlimited);
            exceeding it raises :class:`SolverTimeout`.
    """

    use_cache: bool = True
    use_fastpath: bool = True
    use_independence: bool = True
    conflict_budget: int | None = 200_000
    # Learned-clause cap handed to every CDCL core this chain creates;
    # past it the least-active half is forgotten at a restart (None
    # disables forgetting).  Matters most for the incremental chain's
    # long-lived blasters, which would otherwise accumulate learned
    # clauses for the whole worker lifetime.
    sat_max_learned: int | None = 4000
    cache: QueryCache = field(default_factory=QueryCache)
    stats: SolverStats = field(default_factory=SolverStats)
    # The stateful pre-solve tier (abstract domains; repro.solver.presolve),
    # gated by ``use_fastpath``.  Environments live per independence-group
    # signature and are extended incrementally as path conditions grow.
    presolve: PresolveManager = field(default_factory=PresolveManager, repr=False)
    # Optional persistent tier (repro.store.PersistentTier): asked about
    # a group right before it would be solved, told that solve's verdict
    # (buffered; a single writer flushes at end of run).
    persistent: object | None = None

    def check(self, constraints) -> CheckResult:
        """Is the conjunction of ``constraints`` satisfiable? Model included."""
        start = time.perf_counter()
        self.stats.queries += 1
        self.stats.cost_units += 1
        try:
            result = self._check_inner(list(constraints))
        except SolverTimeout:
            # Keep the ledger balanced: a timed-out query is neither a SAT
            # nor an UNSAT answer, so queries == sat + unsat + timeouts.
            self.stats.timeouts += 1
            raise
        finally:
            self.stats.time_total += time.perf_counter() - start
            self._sync_cache_counters()
        if result.is_sat:
            self.stats.sat_answers += 1
        else:
            self.stats.unsat_answers += 1
        return result

    def check_sliced(self, pc, cond: Expr) -> CheckResult:
        """Decide ``pc ∧ cond`` for a **satisfiable** ``pc`` from its slice.

        Only the conjuncts of ``pc`` transitively sharing variables with
        ``cond`` are sent to :meth:`check`.  The returned model binds the
        slice (a cache hit may bind more); it is not a model of ``pc``.
        """
        return self.check(self._slice(pc, cond) + [cond])

    def check_branch(self, pc, cond: Expr) -> tuple[CheckResult, CheckResult]:
        """Decide ``pc ∧ cond`` and ``pc ∧ ¬cond`` for a **satisfiable** ``pc``.

        This is the executor's branch-feasibility query, and the
        satisfiable-pc invariant is the caller's to keep: both arms are
        decided on the slice of ``pc`` connected to ``cond``, and when the
        ``cond`` arm is UNSAT the ``¬cond`` arm is SAT by the invariant —
        the second query is elided and no model is materialized.
        """
        self.stats.branch_batches += 1
        relevant = self._slice(pc, cond)
        then_res = self.check(relevant + [cond])
        if not then_res.is_sat:
            self.stats.branch_elisions += 1
            return then_res, CheckResult(True, None)
        return then_res, self.check(relevant + [ops.not_(cond)])

    # -- internals -----------------------------------------------------------

    def _sync_cache_counters(self) -> None:
        """Mirror the cache/tier-internal counters into this chain's stats.

        Assignment (not addition) is correct here: each chain owns exactly
        one :class:`QueryCache` and at most one persistent tier, so the
        mirrored values are this chain's own totals and stay additive
        under :meth:`SolverStats.merge` across chains.
        """
        cache = self.cache
        self.stats.cache_hits_exact = cache.hits_exact
        self.stats.cache_hits_subset = cache.hits_subset_unsat
        self.stats.cache_hits_model = cache.hits_model_reuse
        self.stats.cache_misses = cache.misses
        self.stats.presolve_env_reuses = self.presolve.env_reuses
        self.stats.presolve_env_builds = self.presolve.env_builds
        self.stats.presolve_batch_rounds = self.presolve.batch_rounds
        if self.persistent is not None:
            self.stats.store_rejects = self.persistent.rejects

    def _persist(self, constraints: list[Expr], is_sat: bool, model) -> None:
        """Buffer a solved verdict for the store's single writer."""
        if self.persistent is not None:
            if self.persistent.record(constraints, is_sat, model):
                self.stats.store_inserts += 1

    @staticmethod
    def _flatten(constraints) -> tuple[list[Expr], bool]:
        """Normalize: flatten conjunctions, drop trues, dedupe.

        Returns ``(flat, is_const_false)``.  This is the cache-key
        normalization — every lookup and store must go through it.
        """
        flat: list[Expr] = []
        seen: set[int] = set()
        for c in constraints:
            for leaf in flatten_conjuncts(c):
                if leaf.is_false():
                    return [], True
                if leaf.is_true() or leaf.eid in seen:
                    continue
                seen.add(leaf.eid)
                flat.append(leaf)
        return flat, False

    def _slice(self, pc, cond: Expr) -> list[Expr]:
        """The conjuncts of ``pc`` that can bear on ``cond``."""
        return relevant_constraints(self._flatten(pc)[0], cond)

    def _check_inner(self, constraints: list[Expr]) -> CheckResult:
        flat, const_false = self._flatten(constraints)
        if const_false:
            self.stats.const_answers += 1
            return CheckResult(False)
        if not flat:
            self.stats.const_answers += 1
            return CheckResult(True, {})

        if self.use_cache:
            hit = self.cache.lookup(flat)
            if hit is not None:
                self.stats.cache_hits += 1
                return CheckResult(hit[0], dict(hit[1]) if hit[1] is not None else None)

        groups = split_independent(flat) if self.use_independence else [flat]
        # A lone group is the whole set, just looked up above and stored
        # below: the group tier would only repeat both.
        cache_groups = self.use_cache and len(groups) > 1
        model: dict[str, int] = {}
        for group in groups:
            sub = self._check_group(group, cache_groups and len(group) > 1)
            if not sub.is_sat:
                if self.use_cache:
                    self.cache.store(flat, False, None)
                return CheckResult(False)
            if sub.model:
                # A cache hit may return a model binding variables outside
                # this group (recent models are full assignments); only the
                # group's own variables are authoritative here — anything
                # else could clobber another group's solution.
                group_vars = set()
                for c in group:
                    group_vars |= c.variables
                model.update({k: v for k, v in sub.model.items() if k in group_vars})
        if self.use_cache:
            self.cache.store(flat, True, model)
        return CheckResult(True, model)

    def _check_group(self, group: list[Expr], cached: bool) -> CheckResult:
        """Decide one independence group; ``cached``: look it up in, and
        store its verdict to, the query cache."""
        if cached:
            hit = self.cache.lookup(group)
            if hit is not None:
                self.stats.cache_hits += 1
                return CheckResult(hit[0], dict(hit[1]) if hit[1] is not None else None)
        result = self._solve_group(group)
        if cached:
            self.cache.store(group, result.is_sat, result.model)
        return result

    def _solve_group(self, group: list[Expr]) -> CheckResult:
        sig = None
        if self.use_fastpath:
            sig = group_signature(group)
            verdict, model = self.presolve.check_group(group, sig)
            if verdict == SAT:
                self.stats.fastpath_hits += 1
                self.stats.presolve_hits_sat += 1
                return CheckResult(True, model)
            if verdict == UNSAT:
                self.stats.fastpath_hits += 1
                self.stats.presolve_hits_unsat += 1
                return CheckResult(False)
        blast, early = self._blast_set(group)
        if early is not None:
            return early
        # The bottom of the chain: what is left costs a SAT solve, which is
        # what a stored verdict is worth.  Everything above decides a group
        # for less than the store's canonical key costs to compute.
        if self.persistent is not None:
            hit = self.persistent.lookup(group)
            if hit is not None:
                # Promoted into the in-memory cache by the caller: repeats
                # of the group (and its SAT model / UNSAT subset power)
                # stay local.
                self.stats.store_hits += 1
                is_sat, model = hit
                return CheckResult(is_sat, dict(model) if model is not None else None)
            self.stats.store_misses += 1
        result = self._check_sat(group, blast, sig)
        self._persist(group, result.is_sat, result.model)
        return result

    def _blast_set(self, group: list[Expr]) -> tuple[list[Expr], CheckResult | None]:
        """Solver-boundary structural simplification of a group.

        Returns the constraint list to hand to the bit-blaster plus an
        early verdict when the rewrite folded the whole group.  Rewriting
        never leaves the solver boundary: caches, the persistent store and
        ``path_id``s all see the *original* group.  Gated by
        ``use_fastpath`` so the ablated chain stays a pure bit-blaster.
        """
        if not self.use_fastpath:
            return group, None
        rewritten = simplify_group(group)
        if rewritten is None:
            return group, None
        self.stats.presolve_rewrites += 1
        blast: list[Expr] = []
        for c in rewritten:
            if c.is_false():
                self.stats.fastpath_hits += 1
                self.stats.presolve_hits_unsat += 1
                return group, CheckResult(False)
            if not c.is_true():
                blast.append(c)
        # ``blast`` is never empty here: simplify_group only returns a
        # rewrite when it found bindings, and every binding's re-emitted
        # defining equality survives folding.  An empty list would still
        # be handled correctly downstream (a clause-free blaster is SAT).
        return blast, None

    def _check_sat(
        self, group: list[Expr], blast: list[Expr], sig: frozenset[str] | None
    ) -> CheckResult:
        """Bottom tier: bit-blast ``blast`` (``group`` after the boundary
        rewrite) from scratch and solve it."""
        blaster = BitBlaster(max_learned=self.sat_max_learned)
        for c in blast:
            blaster.assert_expr(c)
        self.stats.sat_solver_runs += 1
        try:
            model = blaster.solve(self.conflict_budget)
        except TimeoutError as exc:
            self._account_sat(blaster)
            raise SolverTimeout(str(exc)) from exc
        self._account_sat(blaster)
        return CheckResult(model is not None, model)

    def _account_sat(self, blaster: BitBlaster) -> None:
        sat = blaster.sat
        self.stats.sat_decisions += sat.stats_decisions
        self.stats.sat_conflicts += sat.stats_conflicts
        self.stats.sat_propagations += sat.stats_propagations
        self.stats.bcp_props += sat.stats_bcp_props
        self.stats.clauses_forgotten += sat.stats_forgotten
        self.stats.cost_units += sat.stats_decisions + sat.stats_conflicts

    # -- convenience API used by the engine ------------------------------------

    def get_model(self, constraints) -> dict[str, int] | None:
        result = self.check(constraints)
        return result.model if result.is_sat else None

    def must_be_true(self, path_condition, expr: Expr) -> bool:
        """True iff ``expr`` holds on every solution of the path condition."""
        return not self.check(list(path_condition) + [ops.not_(expr)]).is_sat

    def may_be_true(self, path_condition, expr: Expr) -> bool:
        """True iff some solution of the path condition satisfies ``expr``."""
        return self.check(list(path_condition) + [expr]).is_sat


# Cumulative CDCL counter -> the SolverStats field its per-probe delta feeds.
_PROBE_COUNTERS = (
    ("stats_decisions", "sat_decisions"),
    ("stats_conflicts", "sat_conflicts"),
    ("stats_propagations", "sat_propagations"),
    ("stats_bcp_props", "bcp_props"),
    ("stats_forgotten", "clauses_forgotten"),
    ("stats_levels_reused", "assumption_levels_reused"),
    ("stats_levels_opened", "assumption_levels_opened"),
)


class _PersistentBlaster:
    """A long-lived :class:`BitBlaster` plus last-seen CDCL counters.

    The counters (``seen``, in :data:`_PROBE_COUNTERS` order) let the chain
    account each probe's *delta* cost, since the underlying solver
    statistics are cumulative across queries.
    """

    __slots__ = ("blaster", "seen")

    def __init__(self, max_learned: int | None = 4000) -> None:
        self.blaster = BitBlaster(max_learned=max_learned)
        self.seen = [0] * len(_PROBE_COUNTERS)


@dataclass
class IncrementalChain(SolverChain):
    """A :class:`SolverChain` whose bottom tier solves incrementally.

    One persistent blaster is kept per independence-group *signature* (the
    frozenset of variable names in the group).  As a path condition grows,
    successive queries over the same variables land on the same blaster:
    already-seen constraints reuse their memoized CNF encoding and guard
    literal, and the CDCL core's learned clauses and activity carry over.
    Queries are answered by assumption probes — no clause is ever retracted,
    so an UNSAT-under-assumptions answer leaves the blaster valid.

    ``max_blasters`` bounds the pool (LRU); ``max_blaster_clauses`` bounds
    any one clause database (the blaster is reset past it).  A timed-out
    blaster is always reset — see the module docstring invariants.
    """

    max_blasters: ClassVar[int] = 32
    max_blaster_clauses: ClassVar[int] = 500_000
    _blasters: OrderedDict[frozenset[str], _PersistentBlaster] = field(
        default_factory=OrderedDict, repr=False
    )

    def reset_blasters(self) -> None:
        """Drop all persistent blasters (they rebuild lazily).

        The presolve environments are dropped with them — the reset rules
        of the two signature-keyed pools mirror each other by invariant.
        """
        if self._blasters:
            self.stats.blasters_reset += len(self._blasters)
            self._blasters.clear()
        self.presolve.reset()

    # -- incremental bottom tier ------------------------------------------------

    def _check_sat(
        self, group: list[Expr], blast: list[Expr], sig: frozenset[str] | None
    ) -> CheckResult:
        """Bottom tier: one assumption probe on the signature's blaster."""
        if sig is None:
            sig = group_signature(group)
        entry = self._blasters.get(sig)
        if entry is not None and entry.blaster.clause_count > self.max_blaster_clauses:
            del self._blasters[sig]
            self.stats.blasters_reset += 1
            self.presolve.reset_signature(sig)
            entry = None
        if entry is None:
            entry = _PersistentBlaster(max_learned=self.sat_max_learned)
            self._blasters[sig] = entry
            self.stats.blasters_created += 1
            self.stats.sat_solver_runs += 1  # a full (re-)blast
            if len(self._blasters) > self.max_blasters:
                self._blasters.popitem(last=False)
        else:
            self._blasters.move_to_end(sig)
            self.stats.incremental_reuses += 1
            self.stats.clauses_retained += entry.blaster.clause_count
        self.stats.assumption_probes += 1
        assumptions = [entry.blaster.guard_literal(c) for c in blast]
        try:
            model = entry.blaster.solve(self.conflict_budget, assumptions=assumptions)
        except TimeoutError as exc:
            self._account_probe(entry)
            # Recovery path: the budget may have died in this blaster's
            # learned-clause swamp; drop it so the next query re-blasts.
            # The reset mirrors onto the presolve tier (same invariant).
            self._blasters.pop(sig, None)
            self.stats.blasters_reset += 1
            self.presolve.reset_signature(sig)
            raise SolverTimeout(str(exc)) from exc
        self._account_probe(entry)
        if model is None and blast is group:
            # Cores are only harvested when the group went to the
            # blaster un-rewritten: cache and store must see original
            # constraint shapes, or the seeded subset-UNSAT entries
            # would never match future (original-form) queries.
            self._extract_core(entry.blaster, group)
        return CheckResult(model is not None, model)

    def _extract_core(self, blaster: BitBlaster, group: list[Expr]) -> None:
        """Feed the assumption core of an UNSAT answer to the caches.

        The CDCL core names the subset of guard literals that already
        conflicts; the corresponding constraint subset is itself UNSAT,
        and as a *smaller* set it subsumes strictly more future queries
        through the subset-UNSAT cache tier — in this process via the
        :class:`QueryCache`, across runs via the persistent store (both
        the canonical cache row and a decodable core blob for warm-start
        seeding).
        """
        core_lits = blaster.sat.last_core
        if not core_lits:
            return
        core = blaster.core_exprs(core_lits)
        if not core or len(core) >= len(group):
            return
        self.stats.unsat_cores += 1
        if self.use_cache:
            self.cache.store(core, False, None)
        if self.persistent is not None:
            self._persist(core, False, None)
            self.persistent.record_core(core)

    def _account_probe(self, entry: _PersistentBlaster) -> None:
        sat = entry.blaster.sat
        stats = self.stats
        seen = entry.seen
        cost_before = stats.sat_decisions + stats.sat_conflicts
        for i, (kernel_counter, field_name) in enumerate(_PROBE_COUNTERS):
            now = getattr(sat, kernel_counter)
            setattr(stats, field_name, getattr(stats, field_name) + now - seen[i])
            seen[i] = now
        stats.cost_units += stats.sat_decisions + stats.sat_conflicts - cost_before


def complete_model(model: dict[str, int], variables) -> dict[str, int]:
    """Fill unconstrained variables with 0 (deterministic test inputs)."""
    out = dict(model)
    for v in variables:
        name = v.name if isinstance(v, Expr) else v
        out.setdefault(name, 0)
    return out

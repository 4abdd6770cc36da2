"""The symbolic execution engine (the paper's Algorithm 1).

A worklist of :class:`SymState` is driven by a pluggable ``pickNext``
(search strategy), a feasibility checker ``follow`` (solver queries at
branches), and a similarity relation ``~`` deciding merges when states
meet at the same location.  Static state merging (SSM) is this algorithm
with a topological strategy; dynamic state merging (DSM, Algorithm 2)
wraps any driving strategy and fast-forwards states that are similar to a
recent predecessor of another worklist state.

The **satisfiable-pc invariant**: every path condition on the worklist —
hence every pc handed to the solver's sliced feasibility entries
(:meth:`~repro.solver.portfolio.SolverChain.check_branch`,
``check_sliced``) — is satisfiable.  The initial pc is the preconditions,
decided once, whole, before the state is seeded; a fork adds a condition
its query just proved SAT; a one-sided branch, bounds check or assert
keeps the SAT arm; ``merge_states`` builds ``prefix ∧ (s1 ∨ s2)`` from
two SAT pcs; partition seeds are snapshots of another engine's worklist;
an exact pc (Fig. 3) is extended only by a condition found SAT with it.
The solver relies on this to decide a branch from the slice of the pc
that shares variables with the condition and to skip the second arm's
query when the first is infeasible.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..analysis.liveness import live_at, live_in_sets
from ..env.argv import ArgvSpec
from ..expr import ops
from ..expr.nodes import Expr
from ..lang.cfg import (
    IAssert,
    IAssign,
    ICall,
    ILoad,
    IPutc,
    IStore,
    MemRef,
    Module,
    TBr,
    THalt,
    TJmp,
    TRet,
)
from ..lang.compile import compile_block
from ..lang.types import Array2DType, ArrayType
from ..qce.qce import QceAnalysis, QceParams, analyze_module
from ..solver.portfolio import IncrementalChain
from ..stats import CoverageTracker, Stats
from .merge import merge_states
from .similarity import (
    LiveVarSimilarity,
    MergeAlways,
    MergeNever,
    QceFullSimilarity,
    QceSimilarity,
)
from .solve_helper import SolveHelper
from .state import ArrayBinding, Frame, Region, SymState
from .testgen import PendingCase, TestSuite, fill_pending, make_test_case

if TYPE_CHECKING:
    from ..store.tier import StorePayload

ARGV_KEY = (0, "global", "$argv")


@dataclass
class EngineConfig:
    """Knobs for one symbolic execution run.

    merging: 'none' (plain), 'static' (merge at meets; use with the
        topological strategy for SSM), or 'dynamic' (DSM, Algorithm 2).
    similarity: 'qce' (paper Eq. 1) | 'qce-full' (Eq. 7 with ite costs) |
        'always' | 'never' | 'live' — the ~ relation.
    strategy: 'dfs' | 'bfs' | 'random' | 'coverage' | 'topological'.
    """

    merging: str = "none"
    similarity: str = "qce"
    strategy: str = "dfs"
    qce_params: QceParams = field(default_factory=QceParams)
    dsm_delta: int = 8
    max_steps: int | None = None
    time_budget: float | None = None
    track_exact_paths: bool = False
    generate_tests: bool = True
    keep_terminal_states: bool = False
    seed: int = 0
    solver_cache: bool = True
    solver_fastpath: bool = True
    preconditions: tuple[Expr, ...] = ()
    # Persistent cross-run store (repro.store).  ``store_path`` names the
    # SQLite file; the engine opens it as the single writer unless
    # ``store_readonly`` (parallel workers: lookups local, inserts shipped
    # to the coordinator).  Either way the in-memory query cache is seeded
    # from the store's corpus models and UNSAT cores at construction.
    store_path: str | None = None
    store_readonly: bool = False
    # Block-lowering tier (repro.lang.compile): compile the straight-line
    # prefix of hot blocks to Python closures.  Observation-equivalent by
    # construction (compiled code bails to the interpreter at the first
    # symbolic operand); the knob exists for ablation and debugging.
    lowering_enabled: bool = True
    # Blocks become compile candidates after this many executions.
    lowering_threshold: int = 8


class Engine:
    """Symbolic executor over a compiled module with a symbolic argv."""

    def __init__(
        self,
        module: Module,
        spec: ArgvSpec,
        config: EngineConfig | None = None,
        program: str | None = None,
    ):
        self.module = module
        self.spec = spec
        self.config = config or EngineConfig()
        self.program = program or "<module>"
        # One counter record: the chain counts into the engine's own.
        self.stats = Stats()
        self.solver = IncrementalChain(
            use_cache=self.config.solver_cache,
            use_fastpath=self.config.solver_fastpath,
            stats=self.stats,
        )
        self._init_store()
        self.coverage = CoverageTracker()
        self.coverage.register_module(module)
        self.tests = TestSuite(spec)
        # Whether explore() ships fresh test-generation solves to a forked
        # helper (repro.engine.solve_helper; on a host that cannot fork it
        # solves them in-process); fleet workers, which already own the
        # cores, turn it off.  The helper of the running explore().
        self.testgen_helper = True
        self._helper: SolveHelper | None = None
        self.worklist: list[SymState] = []
        # The merge-candidate index (merging runs only): loc_key -> merge
        # key -> {entry seq: resident}, the wild residents (merge key None)
        # filed under None.  Every inner dict is in insertion order.
        self._loc_index: dict[tuple, dict[object, dict[int, SymState]]] = {}
        # sid -> (loc_key, merge key, entry seq) a resident is indexed under.
        self._loc_of: dict[int, tuple] = {}
        self._index_seq = 0
        self._sid_counter = 0
        self._live_cache: dict[str, dict[str, frozenset[str]]] = {}
        self._live_at_cache: dict[tuple[str, str, int], frozenset[str]] = {}
        self._rpo_cache: dict[str, dict[str, int]] = {}
        # True when the last explore() exited via its interrupt hook.
        self.interrupted = False
        # (multiplicity, exact path count) per terminal state, when tracking.
        self.exact_path_samples: list[tuple[int, int]] = []
        # Terminal states, retained only when config.keep_terminal_states.
        self.terminal_states: list[SymState] = []
        # Lowering tier: (func, block) -> CompiledBlock, or None when the
        # block has no compilable prefix.  Candidates are picked by heat —
        # the strategy's pick counter when it keeps one, else a local count.
        self._compiled: dict[tuple[str, str], object] = {}
        self._block_heat: dict[tuple[str, str], int] = {}

        self.qce: QceAnalysis | None = None
        if self.config.similarity in ("qce", "qce-full"):
            self.qce = analyze_module(module, self.config.qce_params)
        self.similarity = self._make_similarity()

        from ..search.strategies import make_strategy  # local import: avoid cycle
        from ..search.dsm import DsmStrategy

        base = make_strategy(self.config.strategy, self.config.seed)
        if self.config.merging == "dynamic":
            self.strategy = DsmStrategy(base, self)
        else:
            self.strategy = base
        # Prioritized strategies (repro.sched) score states against this
        # engine's coverage/corpus/QCE context inside on_add.
        self.strategy.bind(self)

    # -- construction helpers ----------------------------------------------------

    def _init_store(self) -> None:
        """Attach the persistent store (repro.store), if configured.

        When a store is present the solver chain gains a persistent cache
        tier, and the in-memory query cache is seeded with the corpus'
        models and stored UNSAT cores — verdict-neutral evidence that lets
        this run answer queries without re-solving what earlier runs
        already solved.
        """
        self.store = None
        self._store_tier = None
        self._store_committed = False
        # Set when a commit degraded because the store stayed locked.
        self.store_warning: str | None = None
        # Blocks any stored corpus test has covered — the scheduler's
        # cross-run novelty signal (repro.sched.CorpusNoveltySignal).
        # Empty without a store, so the signal is neutral.
        self.corpus_covered: frozenset = frozenset()
        if not self.config.store_path:
            return
        from ..store import (  # local import: engine stays store-free otherwise
            PersistentTier,
            corpus_covered_blocks,
            open_store,
            seed_query_cache,
            spec_fingerprint,
        )

        self.store = open_store(self.config.store_path, readonly=self.config.store_readonly)
        self._store_tier = PersistentTier(
            self.store, program=self.program, spec=spec_fingerprint(self.spec)
        )
        self.solver.persistent = self._store_tier
        if self.store is None:
            return
        self.corpus_covered = corpus_covered_blocks(self.store, self.program)
        if self.config.solver_cache:
            models, cores = seed_query_cache(
                self.store, self.solver.cache, self.program, self.spec
            )
            self.stats.warm_models_seeded = models
            self.stats.warm_cores_seeded = cores

    @property
    def commits_to_store(self) -> bool:
        """True while :meth:`commit_to_store` has a writable store to
        commit to and has not committed yet."""
        return (
            self.store is not None
            and not self.store.readonly
            and self._store_tier is not None
            and not self._store_committed
        )

    def commit_to_store(
        self,
        stats: Stats | None = None,
        tests: TestSuite | None = None,
        payloads=(),
        in_transaction=None,
        coverage_of=None,
    ) -> int | None:
        """Single-writer commit of this run's artifacts; returns the run id.

        No-op unless this engine owns a writable store.  Writes the run
        metadata row, flushes the solver tier's buffered constraint
        inserts and UNSAT cores, and records the generated tests (with
        replayed coverage bitmaps) into the corpus.  Idempotent per run.

        A partitioned run commits through its split engine — the one
        that opened the store writable — and passes what differs: the
        merged ``stats`` / ``tests`` of the whole
        ledger (default: this engine's own), the read-only workers'
        exported ``payloads`` (applied after this engine's own buffer),
        and ``in_transaction(store)``, run inside the commit transaction
        after everything else — a finished campaign deletes its
        checkpoint rows atomically with its results becoming durable.
        ``coverage_of`` maps tests to the coverage replayed as they
        arrived (:class:`repro.store.ArrivalReplay`); the commit replays
        only the new rows it lacks.

        The commit is one store transaction, retried with bounded
        backoff when another process holds the SQLite write lock.  If
        the store stays locked past the retry budget the run degrades
        instead of failing: the results in memory are untouched,
        ``self.store_warning`` names what was lost (only the cross-run
        cache/corpus update), and the method returns None.
        """
        if not self.commits_to_store:
            return None
        import sqlite3

        from ..store import (
            apply_payload,
            is_locked_error,
            record_tests,
            retry_locked,
            spec_fingerprint,
        )

        self._store_committed = True
        stats = self.stats if stats is None else stats
        cases = (self.tests if tests is None else tests).cases
        cfg = self.config
        mode = f"{cfg.merging}/{cfg.similarity}/{cfg.strategy}"
        store = self.store
        # Drain the tier buffer once, outside the retried closure: a
        # rolled-back attempt must not lose it, a retry not re-drain it.
        payloads = [self._store_tier.export_pending(), *payloads]

        def commit() -> int:
            with store.transaction():
                run_id = store.record_run(
                    self.program,
                    spec_fingerprint(self.spec),
                    mode,
                    stats.snapshot(),
                )
                for payload in payloads:
                    if payload is not None:
                        apply_payload(store, payload, run_id=run_id)
                record_tests(
                    store, self.module, self.program, self.spec, cases, run_id,
                    coverage_of=coverage_of,
                )
                if in_transaction is not None:
                    in_transaction(store)
                return run_id

        try:
            run_id = retry_locked(commit)
        except sqlite3.OperationalError as exc:
            if not is_locked_error(exc):
                raise
            self.store_warning = (
                f"store commit skipped: {self.config.store_path!r} stayed "
                f"locked past the retry budget ({exc}); run results are "
                "complete, only the cross-run cache/corpus update was lost"
            )
            run_id = None
        self.close_store()
        return run_id

    def close_store(self) -> None:
        """Release the store connection, if open.

        After closing, the solver's persistent tier degrades to
        buffer-only (every lookup misses) rather than touching a dead
        connection.
        """
        if self.store is None:
            return
        self.store.close()
        self.store = None
        if self._store_tier is not None:
            self._store_tier.store = None
            self._store_tier.writable = False

    def export_store_payload(self, drain: bool = True) -> StorePayload | None:
        """This engine's buffered store inserts, for a remote single writer.

        The worker side of the parallel wire protocol: a read-only engine
        cannot commit, so its tier's pending constraint rows and cores are
        exported (and cleared) for the coordinator to apply.  ``drain=False``
        reads without clearing — the split checkpoint persists the buffer
        the split engine will still commit itself.
        """
        if self._store_tier is None:
            return None
        return self._store_tier.export_pending(drain)

    def _make_similarity(self):
        kind = self.config.similarity
        if kind == "never":
            return MergeNever()
        if kind == "always":
            return MergeAlways()
        if kind == "live":
            return LiveVarSimilarity(self._frame_live_sets)
        if kind == "qce":
            assert self.qce is not None
            return QceSimilarity(self.qce)
        if kind == "qce-full":
            assert self.qce is not None
            return QceFullSimilarity(self.qce)
        raise ValueError(f"unknown similarity {kind!r}")

    def _fresh_sid(self) -> int:
        self._sid_counter += 1
        return self._sid_counter

    def rpo_index(self, func: str) -> dict[str, int]:
        cached = self._rpo_cache.get(func)
        if cached is None:
            cached = self.module.function(func).rpo_index()
            self._rpo_cache[func] = cached
        return cached

    # -- liveness oracle ------------------------------------------------------------

    def _live_in(self, func: str) -> dict[str, frozenset[str]]:
        cached = self._live_cache.get(func)
        if cached is None:
            cached = live_in_sets(self.module.function(func))
            self._live_cache[func] = cached
        return cached

    def live_scalars_at(self, func: str, block: str, idx: int) -> frozenset[str]:
        if idx == 0:
            return self._live_in(func)[block]
        key = (func, block, idx)
        cached = self._live_at_cache.get(key)
        if cached is None:
            cached = live_at(self.module.function(func), block, idx, self._live_in(func))
            self._live_at_cache[key] = cached
        return cached

    def _frame_live_sets(self, state: SymState) -> list[frozenset[str]]:
        return [self.live_scalars_at(f.func, f.block, f.idx) for f in state.frames]

    # -- initial state ----------------------------------------------------------------

    def make_initial_state(self) -> SymState:
        state = SymState(self._fresh_sid())
        for name, (gtype, init) in self.module.globals.items():
            if isinstance(gtype, ArrayType):
                cells = _init_cells(gtype.size or 0, gtype.element.width, init)
                state.regions[(0, "global", name)] = Region(cells, None, gtype.element.width)
            elif isinstance(gtype, Array2DType):
                size = (gtype.rows or 0) * (gtype.cols or 0)
                cells = _init_cells(size, gtype.element.width, None)
                state.regions[(0, "global", name)] = Region(
                    cells, gtype.cols, gtype.element.width
                )
            else:
                state.globals_store[name] = ops.bv(int(init or 0), gtype.width)
        state.regions[ARGV_KEY] = Region(self.spec.build_cells(), self.spec.cols, 8)
        if self.spec.stdin_len:
            stdin_key = (0, "global", "g$__stdin")
            if stdin_key not in state.regions:
                raise ValueError("program compiled without the stdio prelude")
            state.regions[stdin_key] = Region(self.spec.stdin_cells(), None, 8)
            state.globals_store["g$__stdin_len"] = self.spec.stdin_length_expr()

        main = self.module.function("main")
        store: dict[str, Expr] = {}
        arrays: dict[str, ArrayBinding] = {}
        for pname, ptype in main.params:
            if isinstance(ptype, Array2DType):
                arrays[pname] = ArrayBinding(ARGV_KEY)
            elif isinstance(ptype, ArrayType):
                raise ValueError("main's array parameter must be 2-D (argv)")
            else:
                store[pname] = ops.bv(self.spec.argc, ptype.width)
        frame = Frame(main.name, main.entry, 0, store, arrays, None, depth=1)
        state.frames = [frame]
        self._alloc_local_arrays(state, main, depth=1)
        state.pc = tuple(self.config.preconditions) + tuple(
            self.spec.stdin_preconditions()
        )
        if self.config.preconditions and not self.solver.check(state.pc).is_sat:
            # Where the satisfiable-pc invariant starts: no later query sees
            # the whole pc, so contradictory preconditions are named here
            # and ``seed_states`` turns the state away.
            state.pc = (ops.FALSE,)
        if self.config.track_exact_paths:
            state.exact_pcs = (state.pc,)
        return state

    def _alloc_local_arrays(self, state: SymState, fn, depth: int) -> None:
        param_names = {p for p, _ in fn.params}
        inits = getattr(fn, "array_inits", {})
        for vname, vtype in fn.var_types.items():
            if vname in param_names:
                continue
            if isinstance(vtype, ArrayType):
                cells = _init_cells(vtype.size or 0, vtype.element.width, inits.get(vname))
                key = (depth, fn.name, vname)
                state.regions[key] = Region(cells, None, vtype.element.width)
                state.frames[-1].arrays[vname] = ArrayBinding(key)
            elif isinstance(vtype, Array2DType):
                size = (vtype.rows or 0) * (vtype.cols or 0)
                key = (depth, fn.name, vname)
                state.regions[key] = Region(
                    _init_cells(size, vtype.element.width, None), vtype.cols, vtype.element.width
                )
                state.frames[-1].arrays[vname] = ArrayBinding(key)

    # -- main loop ----------------------------------------------------------------------
    #
    # ``run()`` is the sequential entry point; it is exactly the 1-worker
    # special case of the partitioned code path: seed states, then
    # ``explore()`` until the frontier drains.  The parallel subsystem
    # (repro.parallel) drives the same loop with restored snapshot states
    # and an ``interrupt`` hook at partition boundaries.

    def run(self) -> Stats:
        """Explore until the worklist empties or a budget trips."""
        self.seed_states([self.make_initial_state()])
        stats = self.explore()
        self.commit_to_store()
        return stats

    def seed_snapshot(self, snapshot: bytes) -> None:
        """Seed a state another engine serialized (a partition root),
        restored under a state id of this engine's own."""
        self.seed_states([SymState.from_snapshot(snapshot, self._fresh_sid())])

    def seed_states(self, states: list[SymState]) -> None:
        """Add externally produced states (initial or restored partitions).

        Seeds never try to merge: partition roots are pairwise disjoint by
        construction, and the initial state has nothing to merge with.
        """
        # Partition boundary: strategies may reset per-partition state
        # (RandomStrategy reseeds its stream from the prefix here).
        self.strategy.on_seed(states)
        for state in states:
            if state.pc == (ops.FALSE,):
                self.stats.states_infeasible += 1
            elif state.halted:
                self._finalize(state)
            else:
                self._add_state(state, try_merge=False)

    def explore(self, interrupt=None) -> Stats:
        """Drive the worklist until it drains, a budget trips, or
        ``interrupt(engine)`` returns True (partition-boundary hook: the
        worklist is left intact, so exploration can resume or the frontier
        can be exported for work stealing).

        With ``testgen_helper`` on, fresh test-generation solves run in a
        helper process meanwhile (:mod:`repro.engine.solve_helper`); the
        call joins it before returning, so the tests, stats and CPU time
        it leaves are those of an in-process exploration."""
        start = time.perf_counter()
        cpu_start = time.process_time()
        self.interrupted = False
        first_test = len(self.tests.cases)
        helper = self._helper = SolveHelper() if self.testgen_helper else None
        try:
            while self.worklist:
                if self._budget_exhausted(start):
                    self.stats.timed_out = True
                    break
                if interrupt is not None and interrupt(self):
                    self.interrupted = True
                    break
                state = self._pick_next()
                successors = self.step(state)
                for succ in successors:
                    if succ.halted:
                        self._finalize(succ)
                    else:
                        self._add_state(succ, try_merge=self.config.merging != "none")
                self.strategy.settle()
            if helper is not None:
                # Every answer in, each waiting test in its slot, the
                # helper reaped and its CPU on this exploration's bill.
                self.stats.cpu_time += helper.join()
                self.stats.tests_generated -= fill_pending(self.tests.cases, first_test)
        except BaseException:
            if helper is not None:
                # An aborted exploration keeps the tests that were whole.
                helper.close()
                cases = self.tests.cases
                cases[first_test:] = [c for c in cases[first_test:] if type(c) is not PendingCase]
            raise
        finally:
            self._helper = None
        self.stats.wall_time += time.perf_counter() - start
        self.stats.cpu_time += time.process_time() - cpu_start
        return self.stats

    def export_frontier(self, max_states: int) -> list[SymState]:
        """Remove and return up to ``max_states`` worklist states.

        Victim choice is delegated to the strategy (``steal_pick``), which
        picks states it would explore *last* — for DFS the oldest entries,
        i.e. the largest pending subtrees.  The exported states, with the
        remaining worklist, still partition this engine's search space.
        """
        if max_states >= len(self.worklist):
            # Full drain: victim ordering is meaningless, skip the
            # per-state steal_pick (quadratic for ranking strategies).
            exported = list(self.worklist)
            for state in exported:
                self._index_remove(state)
                self.strategy.on_remove(state)
            self.worklist.clear()
            return exported
        exported = []
        while self.worklist and len(exported) < max_states:
            idx = self.strategy.steal_pick(self.worklist, self)
            state = self.worklist.pop(idx)
            self._index_remove(state)
            self.strategy.on_remove(state)
            exported.append(state)
        return exported

    def _budget_exhausted(self, start: float) -> bool:
        cfg = self.config
        if cfg.max_steps is not None and self.stats.blocks_executed >= cfg.max_steps:
            return True
        # time_budget is cumulative across explore() resumptions (the
        # already-banked wall_time plus this call's elapsed time), so an
        # interrupt/resume cycle cannot extend the budget.
        if cfg.time_budget is not None and (
            self.stats.wall_time + time.perf_counter() - start > cfg.time_budget
        ):
            return True
        return False

    # -- worklist ---------------------------------------------------------------------------

    def _pick_next(self) -> SymState:
        idx = self.strategy.pick(self.worklist, self)
        state = self.worklist.pop(idx)
        self._index_remove(state)
        self.strategy.on_remove(state)
        return state

    def _add_state(self, state: SymState, try_merge: bool) -> None:
        """Enter ``state`` into the worklist, or merge it into a resident.

        ``try_merge`` marks a successor that just moved (seeds and freshly
        merged states pass False).  In a merging run its location key,
        the relation's location context and its merge key are computed
        here, once per move: they feed the DSM history entry, the
        merge-candidate lookup and the index, and are kept for the removal.
        """
        if self.config.merging != "none":
            loc = state.loc_key()
            similarity = self.similarity
            context = similarity.location_context(state)
            if try_merge:
                self._record_history(state, loc, context)
            key = similarity.merge_key(state, context)
            if try_merge and self._try_merge(state, loc, key, context) is not None:
                return
            self._index_seq = seq = self._index_seq + 1
            self._loc_index.setdefault(loc, {}).setdefault(key, {})[seq] = state
            self._loc_of[state.sid] = (loc, key, seq)
        self.worklist.append(state)
        self.strategy.on_add(state)
        self.stats.max_worklist = max(self.stats.max_worklist, len(self.worklist))

    def _index_remove(self, state: SymState) -> None:
        entry = self._loc_of.pop(state.sid, None)
        if entry is None:
            return  # plain run: nothing is indexed
        loc, key, seq = entry
        bucket = self._loc_index[loc]
        filed = bucket[key]
        del filed[seq]
        if not filed:
            del bucket[key]
            if not bucket:
                del self._loc_index[loc]

    def _record_history(self, state: SymState, loc: tuple, context) -> None:
        """Append the state's current (location, hash) to its DSM trace.

        Called while the state is *off* the worklist (between its step and
        its re-add), so the strategy's hash index picks the new entry up at
        re-add time.
        """
        if self.config.merging != "dynamic":
            return
        entry = (loc, self.similarity.state_hash(state, context))
        history = state.history + (entry,)
        if len(history) > self.config.dsm_delta:
            history = history[-self.config.dsm_delta :]
        state.history = history

    def _merge_candidates(self, loc: tuple, key):
        """Residents at ``loc`` that may be ``~`` to a state with merge ``key``.

        By the ``merge_key`` law those are the residents filed under the
        same key plus the wild ones — everyone, for a wild newcomer —
        yielded oldest first, which is the order a scan of the whole
        bucket would meet them in.
        """
        bucket = self._loc_index.get(loc)
        if not bucket:
            return ()
        if key is None:
            filed = list(bucket.values())
        else:
            filed = [f for f in (bucket.get(key), bucket.get(None)) if f]
        if len(filed) == 1:
            return list(filed[0].values())
        return [state for _, state in heapq.merge(*[f.items() for f in filed])]

    def _try_merge(self, new_state: SymState, loc: tuple, key, context) -> SymState | None:
        """Algorithm 1 lines 17–22: merge into a matching worklist state."""
        similarity = self.similarity
        for candidate in self._merge_candidates(loc, key):
            if not similarity.mergeable(new_state, candidate, context):
                continue
            merged = merge_states(
                new_state, candidate, self._fresh_sid(), live_scalars=self._merge_live_oracle
            )
            if merged is None:
                continue
            # Replace the candidate with the merged state in place.
            self.worklist.remove(candidate)
            self._index_remove(candidate)
            self.strategy.on_remove(candidate)
            self.stats.merges += 1
            ff_sids = getattr(self.strategy, "ff_sids", None)
            if ff_sids is not None and (new_state.sid in ff_sids or candidate.sid in ff_sids):
                self.stats.dsm_ff_merges += 1
            self.stats.max_multiplicity = max(self.stats.max_multiplicity, merged.multiplicity)
            self._add_state(merged, try_merge=False)
            return merged
        return None

    def _merge_live_oracle(self, frame_index: int, state: SymState) -> frozenset[str]:
        frame = state.frames[frame_index]
        return self.live_scalars_at(frame.func, frame.block, frame.idx)

    # -- single step --------------------------------------------------------------------------

    def step(self, state: SymState) -> list[SymState]:
        """Execute until the end of the current block / call / halt."""
        frame = state.top
        fn = self.module.function(frame.func)
        block = fn.blocks[frame.block]
        self.coverage.touch(frame.func, frame.block)
        self.stats.blocks_executed += 1
        state.steps += 1

        instrs = block.instrs
        if self.config.lowering_enabled and frame.idx == 0 and instrs:
            compiled = self._lookup_compiled(frame.func, frame.block, block)
            if compiled is not None:
                ran = compiled.run(state)
                if ran:
                    frame.idx = ran
                    self.stats.instructions_executed += ran
                    self.stats.compiled_steps += ran
                if ran < compiled.prefix_len:
                    self.stats.compiled_bailouts += 1
        while frame.idx < len(instrs):
            instr = instrs[frame.idx]
            self.stats.instructions_executed += 1
            frame.idx += 1
            if isinstance(instr, IAssign):
                state.assign(instr.dst, state.eval_expr(instr.expr))
            elif isinstance(instr, ILoad):
                if not self._exec_load(state, instr):
                    return []
            elif isinstance(instr, IStore):
                if not self._exec_store(state, instr):
                    return []
            elif isinstance(instr, IPutc):
                state.output = state.output + (state.eval_expr(instr.value),)
            elif isinstance(instr, IAssert):
                if not self._exec_assert(state, instr):
                    return []
            elif isinstance(instr, ICall):
                self._exec_call(state, instr)
                return [state]
            else:
                raise RuntimeError(f"unknown instruction {instr!r}")

        term = block.term
        if isinstance(term, TJmp):
            frame.block = term.label
            frame.idx = 0
            return [state]
        if isinstance(term, TBr):
            return self._exec_branch(state, term)
        if isinstance(term, TRet):
            return self._exec_ret(state, term)
        if isinstance(term, THalt):
            code = state.eval_expr(term.code) if term.code is not None else ops.bv(0, 32)
            return [self._halt(state, code)]
        raise RuntimeError(f"block {frame.block} in {frame.func} lacks a terminator")

    def _lookup_compiled(self, func: str, label: str, block):
        """Compiled prefix for a hot block, or None (cold / uncompilable)."""
        key = (func, label)
        compiled = self._compiled.get(key)
        if compiled is None and key not in self._compiled:
            pick_counts = getattr(self.strategy, "pick_counts", None)
            if pick_counts is not None:
                heat = pick_counts.get(key, 0)
            else:
                heat = self._block_heat.get(key, 0) + 1
                self._block_heat[key] = heat
            if heat < self.config.lowering_threshold:
                return None
            compiled = compile_block(block)
            self._compiled[key] = compiled
            if compiled is not None:
                self.stats.blocks_compiled += 1
        return compiled

    # -- instruction semantics -------------------------------------------------------------------

    def _resolve_memref(self, state: SymState, ref: MemRef) -> tuple[ArrayBinding, Expr | None]:
        binding = state.resolve_binding(ref.array)
        row = state.eval_expr(ref.row) if ref.row is not None else None
        return binding, row

    def _check_bounds(self, state: SymState, binding: ArrayBinding, flat: Expr, line: int) -> bool:
        """Ensure the access is in bounds; report a 'bounds' error otherwise.

        Returns False when the state cannot continue (always out of bounds).
        """
        region = state.region_of(binding)
        in_bounds = ops.ult(flat, ops.bv(region.size, flat.width))
        if in_bounds.is_true():
            return True
        if in_bounds.is_false():
            self._report_error(state, "bounds", line)
            return False
        out_of_bounds = ops.not_(in_bounds)
        oob, ok = self.solver.check_branch(state.pc, out_of_bounds)
        if oob.is_sat:
            self._report_error(
                state, "bounds", line, error_pc=list(state.pc) + [out_of_bounds]
            )
            if not ok.is_sat:
                return False
            state.add_constraint(in_bounds)
            self._split_exact_pcs(state, in_bounds)
        return True

    def _exec_load(self, state: SymState, instr: ILoad) -> bool:
        binding, row = self._resolve_memref(state, instr.ref)
        index = state.eval_expr(instr.index)
        flat = state.flat_index(binding, row, index)
        if flat.is_const():
            region = state.region_of(binding)
            if not (0 <= flat.value < region.size):
                self._report_error(state, "bounds", instr.line)
                return False
            state.assign(instr.dst, region.cells[flat.value])
            return True
        if not self._check_bounds(state, binding, flat, instr.line):
            return False
        state.assign(instr.dst, state.read_cells(binding, flat))
        return True

    def _exec_store(self, state: SymState, instr: IStore) -> bool:
        binding, row = self._resolve_memref(state, instr.ref)
        index = state.eval_expr(instr.index)
        value = state.eval_expr(instr.value)
        flat = state.flat_index(binding, row, index)
        if flat.is_const():
            region = state.region_of(binding)
            if not (0 <= flat.value < region.size):
                self._report_error(state, "bounds", instr.line)
                return False
            state.regions[binding.key] = region.with_cell(flat.value, value)
            return True
        if not self._check_bounds(state, binding, flat, instr.line):
            return False
        state.write_cells(binding, flat, value)
        return True

    def _exec_assert(self, state: SymState, instr: IAssert) -> bool:
        cond = state.eval_expr(instr.cond)
        if cond.is_true():
            return True
        if cond.is_false():
            self._report_error(state, "assert", instr.line)
            return False
        failing = ops.not_(cond)
        violated, holds = self.solver.check_branch(state.pc, failing)
        if violated.is_sat:
            self._report_error(
                state, "assert", instr.line, error_pc=list(state.pc) + [failing]
            )
            if not holds.is_sat:
                return False
            state.add_constraint(cond)
            self._split_exact_pcs(state, cond)
        return True

    def _exec_call(self, state: SymState, instr: ICall) -> None:
        callee = self.module.function(instr.func)
        store: dict[str, Expr] = {}
        arrays: dict[str, ArrayBinding] = {}
        for (pname, ptype), arg in zip(callee.params, instr.args):
            if isinstance(arg, MemRef):
                binding, row = self._resolve_memref(state, arg)
                if row is not None:
                    if binding.row is not None:
                        raise RuntimeError("row view of a row view is not supported")
                    binding = ArrayBinding(binding.key, row)
                arrays[pname] = binding
            else:
                store[pname] = state.eval_expr(arg)
        depth = len(state.frames) + 1
        frame = Frame(callee.name, callee.entry, 0, store, arrays, instr.dst, depth)
        state.frames.append(frame)
        self._alloc_local_arrays(state, callee, depth)

    def _exec_ret(self, state: SymState, term: TRet) -> list[SymState]:
        value = state.eval_expr(term.value) if term.value is not None else None
        frame = state.frames.pop()
        state.gc_frame_regions(frame.depth, frame.func)
        if not state.frames:
            return [self._halt(state, value if value is not None else ops.bv(0, 32))]
        if frame.ret_dst is not None and value is not None:
            state.assign(frame.ret_dst, value)
        return [state]

    def _exec_branch(self, state: SymState, term: TBr) -> list[SymState]:
        cond = state.eval_expr(term.cond)
        frame = state.top
        if cond.is_true() or cond.is_false():
            frame.block = term.then_label if cond.is_true() else term.else_label
            frame.idx = 0
            return [state]
        neg = ops.not_(cond)
        # One batch query decides both arms on the slice of the pc that
        # shares variables with ``cond``; an infeasible arm makes the other
        # feasible without a solve (the pc is satisfiable).
        then_res, else_res = self.solver.check_branch(state.pc, cond)
        self.stats.branch_queries += 1
        successors: list[SymState] = []
        if then_res.is_sat and else_res.is_sat:
            self.stats.forks += 1
            other = state.clone(self._fresh_sid())
            self.stats.states_created += 1
            for target_state, branch_cond, label in (
                (state, cond, term.then_label),
                (other, neg, term.else_label),
            ):
                target_state.top.block = label
                target_state.top.idx = 0
                target_state.add_constraint(branch_cond)
                self._split_exact_pcs(target_state, branch_cond)
                successors.append(target_state)
        elif then_res.is_sat or else_res.is_sat:
            branch_cond = cond if then_res.is_sat else neg
            frame.block = term.then_label if then_res.is_sat else term.else_label
            frame.idx = 0
            state.add_constraint(branch_cond)
            self._split_exact_pcs(state, branch_cond)
            successors.append(state)
        else:
            self.stats.states_infeasible += 1
        return successors

    def _split_exact_pcs(self, state: SymState, cond: Expr) -> None:
        """Fig. 3 instrumentation: filter constituent single-path pcs."""
        if state.exact_pcs is None:
            return
        kept = []
        for pc in state.exact_pcs:
            if self.solver.check_sliced(pc, cond).is_sat:
                kept.append(pc + (cond,))
        state.exact_pcs = tuple(kept)

    # -- terminal states ------------------------------------------------------------------------

    def _halt(self, state: SymState, code: Expr) -> SymState:
        state.halted = True
        state.exit_code = code
        return state

    def _finalize(self, state: SymState) -> None:
        if self.config.keep_terminal_states:
            self.terminal_states.append(state)
        self.stats.states_terminated += 1
        self.stats.paths_completed += state.multiplicity
        if state.exact_pcs is not None:
            self.stats.exact_paths += len(state.exact_pcs)
            self.exact_path_samples.append((state.multiplicity, len(state.exact_pcs)))
        self.stats.max_multiplicity = max(self.stats.max_multiplicity, state.multiplicity)
        if self.config.generate_tests:
            case = make_test_case(
                self.solver,
                self.spec,
                state.pc,
                "path",
                multiplicity=state.multiplicity,
                stats_sink=self.stats,
                helper=self._helper,
            )
            if case is not None:
                self.tests.add(case)
                self.stats.tests_generated += 1

    def _report_error(self, state: SymState, kind: str, line: int, error_pc=None) -> None:
        """Record an error; ``error_pc`` is the constraint set an erroneous
        input must satisfy (defaults to the state's pc for errors that are
        unconditional on this path).  The witness is a model of all of it:
        the feasibility query that found the error saw only a slice."""
        self.stats.errors_found += 1
        if not self.config.generate_tests:
            return
        case = make_test_case(
            self.solver,
            self.spec,
            error_pc if error_pc is not None else state.pc,
            kind,
            line=line,
            stats_sink=self.stats,
            helper=self._helper,
        )
        if case is not None:
            self.tests.add(case)


def _init_cells(size: int, width: int, init) -> tuple[Expr, ...]:
    cells = [ops.bv(0, width)] * size
    if init is not None:
        values = list(init)
        for i, v in enumerate(values[:size]):
            cells[i] = ops.bv(int(v), width)
    return tuple(cells)

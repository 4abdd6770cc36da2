"""The coordinator: partition, dispatch, merge, rebalance, recover.

The run has three phases:

1. **Split** — the coordinator explores sequentially (same engine, same
   code path as any run) until the frontier holds enough states, then
   exports the whole worklist as path-prefix partitions.  If exploration
   finishes before the frontier ever reaches the target, the program was
   small enough that the sequential answer *is* the answer — workers are
   never spawned, and sequential mode is literally the degenerate case of
   this code path.
2. **Dispatch** — partitions go to workers through a
   :class:`~repro.sched.PartitionScheduler` priority queue and a
   *transport* (:mod:`repro.remote.transport`): the fork-based
   multiprocessing-queue pool, the length-prefixed TCP socket backend
   (workers on other hosts), or the inline backend for deterministic
   testing.  The event loop keeps at most one task in flight per worker,
   so every hand-out is the best-scored pending partition (corpus
   novelty, QCE load, prefix depth — see :mod:`repro.sched`).  When
   everything is dispatched while some workers are still busy, the
   coordinator sends steal requests — victim choice routes through the
   same scheduler — and re-queues whatever frontier the busy workers
   export.  The split fan-out itself adapts: with a persistent store,
   ``partition_factor=None`` scales the target frontier by the worker
   imbalance previous runs recorded.
3. **Merge** — per-partition results stream in (tests, coverage, path
   counts, cumulative stats snapshots); the coordinator folds everything
   into one ledger whose additive fields are exactly the sums of the
   per-participant entries (:meth:`EngineStats.merge` /
   :meth:`SolverStats.merge`).

**Fault tolerance (lease layer).**  On lease-tracking transports (the
socket backend), every dispatched partition is a *lease*: the owning
worker id plus a liveness deadline maintained from its heartbeats.  When
a worker dies — SIGKILL, dropped connection, missed heartbeats — the
coordinator *fences* it (closes its channel; every later message from it
is discarded) and requeues the leased partition through the scheduler.
Because results only ever merge at partition completion, and because a
worker's ledger contribution is the sum of per-accepted-partition stats
*deltas* (differences of consecutive cumulative snapshots), a revoked
partition's partial results are discarded, never double-counted — the
disjointness and ledger invariants survive worker death, and a recovered
plain-mode run emits the identical test multiset as an undisturbed one.
Steal replies checkpoint the victim's retained frontier plus interim
results, so even a partially-stolen-from partition recovers exactly.

The queue (fork) backend has no lease layer: a worker death there is
detected promptly — including the silent exitcode-0 case that used to
hang the drain loop — and surfaced as a named :class:`WorkerCrashError`.
"""

from __future__ import annotations

import copy
import dataclasses
import time
from dataclasses import dataclass, field

from ..engine.executor import Engine, EngineConfig
from ..engine.stats import EngineStats
from ..engine.testgen import TestSuite
from ..env.argv import ArgvSpec
from ..programs.registry import get_program
from ..qce.qce import analyze_module
from ..sched import PartitionScheduler, adaptive_partition_factor
from ..solver.portfolio import SolverStats
from .partition import Partition
from .wire import (
    CMD_STEAL,
    MSG_DONE,
    MSG_ERROR,
    MSG_START,
    MSG_STATS,
    MSG_STOLEN,
    TASK_PARTITION,
    TASK_STOP,
    encode_config,
)
from .worker import run_partition


class ConfigError(ValueError):
    """A :class:`ParallelConfig` (or campaign setup) that cannot work.

    Raised at construction time — a misconfigured fault-tolerance knob
    (a lease deadline shorter than the heartbeat period, a zero
    checkpoint cadence) must fail before any worker is spawned, not
    misbehave mid-campaign.  Subclasses :class:`ValueError` so existing
    callers catching that keep working.
    """


class WorkerCrashError(RuntimeError):
    """A worker died (or the fleet did) in a way the run cannot absorb.

    Raised when the queue backend loses a worker (no lease layer there)
    or when every worker of a socket campaign is gone.  A single
    partition that keeps killing its owners no longer raises: it is
    dropped after ``max_partition_requeues`` with a named entry in
    ``ParallelResult.requeues`` and the campaign completes for the
    survivors.
    """


@dataclass(frozen=True)
class ParallelConfig:
    """Knobs for one parallel exploration."""

    workers: int = 2
    # Split until the frontier holds workers * partition_factor states
    # (more partitions than workers smooths the initial imbalance).
    # None = adaptive: the factor is derived from the worker imbalance
    # recorded by previous runs in the persistent store (base 4 without
    # one) — see repro.sched.adaptive_partition_factor.
    partition_factor: int | None = None
    # Dispatch policy: 'corpus' ranks pending partitions by corpus
    # novelty / QCE load / prefix depth (repro.sched.PartitionScheduler);
    # 'fifo' preserves split order (the ablation baseline).
    dispatch: str = "corpus"
    # Give up splitting after this many blocks even if the frontier is
    # small — skinny trees fork rarely and may never reach the target.
    split_max_steps: int = 512
    # 'process' forks workers over multiprocessing queues; 'socket' runs
    # the length-prefixed TCP transport (workers may live on other
    # hosts) with the lease-based fault-tolerance layer; 'inline' runs
    # the same protocol round-robin in this process (deterministic, for
    # tests and for environments without fork).
    backend: str = "process"
    steal: bool = True
    poll_timeout: float = 0.5
    join_timeout: float = 10.0
    # -- socket transport --------------------------------------------------
    # Bind address for the coordinator's listener.  Port 0 = ephemeral.
    socket_host: str = "127.0.0.1"
    socket_port: int = 0
    # True: fork local processes that connect over loopback (tests, CI,
    # single-host speedups).  False: only listen — workers join with
    # `python -m repro.remote worker --connect host:port` from anywhere.
    spawn_workers: bool = True
    accept_timeout: float = 30.0
    # Worker-side beacon period and the coordinator-side lease deadline:
    # a worker silent for longer than heartbeat_timeout is declared dead
    # and its partition requeued.  The timeout must dominate the
    # interval by a healthy factor (GC pauses, loaded hosts).
    heartbeat_interval: float = 0.5
    heartbeat_timeout: float = 5.0
    # A partition whose lease is revoked more than this many times is
    # presumed poison (it kills every owner) and is dropped with a named
    # entry in ParallelResult.requeues instead of cycling forever — the
    # campaign completes with a clean ledger for the survivors.
    max_partition_requeues: int = 3
    # -- durable campaigns -------------------------------------------------
    # Campaign identity for checkpoint/resume (repro.campaign).  When
    # set — the engine config must name a writable store — the
    # coordinator persists a campaign record at the end of the split
    # phase, at every lease requeue and steal checkpoint, at drain, and
    # after accepted completions per checkpoint_every; `python -m
    # repro.remote campaign --resume <id>` continues from the newest
    # epoch after a coordinator crash.
    campaign_id: str | None = None
    # Checkpoint after every Nth accepted partition completion (requeue,
    # steal and drain checkpoints always fire).  Higher = less write
    # overhead, more re-exploration after a crash — never wrong results.
    checkpoint_every: int = 1
    # Epochs retained per campaign (older ones are GC'd, their
    # unreferenced snapshot blobs swept).
    checkpoint_keep: int = 2

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.dispatch not in ("corpus", "fifo"):
            raise ConfigError(f"unknown dispatch policy {self.dispatch!r}")
        if self.backend not in ("inline", "process", "socket"):
            raise ConfigError(f"unknown backend {self.backend!r}")
        if self.partition_factor is not None and self.partition_factor < 1:
            raise ConfigError("partition_factor must be >= 1 (or None = adaptive)")
        if self.split_max_steps < 1:
            raise ConfigError("split_max_steps must be >= 1")
        if self.poll_timeout <= 0 or self.join_timeout <= 0:
            raise ConfigError("poll_timeout and join_timeout must be > 0")
        if self.heartbeat_interval <= 0:
            raise ConfigError("heartbeat_interval must be > 0")
        if self.heartbeat_timeout < 2 * self.heartbeat_interval:
            raise ConfigError(
                f"heartbeat_timeout ({self.heartbeat_timeout}) must be at "
                f"least twice heartbeat_interval ({self.heartbeat_interval}): "
                "the lease deadline has to absorb scheduling jitter or live "
                "workers get fenced"
            )
        if self.max_partition_requeues < 0:
            raise ConfigError("max_partition_requeues must be >= 0")
        if self.checkpoint_every < 1:
            raise ConfigError("checkpoint_every must be >= 1")
        if self.checkpoint_keep < 1:
            raise ConfigError("checkpoint_keep must be >= 1")
        if self.campaign_id is not None and self.backend != "socket":
            raise ConfigError(
                "campaign checkpointing requires backend='socket': "
                "checkpoint records are built from the lease layer's "
                "accepted per-partition stats deltas, which only the "
                "socket transport tracks"
            )


# One ledger participant: (name, engine stats, solver stats).
LedgerEntry = tuple[str, EngineStats, SolverStats]


@dataclass
class ParallelResult:
    """Merged outcome of a partitioned exploration.

    ``ledger`` lists every participant (the coordinator's split-phase
    engine plus each worker); ``stats``/``solver_stats`` are their merge.
    ``wall_time`` is end-to-end elapsed time — ``stats.wall_time`` is the
    *summed* per-participant time (aggregate CPU seconds), which is the
    quantity that stays comparable to a sequential run's cost.
    """

    program: str
    spec: ArgvSpec
    config: EngineConfig
    parallel: ParallelConfig
    stats: EngineStats
    solver_stats: SolverStats
    tests: TestSuite
    covered: set
    ledger: list[LedgerEntry]
    partitions: int
    steals: int
    wall_time: float
    # Sum of the per-partition path deltas streamed in MSG_DONE messages;
    # cross-checked against the final stats ledger in check_ledger().
    streamed_paths: int = 0
    # Scheduling telemetry: the split fan-out actually used (relevant when
    # ParallelConfig.partition_factor is None/adaptive), the observed
    # worker imbalance (max/mean of per-worker completed paths; 1.0 =
    # perfectly level — also mirrored into stats.sched_imbalance and the
    # store's run row, where the next adaptive split reads it), and the
    # per-partition completion log [(pid, origin, paths, new_coverage)]
    # in completion order — what the `sched` ablation figure replays.
    partition_factor: int = 0
    imbalance: float = 1.0
    partition_results: list = field(default_factory=list)
    # Fault-tolerance telemetry: the requeue event log — one named dict
    # per lease revocation ({"kind": "requeue", "pid", "source_pid",
    # "worker", "origin"}) and per poison-partition drop ({"kind":
    # "dropped", "pid", "origin", "worker", "revocations", "reason"}) —
    # plus workers fenced after dying mid-campaign.  Both empty/0 on an
    # undisturbed run.
    requeues: list = field(default_factory=list)
    workers_lost: int = 0
    # -- durable campaigns -------------------------------------------------
    # Campaign identity, the newest checkpoint epoch written by this run
    # (0 = checkpointing off), the epoch a resume continued from (None =
    # fresh run), and how many completed partitions the resume restored
    # from the record instead of re-exploring.
    campaign_id: str | None = None
    checkpoint_epoch: int = 0
    resumed_epoch: int | None = None
    restored_partitions: int = 0
    # Set when the end-of-run store commit had to be skipped (store
    # locked/unavailable after bounded retries): results are complete
    # and returned, only the cross-run cache/corpus update was lost.
    store_warning: str | None = None

    @property
    def requeue_count(self) -> int:
        return sum(1 for entry in self.requeues if entry.get("kind") == "requeue")

    @property
    def dropped_partitions(self) -> list:
        return [entry for entry in self.requeues if entry.get("kind") == "dropped"]

    @property
    def paths(self) -> int:
        return self.stats.paths_completed

    @property
    def coverage_blocks(self) -> int:
        return len(self.covered)

    @property
    def workers(self) -> int:
        return self.parallel.workers

    def check_ledger(self) -> None:
        """Assert the stats-merge ledger invariants.

        Every additive field of the merged stats must equal the sum over
        participants — spot-checked here on the load-bearing counters —
        and the solver's own accounting identity must survive the merge.
        """
        for fname in ("queries", "sat_answers", "unsat_answers", "timeouts",
                      "cost_units", "sat_solver_runs", "clauses_forgotten"):
            total = sum(getattr(entry[2], fname) for entry in self.ledger)
            merged = getattr(self.solver_stats, fname)
            if merged != total:
                raise AssertionError(
                    f"ledger violation: merged {fname}={merged} != sum {total}"
                )
        s = self.solver_stats
        if s.queries != s.sat_answers + s.unsat_answers + s.timeouts:
            raise AssertionError("ledger violation: queries != sat + unsat + timeouts")
        for fname in ("paths_completed", "tests_generated", "errors_found",
                      "blocks_executed", "forks", "states_terminated",
                      "testgen_queries", "testgen_cost_units",
                      "testgen_group_solves", "testgen_group_hits",
                      "testgen_corpus_hits"):
            total = sum(getattr(entry[1], fname) for entry in self.ledger)
            merged = getattr(self.stats, fname)
            if merged != total:
                raise AssertionError(
                    f"ledger violation: merged {fname}={merged} != sum {total}"
                )
        path_tests = sum(1 for c in self.tests.cases if c.kind == "path")
        if self.stats.tests_generated != path_tests:
            raise AssertionError(
                f"ledger violation: tests_generated={self.stats.tests_generated} "
                f"!= streamed path tests {path_tests}"
            )
        # Streamed per-partition results must agree with the final stats:
        # every path beyond the coordinator's split phase was reported in
        # exactly one accepted MSG_DONE (or one accepted steal-checkpoint
        # interim result) — revoked partitions contribute nothing.
        split_paths = self.ledger[0][1].paths_completed
        if self.stats.paths_completed != split_paths + self.streamed_paths:
            raise AssertionError(
                f"ledger violation: paths_completed={self.stats.paths_completed} "
                f"!= split {split_paths} + streamed {self.streamed_paths}"
            )


def _engine_stats_delta(cur: EngineStats, prev: EngineStats | None) -> EngineStats:
    """Additive difference of two cumulative snapshots (max/or fields keep
    the cumulative value — merged maxima only ever read upper bounds)."""
    if prev is None:
        return cur
    out = copy.deepcopy(cur)
    for name in cur.__dataclass_fields__:
        if name in EngineStats._MAX_FIELDS or name in EngineStats._OR_FIELDS:
            continue
        setattr(out, name, getattr(cur, name) - getattr(prev, name))
    return out


def _solver_stats_delta(cur: SolverStats, prev: SolverStats | None) -> SolverStats:
    if prev is None:
        return cur
    out = copy.deepcopy(cur)
    for name in cur.__dataclass_fields__:
        setattr(out, name, getattr(cur, name) - getattr(prev, name))
    return out


class Coordinator:
    """Drives one partitioned exploration of one program."""

    def __init__(
        self,
        program: str,
        spec: ArgvSpec,
        config: EngineConfig,
        parallel: ParallelConfig | None = None,
        resume=None,
    ):
        self.program = program
        self.spec = spec
        self.config = config
        self.parallel = parallel or ParallelConfig()
        self.partitions_dispatched = 0
        self.steals = 0
        self.requeues = 0
        self.workers_lost = 0
        # Named requeue/drop events, in order (ParallelResult.requeues).
        self.requeue_log: list[dict] = []
        self._next_pid = 0
        # Built in run(): the partition scheduler and the effective split
        # factor (resolved from the store when the config says adaptive).
        self._sched: PartitionScheduler | None = None
        self._factor = 0
        # Chaos hook for the fault-injection harness: called as
        # fault_injector(event, wid, transport, pid) after every
        # processed "start"/"done" event (pid = the partition involved),
        # after the split checkpoint ("split") and at drain entry
        # ("drain"); may transport.kill(wid)/disconnect(wid) or raise.
        self.fault_injector = None
        # -- durable campaigns -------------------------------------------
        # resume: a repro.campaign.CampaignRecord to continue from.
        self._resume = resume
        self._ckpt = None  # CampaignCheckpointer when campaign_id active
        # Frozen split-phase contribution (entry, tests, covered, store
        # payload) — checkpoint records and _assemble read one snapshot.
        self._split_ctx = None
        # Prior-generation worker ledger entries restored by a resume.
        self._prior_entries: list[LedgerEntry] = []
        self._resumed_epoch: int | None = None
        self._restored_partitions = 0
        self._store_warning: str | None = None
        if self.parallel.campaign_id is not None:
            if not self.config.store_path:
                raise ConfigError(
                    "campaign_id requires config.store_path — checkpoints "
                    "are stored blobs"
                )
            if self.config.store_readonly:
                raise ConfigError(
                    "campaign checkpointing requires a writable store"
                )

    # -- public entry -----------------------------------------------------------

    def run(self) -> ParallelResult:
        if self._resume is not None:
            return self._run_resume()
        start = time.perf_counter()
        module = get_program(self.program).compile()
        split_engine = Engine(module, self.spec, self.config, program=self.program)
        split_engine.seed_states([split_engine.make_initial_state()])

        par = self.parallel
        self._factor = (
            par.partition_factor
            if par.partition_factor is not None
            else adaptive_partition_factor(split_engine.store, self.program)
        )
        if par.workers == 1:
            # Sequential mode: the same loop, no split interrupt, no pool.
            split_engine.explore()
            return self._assemble(split_engine, [], [], set(), start)

        target = par.workers * self._factor
        split_engine.explore(
            interrupt=lambda eng: len(eng.worklist) >= target
            or eng.stats.blocks_executed >= par.split_max_steps
        )
        frontier = split_engine.export_frontier(len(split_engine.worklist))
        partitions = [self._new_partition(s, "split") for s in frontier]
        if not partitions:
            return self._assemble(split_engine, [], [], set(), start)

        # One scheduler scores every dispatch decision of this run: split
        # partitions, stolen/requeued partitions, and steal-victim
        # choice.  Its signals come from the same sources the search
        # strategies use — the store's corpus-coverage index and the QCE
        # Qt export.  The Qt supplier is lazy: only victim selection
        # reads the load signal, so runs that never steal never run the
        # QCE analysis.
        self._sched = PartitionScheduler(
            split_engine.corpus_covered,
            qt_table=lambda: (
                split_engine.qce or analyze_module(module, self.config.qce_params)
            ).qt_table(),
            policy=par.dispatch,
        )

        # Freeze the split-phase contribution and write the campaign's
        # first epoch: a coordinator killed between here and the first
        # completion resumes with the whole frontier pending and nothing
        # re-split.
        self._split_ctx = self._capture_split(split_engine)
        self._ckpt = self._make_checkpointer(split_engine)
        self._save_checkpoint(
            "split",
            [(p.pid, p.snapshot, p.origin, p.sched_meta()) for p in partitions],
            [], set(), 0, [], {}, [],
        )
        self._fault_event("split", -1, None)

        if par.backend == "inline":
            entries, tests, covered, streamed, payloads, part_results = (
                self._run_inline(module, partitions)
            )
        else:
            transport = self._make_transport()
            transport.start()
            try:
                entries, tests, covered, streamed, payloads, part_results = (
                    self._run_transport(partitions, transport)
                )
            finally:
                transport.close()
        return self._assemble(
            split_engine, entries, tests, covered, start, streamed, payloads,
            part_results,
        )

    # -- helpers -----------------------------------------------------------------

    def _alloc_pid(self) -> int:
        pid = self._next_pid
        self._next_pid += 1
        self.partitions_dispatched += 1
        return pid

    def _new_partition(self, state, origin: str) -> Partition:
        return Partition.from_state(self._alloc_pid(), state, origin)

    def _new_partition_from_blob(
        self, blob: bytes, origin: str, meta: dict | None = None
    ) -> Partition:
        return Partition.from_blob(self._alloc_pid(), blob, origin, meta)

    def _spec_payload(self) -> dict:
        """The input spec as a picklable dict (wire + campaign records)."""
        return {
            "n_args": self.spec.n_args,
            "arg_len": self.spec.arg_len,
            "prog_name": self.spec.prog_name,
            "concrete_args": self.spec.concrete_args,
            "stdin_len": self.spec.stdin_len,
        }

    def _make_transport(self):
        """Resolve ParallelConfig.backend to a transport instance."""
        from ..remote.transport import QueueTransport, SocketTransport

        par = self.parallel
        spec_payload = self._spec_payload()
        config = self.config
        if par.backend == "socket" and not par.spawn_workers and config.store_path:
            # External workers cannot reach the coordinator's store file;
            # strip the path so they run storeless instead of creating an
            # empty store at a bogus path.  (Loopback workers keep it and
            # open read-only, as fork workers always did.)
            config = dataclasses.replace(config, store_path=None)
        config_payload = encode_config(config)
        if par.backend == "process":
            return QueueTransport(
                par.workers, self.program, spec_payload, config_payload,
                join_timeout=par.join_timeout,
            )
        return SocketTransport(
            par.workers, self.program, spec_payload, config_payload,
            host=par.socket_host, port=par.socket_port,
            spawn_workers=par.spawn_workers,
            heartbeat_interval=par.heartbeat_interval,
            heartbeat_timeout=par.heartbeat_timeout,
            accept_timeout=par.accept_timeout,
            join_timeout=par.join_timeout,
        )

    def _fault_event(self, event: str, wid: int, transport, pid: int | None = None) -> None:
        if self.fault_injector is not None:
            self.fault_injector(event, wid, transport, pid)

    # -- durable campaigns (checkpoint/resume) -------------------------------------

    def _capture_split(self, split_engine: Engine) -> tuple:
        """Freeze the split phase's ledger entry, tests, coverage, and
        buffered store inserts.  Nothing mutates the split engine after
        the split, so this one snapshot serves every later checkpoint
        record *and* the final assembly — they can never disagree."""
        split_engine._sync_solver_stats()
        entry: LedgerEntry = (
            "coordinator",
            copy.deepcopy(split_engine.stats),
            copy.deepcopy(split_engine.solver.stats),
        )
        tests = list(split_engine.tests.cases)
        covered = set(split_engine.coverage.covered)
        payload = None
        if split_engine._store_tier is not None:
            payload = split_engine._store_tier.peek_pending()
        return (entry, tests, covered, payload)

    def _make_checkpointer(self, engine: Engine):
        """A CampaignCheckpointer bound to the engine's store, or None."""
        par = self.parallel
        if par.campaign_id is None:
            return None
        store = getattr(engine, "store", None)
        if store is None or store.readonly:
            raise ConfigError(
                f"campaign {par.campaign_id!r} needs a writable store at "
                f"{self.config.store_path!r}"
            )
        from ..campaign import CampaignCheckpointer  # local import: avoid cycle

        ckpt = CampaignCheckpointer(store, par.campaign_id, keep=par.checkpoint_keep)
        if self._resume is not None:
            ckpt.epoch = self._resume.epoch
        return ckpt

    def _save_checkpoint(
        self,
        phase: str,
        pending_blobs: list,
        tests: list,
        covered: set,
        streamed_paths: int,
        partition_results: list,
        requeue_counts: dict,
        fleet_entries: list,
    ) -> None:
        """Persist one campaign epoch from the select loop's current state.

        ``pending_blobs`` rows are ``(pid | None, snapshot, origin,
        meta)`` — the scheduler queue plus every in-flight lease folded
        back to pending (a checkpoint treats outstanding leases exactly
        as :func:`handle_death` would: full snapshot requeued, or steal
        residuals split into accepted interim + retained frontier).
        """
        if self._ckpt is None:
            return
        from ..campaign import CampaignRecord  # local import: avoid cycle

        entry, split_tests, split_covered, store_payload = self._split_ctx
        record = CampaignRecord(
            campaign=self.parallel.campaign_id,
            program=self.program,
            spec_payload=self._spec_payload(),
            config_payload=encode_config(self.config),
            parallel_payload=dataclasses.asdict(self.parallel),
            phase=phase,
            factor=self._factor,
            next_pid=self._next_pid,
            partitions_dispatched=self.partitions_dispatched,
            steals=self.steals,
            workers_lost=self.workers_lost,
            requeues=self.requeues,
            requeue_log=list(self.requeue_log),
            requeue_counts=dict(requeue_counts),
            pending=list(pending_blobs),
            tests=list(tests),
            covered=set(covered),
            streamed_paths=streamed_paths,
            partition_results=list(partition_results),
            worker_entries=self._prior_entries + fleet_entries,
            split_entry=entry,
            split_tests=split_tests,
            split_covered=split_covered,
            store_payload=store_payload,
        )
        self._ckpt.save(record)

    def _run_resume(self) -> ParallelResult:
        """Continue a campaign from a loaded CampaignRecord.

        The split phase never re-runs: its ledger entry, tests and
        coverage come from the record, as do the accepted results of
        every completed partition (provably not re-explored — their pids
        are absent from this run's dispatch log).  Pending partitions
        rebuild the scheduler queue from their snapshots and are
        explored by a fresh worker fleet with the usual semantics.
        """
        start = time.perf_counter()
        rec = self._resume
        par = self.parallel
        module = get_program(self.program).compile()
        # Store access, corpus signals, and the final single-writer
        # commit — this engine never explores.
        engine = Engine(module, self.spec, self.config, program=self.program)
        self._next_pid = rec.next_pid
        self.partitions_dispatched = rec.partitions_dispatched
        self.steals = rec.steals
        self.workers_lost = rec.workers_lost
        self.requeues = rec.requeues
        self.requeue_log = list(rec.requeue_log)
        self._factor = rec.factor
        self._resumed_epoch = rec.epoch
        self._restored_partitions = len(rec.partition_results)
        self._split_ctx = (
            rec.split_entry, rec.split_tests, rec.split_covered, None,
        )
        # Prior-generation fleets keep their ledger identity, tagged with
        # the epoch their deltas were restored from (exactly once — a
        # twice-resumed campaign keeps earlier tags).
        self._prior_entries = [
            (name if "@e" in name else f"{name}@e{rec.epoch}", estats, sstats)
            for name, estats, sstats in rec.worker_entries
        ]
        partitions = []
        for pid, snapshot, origin, meta in rec.pending:
            if pid is None:
                partitions.append(self._new_partition_from_blob(snapshot, origin, meta))
            else:
                partitions.append(Partition.from_blob(pid, snapshot, origin, meta))
        self._ckpt = self._make_checkpointer(engine)
        extra_payloads = [rec.store_payload] if rec.store_payload else []
        if not partitions:
            # Killed at/after drain: every partition was accepted; only
            # the final commit is left to redo.
            return self._assemble(
                engine, [], list(rec.tests), set(rec.covered), start,
                rec.streamed_paths, extra_payloads, rec.partition_results,
            )
        self._sched = PartitionScheduler(
            engine.corpus_covered,
            qt_table=lambda: (
                engine.qce or analyze_module(module, self.config.qce_params)
            ).qt_table(),
            policy=par.dispatch,
        )
        transport = self._make_transport()
        transport.start()
        try:
            entries, tests, covered, streamed, payloads, part_results = (
                self._run_transport(partitions, transport)
            )
        finally:
            transport.close()
        return self._assemble(
            engine, entries, tests, covered, start, streamed,
            extra_payloads + payloads, part_results,
        )

    def _assemble(
        self,
        split_engine: Engine,
        worker_entries: list[LedgerEntry],
        worker_tests: list,
        worker_covered: set,
        start: float,
        streamed_paths: int = 0,
        store_payloads: list | None = None,
        partition_results: list | None = None,
    ) -> ParallelResult:
        if self._split_ctx is not None:
            # Frozen split-phase contribution (set once after the split,
            # restored from the record on resume) — the same snapshot
            # every checkpoint record carried, so a resumed run's ledger
            # coordinator entry is byte-identical to the original's.
            coord_entry, split_tests, split_covered, _ = self._split_ctx
        else:
            split_engine._sync_solver_stats()
            coord_entry = (
                "coordinator", split_engine.stats, split_engine.solver.stats
            )
            split_tests = list(split_engine.tests.cases)
            split_covered = set(split_engine.coverage.covered)
        # Prior-generation fleet entries (restored by a resume) sit
        # between the coordinator and this run's workers: every accepted
        # delta from every fleet generation is summed exactly once.
        ledger: list[LedgerEntry] = [coord_entry]
        ledger.extend(self._prior_entries)
        ledger.extend(worker_entries)
        tests = TestSuite(self.spec, cases=list(split_tests) + worker_tests)
        covered = set(split_covered) | worker_covered
        merged_stats = EngineStats.merged(entry[1] for entry in ledger)
        merged_solver = SolverStats.merged(entry[2] for entry in ledger)
        # Observed imbalance: how unevenly the completed-path work landed
        # across workers.  Recorded with the run (its snapshot goes into
        # the store) so the next adaptive split can level against it.
        imbalance = _worker_imbalance(self._prior_entries + worker_entries)
        merged_stats.sched_imbalance = max(merged_stats.sched_imbalance, imbalance)
        self._commit_store(
            split_engine, store_payloads or [], tests, merged_stats, merged_solver
        )
        return ParallelResult(
            program=self.program,
            spec=self.spec,
            config=self.config,
            parallel=self.parallel,
            stats=merged_stats,
            solver_stats=merged_solver,
            tests=tests,
            covered=covered,
            ledger=ledger,
            partitions=self.partitions_dispatched,
            steals=self.steals,
            wall_time=time.perf_counter() - start,
            streamed_paths=streamed_paths,
            partition_factor=self._factor,
            imbalance=imbalance,
            partition_results=list(partition_results or []),
            requeues=list(self.requeue_log),
            workers_lost=self.workers_lost,
            campaign_id=self.parallel.campaign_id,
            checkpoint_epoch=self._ckpt.epoch if self._ckpt is not None else 0,
            resumed_epoch=self._resumed_epoch,
            restored_partitions=self._restored_partitions,
            store_warning=self._store_warning,
        )

    def _commit_store(
        self,
        split_engine: Engine,
        store_payloads: list,
        tests: TestSuite,
        merged_engine: EngineStats,
        merged_solver: SolverStats,
    ) -> None:
        """Single-writer store commit for a partitioned run.

        The coordinator's split engine owns the writable store; workers
        (process or inline) ran read-only and shipped their buffered
        inserts, which are applied here together with the coordinator's
        own buffer, the merged run metadata (including the observed
        ``sched_imbalance``), and the full merged test suite.

        The whole commit is one store transaction retried with bounded
        backoff on SQLite lock contention (another process holding the
        WAL write lock).  If the store stays locked past the retry
        budget, the run *degrades* instead of failing: results are
        returned complete, ``ParallelResult.store_warning`` names what
        was lost (only the cross-run cache/corpus update).  On success
        the campaign's checkpoint rows ride along in the same
        transaction — a completed campaign is unresumable atomically
        with its results becoming durable.
        """
        store = getattr(split_engine, "store", None)
        if store is None or store.readonly or split_engine._store_tier is None:
            return
        import sqlite3

        from ..store import (
            apply_payload,
            is_locked_error,
            record_tests,
            retry_locked,
            spec_fingerprint,
        )

        # Drain the tier buffer exactly once, outside the retried
        # closure: a rollback must not lose it, a retry not re-drain it.
        own_payload = split_engine._store_tier.export_pending()

        def commit() -> None:
            with store.transaction():
                run_id = store.record_run(
                    self.program,
                    spec_fingerprint(self.spec),
                    mode=(
                        f"{self.config.merging}/{self.config.similarity}/"
                        f"{self.config.strategy}/workers={self.parallel.workers}"
                    ),
                    wall_time=merged_engine.wall_time,
                    queries=merged_solver.queries,
                    sat_solver_runs=merged_solver.sat_solver_runs,
                    store_hits=merged_solver.store_hits,
                    cost_units=merged_solver.cost_units,
                    paths=merged_engine.paths_completed,
                    tests=merged_engine.tests_generated,
                    stats=merged_engine.snapshot(),
                )
                for payload in [own_payload, *store_payloads]:
                    if payload:
                        apply_payload(store, payload, run_id=run_id)
                record_tests(
                    store, split_engine.module, self.program, self.spec,
                    tests.cases, run_id,
                )
                if self._ckpt is not None:
                    store.delete_campaign(self._ckpt.campaign)

        try:
            retry_locked(commit)
        except sqlite3.OperationalError as exc:
            if not is_locked_error(exc):
                raise
            self._store_warning = (
                f"store commit skipped: {self.config.store_path!r} stayed "
                f"locked past the retry budget ({exc}); results are "
                "complete, only the cross-run cache/corpus update was lost"
            )
        split_engine._store_committed = True
        split_engine.close_store()

    # -- inline backend -----------------------------------------------------------

    def _run_inline(self, module, partitions: list[Partition]):
        """Run the partition protocol over in-process engines, in
        scheduler order.

        Exercises the exact same snapshot/seed/explore/merge machinery as
        the process backend, minus the IPC — deterministic and
        fork-free, so it doubles as the reference for differential tests
        and for the `sched` ablation (partitions complete exactly in
        dispatch order here, making paths-to-coverage-target a pure
        function of the dispatch policy).
        """
        par = self.parallel
        config = self.config
        if config.store_path:
            # Same protocol as process workers: read-only store views,
            # inserts buffered and applied by the coordinator (the single
            # writer) at assembly time.
            config = dataclasses.replace(config, store_readonly=True)
        engines = [
            Engine(module, self.spec, config, program=self.program)
            for _ in range(par.workers)
        ]
        tests: list = []
        covered: set = set()
        streamed_paths = 0
        partition_results: list = []
        tasks = self._sched.order(partitions)
        for engine in engines:
            engine.stats.states_created = 0
        for i, part in enumerate(tasks):
            engine = engines[i % len(engines)]
            state = part.restore(engine._fresh_sid())
            new_tests, new_cov, paths = run_partition(engine, state, None, None, 0)
            tests.extend(new_tests)
            covered |= new_cov
            streamed_paths += paths
            partition_results.append((part.pid, part.origin, paths, new_cov))
        entries: list[LedgerEntry] = []
        payloads: list = []
        for i, engine in enumerate(engines):
            engine._sync_solver_stats()
            entries.append((f"worker-{i}", engine.stats, engine.solver.stats))
            payloads.append(engine.export_store_payload())
            engine.close_store()
        return entries, tests, covered, streamed_paths, payloads, partition_results

    # -- transport backends (process pool / socket service) ------------------------

    def _run_transport(self, partitions: list[Partition], transport):
        """The select loop: dispatch leases, merge results, recover.

        Drives any transport exposing the duck type documented in
        :mod:`repro.remote.transport`.  On lease-tracking transports
        (``transport.leased``) worker death revokes and requeues; on the
        queue backend it raises a named :class:`WorkerCrashError`.
        """
        par = self.parallel
        sched = self._sched
        leased = transport.leased
        directed = transport.directed
        # A resume seeds the merge state with every result the record had
        # already accepted — those partitions are never re-dispatched
        # (their pids are simply absent from this run's queue).
        rec = self._resume
        tests: list = list(rec.tests) if rec is not None else []
        covered: set = set(rec.covered) if rec is not None else set()
        streamed_paths = rec.streamed_paths if rec is not None else 0
        partition_results: list = (
            list(rec.partition_results) if rec is not None else []
        )
        completions = 0  # accepted MSG_DONEs (checkpoint_every cadence)
        fenced: dict[int, str] = {}  # wid -> death reason
        assigned: dict[int, int] = {}  # wid -> pid of its in-flight lease
        started: set[int] = set()  # wids whose in-flight lease saw MSG_START
        queued = 0  # queue backend: tasks put but not yet started
        outstanding: dict[int, Partition] = {}  # pid -> dispatched partition
        # pid -> (retained frontier, interim results): the latest steal
        # checkpoint of a partially-stolen-from partition.
        residuals: dict[int, tuple] = {}
        # pid -> lease-revocation generation (propagated to requeued
        # descendants); restored on resume so the poison cap spans crashes.
        requeue_counts: dict[int, int] = (
            dict(rec.requeue_counts) if rec is not None else {}
        )
        # Lease accounting: per-worker accepted stats deltas and the last
        # cumulative snapshot each delta was computed against.
        deltas: dict[int, list] = {}
        last_cum: dict[int, tuple] = {}
        # Early/final stats messages (queue backend ledger + payloads).
        entries_by_wid: dict[int, LedgerEntry] = {}
        payloads_by_wid: dict[int, dict | None] = {}
        steal_inflight: set[int] = set()
        # Workers whose last steal reply was empty: their frontier is too
        # thin to split, so don't ping them again until they make progress
        # (start or finish a partition) — prevents a request/empty-reply
        # storm against a worker grinding one deep linear path.
        steal_dry: set[int] = set()
        pending = 0  # partitions not yet accepted (queued, running, or held)
        for part in partitions:
            sched.push(part)
            pending += 1

        def alive_ids() -> list[int]:
            return [w for w in transport.worker_ids if w not in fenced]

        def accept(pid: int, origin: str, new_tests, new_cov, paths: int) -> None:
            nonlocal streamed_paths
            tests.extend(new_tests)
            covered.update(new_cov)
            streamed_paths += paths
            partition_results.append((pid, origin, paths, new_cov))

        def record_delta(wid: int, estats, sstats) -> None:
            if not leased:
                return
            prev = last_cum.get(wid)
            deltas.setdefault(wid, []).append(
                (_engine_stats_delta(estats, prev[0] if prev else None),
                 _solver_stats_delta(sstats, prev[1] if prev else None))
            )
            last_cum[wid] = (estats, sstats)

        def requeue(part: Partition, source_pid: int, wid: int) -> None:
            nonlocal pending
            count = requeue_counts.get(source_pid, 0) + 1
            if count > par.max_partition_requeues:
                # Poison: this subtree has killed every owner it was
                # leased to.  Drop it with a named event instead of
                # cycling forever — the campaign completes with a clean
                # ledger for the survivors (the dropped subtree simply
                # contributes no paths, like an exhausted budget).
                self.requeue_log.append({
                    "kind": "dropped",
                    "pid": source_pid,
                    "origin": part.origin,
                    "worker": wid,
                    "revocations": count,
                    "reason": (
                        f"lease revoked {count} times, more than "
                        f"max_partition_requeues={par.max_partition_requeues}; "
                        "partition presumed poison"
                    ),
                })
                return
            requeue_counts[part.pid] = count
            self.requeues += 1
            self.requeue_log.append({
                "kind": "requeue",
                "pid": part.pid,
                "source_pid": source_pid,
                "worker": wid,
                "origin": part.origin,
            })
            sched.push(part)
            pending += 1

        def checkpoint(phase: str) -> None:
            """Persist a campaign epoch from the loop's current state.

            In-flight leases fold back to pending exactly as
            :func:`handle_death` would fold them — full snapshot, or
            steal-residual split into accepted interim results plus the
            retained frontier — but on *transient copies*: the live loop
            state is never mutated, the leases stay leased.  A resume
            from this record therefore behaves as if every outstanding
            worker had died at the instant of the crash, which is
            exactly what a coordinator SIGKILL makes true.
            """
            if self._ckpt is None:
                return
            pend = [
                (p.pid, p.snapshot, p.origin, p.sched_meta())
                for p in sched.pending()
            ]
            ck_tests = list(tests)
            ck_cov = set(covered)
            ck_streamed = streamed_paths
            ck_results = list(partition_results)
            ck_deltas = {w: list(ds) for w, ds in deltas.items()}
            owner = {pid: w for w, pid in assigned.items()}
            for pid, part in outstanding.items():
                wid = owner.get(pid)
                residual = residuals.get(pid)
                if residual is not None and wid is not None:
                    retained, interim = residual
                    i_tests, i_cov, i_paths, i_estats, i_sstats = interim
                    ck_tests.extend(i_tests)
                    ck_cov.update(i_cov)
                    ck_streamed += i_paths
                    ck_results.append((pid, part.origin, i_paths, i_cov))
                    prev = last_cum.get(wid)
                    ck_deltas.setdefault(wid, []).append((
                        _engine_stats_delta(i_estats, prev[0] if prev else None),
                        _solver_stats_delta(i_sstats, prev[1] if prev else None),
                    ))
                    for blob, meta in retained:
                        pend.append((None, blob, f"requeue:{wid}", meta))
                else:
                    pend.append(
                        (part.pid, part.snapshot, part.origin, part.sched_meta())
                    )
            fleet = [
                (
                    f"worker-{w}",
                    EngineStats.merged(d[0] for d in ds),
                    SolverStats.merged(d[1] for d in ds),
                )
                for w, ds in sorted(ck_deltas.items())
            ]
            self._save_checkpoint(
                phase, pend, ck_tests, ck_cov, ck_streamed, ck_results,
                dict(requeue_counts), fleet,
            )

        def dispatch() -> None:
            nonlocal queued
            if directed:
                # One lease in flight per worker; every hand-out is the
                # scheduler's current best.
                for wid in alive_ids():
                    if wid in assigned or not len(sched):
                        continue
                    part = sched.pop()
                    outstanding[part.pid] = part
                    assigned[wid] = part.pid
                    try:
                        transport.send_task(
                            wid, (TASK_PARTITION, part.pid, part.snapshot)
                        )
                    except OSError:
                        pass  # death sweep revokes and requeues this lease
            else:
                # Shared queue: keep it primed with at most one task per
                # worker; any idle worker pulls the next one.
                while len(sched) and queued < par.workers:
                    part = sched.pop()
                    outstanding[part.pid] = part
                    transport.send_task(
                        None, (TASK_PARTITION, part.pid, part.snapshot)
                    )
                    queued += 1

        def handle_death(wid: int, reason: str) -> None:
            nonlocal pending
            if wid in fenced:
                return
            if not leased:
                pid = assigned.get(wid)
                where = (
                    f" with partition {pid} in flight" if pid is not None
                    else ""
                )
                raise WorkerCrashError(
                    f"parallel worker {wid} died ({reason}){where} without "
                    "reporting an error; the queue backend cannot requeue — "
                    "use backend='socket' for lease-based crash recovery"
                )
            fenced[wid] = reason
            self.workers_lost += 1
            transport.fence(wid)
            steal_inflight.discard(wid)
            steal_dry.discard(wid)
            started.discard(wid)
            pid = assigned.pop(wid, None)
            if pid is not None:
                part = outstanding.pop(pid)
                residual = residuals.pop(pid, None)
                pending -= 1
                if residual is not None:
                    # The partition donated frontier states to thieves;
                    # its original snapshot no longer describes the
                    # remaining work.  Recover from the last steal
                    # checkpoint instead: accept the interim results
                    # (paths completed before the boundary) and requeue
                    # exactly the frontier the victim had retained.
                    retained, interim = residual
                    i_tests, i_cov, i_paths, i_estats, i_sstats = interim
                    accept(pid, part.origin, i_tests, i_cov, i_paths)
                    record_delta(wid, i_estats, i_sstats)
                    for blob, meta in retained:
                        child = self._new_partition_from_blob(
                            blob, f"requeue:{wid}", meta
                        )
                        requeue(child, pid, wid)
                else:
                    fresh = dataclasses.replace(
                        part, pid=self._alloc_pid(), origin=f"requeue:{wid}"
                    )
                    requeue(fresh, pid, wid)
                checkpoint("requeue")
            if not alive_ids():
                raise WorkerCrashError(
                    f"all {par.workers} workers lost; last was worker {wid} "
                    f"({reason})"
                )

        dispatch()
        while pending > 0:
            for wid, reason in transport.dead_workers():
                handle_death(wid, reason)
            dispatch()
            msg = transport.recv(par.poll_timeout)
            if msg is None:
                continue
            kind, wid = msg[0], msg[1]
            if wid in fenced:
                # Fenced workers are gone as far as the ledger is
                # concerned; anything that still trickles out of their
                # channel belongs to a revoked lease.  Discarded, never
                # double-counted.
                continue
            if kind == MSG_START:
                pid = msg[2]
                if not directed:
                    queued -= 1
                    assigned[wid] = pid
                elif assigned.get(wid) != pid:
                    continue  # stale start for a lease this worker lost
                started.add(wid)
                steal_dry.discard(wid)
                dispatch()
                self._fault_event("start", wid, transport, pid)
            elif kind == MSG_DONE:
                _, wid, pid, new_tests, new_cov, paths, estats, sstats = msg
                if leased and assigned.get(wid) != pid:
                    continue  # revoked lease completing late — discard
                part = outstanding.pop(pid, None)
                assigned.pop(wid, None)
                started.discard(wid)
                steal_inflight.discard(wid)
                steal_dry.discard(wid)
                residuals.pop(pid, None)
                pending -= 1
                accept(pid, part.origin if part is not None else "?",
                       new_tests, new_cov, paths)
                record_delta(wid, estats, sstats)
                completions += 1
                if completions % par.checkpoint_every == 0:
                    checkpoint("dispatch")
                dispatch()
                self._fault_event("done", wid, transport, pid)
            elif kind == MSG_STOLEN:
                _, wid, stolen, retained, interim = msg
                steal_inflight.discard(wid)
                if stolen:
                    self.steals += 1
                else:
                    steal_dry.add(wid)
                for blob, meta in stolen:
                    part = self._new_partition_from_blob(blob, f"steal:{wid}", meta)
                    sched.push(part)
                    pending += 1
                if leased and retained is not None and wid in assigned:
                    residuals[assigned[wid]] = (retained, interim)
                if stolen:
                    checkpoint("steal")
                dispatch()
            elif kind == MSG_STATS:
                # A worker only reports final stats at TASK_STOP; seeing
                # one here means it is shutting down early.  Keep the
                # ledger/payload anyway (queue backend uses them).
                entries_by_wid[wid] = (f"worker-{wid}", msg[2], msg[3])
                payloads_by_wid[wid] = msg[4]
            elif kind == MSG_ERROR:
                raise WorkerCrashError(
                    f"parallel worker {wid} failed:\n{msg[2]}"
                )
            # Rebalance: everything is dispatched, someone is idle, someone
            # is busy.  Victim choice routes through the scheduler: steal
            # from the worker running the best-scored partition — the
            # most novel, shallowest subtree, whose frontier is most worth
            # splitting across the idle workers.
            if (
                par.steal and pending > 0 and not len(sched) and started
                and (directed or queued == 0)
            ):
                if directed:
                    idle = [w for w in alive_ids() if w not in assigned]
                else:
                    idle = [w for w in alive_ids() if w not in assigned.keys()]
                eligible = {
                    w: outstanding.get(assigned[w])
                    for w in started
                    if w in assigned
                    and w not in steal_inflight
                    and w not in steal_dry
                }
                if idle and eligible:
                    victim = sched.pick_victim(eligible)
                    # Tag the request with the partition it targets, so
                    # the worker can discard it if it arrives late.
                    try:
                        transport.send_cmd(victim, (CMD_STEAL, assigned[victim]))
                        steal_inflight.add(victim)
                    except OSError:
                        pass  # victim died; the death sweep handles it

        # Drain: stop every surviving worker and collect its final stats
        # message (which carries the buffered store inserts — the
        # coordinator is the single store writer).  The drain checkpoint
        # has no pending partitions: a coordinator killed past this point
        # resumes straight to the final store commit.
        checkpoint("drain")
        self._fault_event("drain", -1, transport)
        expected = list(alive_ids())
        for wid in expected:
            try:
                transport.send_task(wid if directed else None, (TASK_STOP,))
            except OSError:
                pass
        deadline = time.monotonic() + par.join_timeout
        while True:
            missing = [
                w for w in expected
                if w not in payloads_by_wid and w not in fenced
            ]
            if not missing:
                break
            if time.monotonic() > deadline:
                raise WorkerCrashError(
                    f"workers {missing} never reported final stats"
                )
            msg = transport.recv(min(par.poll_timeout, 0.25))
            if msg is None:
                if leased:
                    # A worker dying between its last partition and the
                    # stop ack loses only its store buffer; its ledger
                    # contribution is already in the accepted deltas.
                    for wid, reason in transport.dead_workers():
                        if wid not in fenced and wid not in payloads_by_wid:
                            fenced[wid] = reason
                            self.workers_lost += 1
                            transport.fence(wid)
                continue
            kind, wid = msg[0], msg[1]
            if wid in fenced:
                continue
            if kind == MSG_STATS:
                entries_by_wid[wid] = (f"worker-{wid}", msg[2], msg[3])
                payloads_by_wid[wid] = msg[4]
            elif kind == MSG_ERROR:
                raise WorkerCrashError(
                    f"parallel worker {wid} failed:\n{msg[2]}"
                )
            # Late MSG_STOLEN/HEARTBEAT stragglers are legal and ignored:
            # pending hit zero, so every partition was already accepted.

        entries: list[LedgerEntry] = []
        payloads: list = []
        for wid in sorted(transport.worker_ids):
            if leased:
                # Lease accounting: a worker's ledger entry is the merge
                # of its accepted per-partition deltas — work from
                # revoked leases (and anything a fenced worker never got
                # accepted) is excluded by construction.
                wid_deltas = deltas.get(wid, [])
                entries.append((
                    f"worker-{wid}",
                    EngineStats.merged(d[0] for d in wid_deltas),
                    SolverStats.merged(d[1] for d in wid_deltas),
                ))
            else:
                entries.append(entries_by_wid[wid])
            payloads.append(payloads_by_wid.get(wid))
        return entries, tests, covered, streamed_paths, payloads, partition_results


def _worker_imbalance(worker_entries: list[LedgerEntry]) -> float:
    """Max/mean of per-worker completed paths (1.0 = perfectly level).

    Path counts rather than CPU seconds: they are deterministic (the
    inline backend and tests can pin them) and survive the store's JSON
    snapshot unchanged.  Runs with fewer than two workers — or where no
    worker completed a path — report 1.0, the neutral value.
    """
    counts = [entry[1].paths_completed for entry in worker_entries]
    total = sum(counts)
    if len(counts) < 2 or total == 0:
        return 1.0
    return max(counts) * len(counts) / total


def run_parallel(
    program: str,
    workers: int = 2,
    n_args: int | None = None,
    arg_len: int | None = None,
    merging: str = "none",
    similarity: str = "never",
    strategy: str = "dfs",
    parallel: ParallelConfig | None = None,
    **engine_kwargs,
) -> ParallelResult:
    """Explore a corpus program across ``workers`` processes.

    Mirrors :func:`repro.env.runner.run_symbolic`; ``workers=1`` runs the
    identical code path sequentially (no pool, no partitioning).  When a
    full :class:`ParallelConfig` is passed, its ``workers`` field wins.

    Engine budgets (``max_steps``/``max_queries``/``time_budget``) apply
    *per participant* — the coordinator's split phase and each worker
    enforce them independently, so an N-worker run may spend up to N+1
    times the sequential budget.  A tripped budget sets ``timed_out`` in
    the merged stats; the affected worker finishes cleanly but leaves its
    remaining frontier unexplored, exactly like a sequential run.
    """
    info = get_program(program)
    spec = ArgvSpec(
        n_args=info.default_n if n_args is None else n_args,
        arg_len=info.default_l if arg_len is None else arg_len,
        stdin_len=info.default_stdin,
    )
    config = EngineConfig(
        merging=merging, similarity=similarity, strategy=strategy, **engine_kwargs
    )
    if parallel is None:
        parallel = ParallelConfig(workers=workers)
    coordinator = Coordinator(program, spec, config, parallel)
    return coordinator.run()

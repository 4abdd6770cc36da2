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
   :class:`~repro.sched.PartitionScheduler` priority queue and one
   lease-tracked *transport* (:mod:`repro.remote.transport`) that gets
   its worker connections either by forking local processes over
   socketpairs (``backend="process"``, no port opened) or by listening
   for dialing workers, possibly on other hosts (``backend="socket"``);
   the inline backend runs the same partitions in this process for
   deterministic testing.  At most one lease is in flight per worker,
   so every hand-out is the best-scored pending partition (corpus
   novelty, prefix depth, pid — see :mod:`repro.sched`).  When
   everything is dispatched while some workers are still busy, the
   coordinator sends steal requests to the worker running the
   best-scored partition and re-queues whatever frontier the busy
   workers export.
3. **Merge** — per-partition results stream in (tests, coverage, path
   counts, cumulative stats snapshots); the coordinator folds everything
   into one ledger: one ``(name, Stats)`` entry per participant, merged
   once by the one rule of :meth:`~repro.stats.Stats.merge`, so every
   additive field is exactly the sum of the entries.

Everything the campaign knows between two messages lives in one
:class:`~repro.parallel.state.CampaignState`; :meth:`Coordinator
._run_transport` is only the I/O shell that feeds it events and performs
the sends, fences and checkpoints it returns.

**Fault tolerance (lease layer).**  Every dispatched partition is a
*lease*: the owning worker id plus a liveness deadline maintained from
its heartbeats.  When a worker dies — SIGKILL, dropped connection,
missed heartbeats — the coordinator *fences* it (closes its channel;
every later message from it is discarded) and requeues the leased
partition through the scheduler.  Because results only ever merge at
partition completion, and because a worker's ledger contribution is the
sum of per-accepted-partition stats *deltas* (differences of consecutive
cumulative snapshots), a revoked partition's partial results are
discarded, never double-counted — the disjointness and ledger invariants
survive worker death, and a recovered plain-mode run emits the identical
test multiset as an undisturbed one.  Steal replies checkpoint the
victim's retained frontier plus interim results, so even a
partially-stolen-from partition recovers exactly.
"""

from __future__ import annotations

import copy
import dataclasses
import time
from dataclasses import dataclass, field

from ..campaign import CampaignCheckpointer, CampaignRecord
from ..engine.executor import Engine, EngineConfig
from ..engine.testgen import TestSuite
from ..env.argv import ArgvSpec
from ..programs.registry import get_program
from ..sched import PartitionScheduler
from ..stats import ADDITIVE_FIELDS, Stats
from .partition import Partition
from .state import CHECKPOINT, FENCE, SEND_TASK, CampaignState
from .wire import MSG_DONE, MSG_ERROR, MSG_START, TASK_PARTITION
from .worker import make_worker_engine, run_partition


# Give up splitting after this many blocks even if the frontier is
# small — skinny trees fork rarely and may never reach the target.  On
# the corpus this cap is what usually ends a plain (DFS) split: wc and
# uniq stop at 5 states, tsort at 6 (default spec), short of the 8 or 12
# that PARTITION_FACTOR asks for with 2 or 3 workers.
SPLIT_MAX_STEPS = 512
# Split until the frontier holds workers * PARTITION_FACTOR states: more
# partitions than workers smooths the initial imbalance.
PARTITION_FACTOR = 4


class ConfigError(ValueError):
    """A :class:`ParallelConfig` (or campaign setup) that cannot work.

    Raised at construction time — a misconfigured fault-tolerance knob
    (a lease deadline shorter than the heartbeat period, a zero
    checkpoint cadence) must fail before any worker is spawned, not
    misbehave mid-campaign.  Subclasses :class:`ValueError` so existing
    callers catching that keep working.
    """


class WorkerCrashError(RuntimeError):
    """The fleet failed in a way the run cannot absorb.

    Raised when every worker of a campaign is gone, when a worker ships
    an error traceback (``MSG_ERROR`` — a bug, not a crash), or when a
    drain never gets its final stats acks.  A single worker death does
    not raise — its lease is requeued — and neither does a partition
    that keeps killing its owners: it is dropped after
    ``max_partition_requeues`` with a named entry in
    ``ParallelResult.requeues`` and the campaign completes for the
    survivors.
    """


@dataclass(frozen=True)
class ParallelConfig:
    """Knobs for one parallel exploration."""

    workers: int = 2
    # Dispatch policy: 'corpus' ranks pending partitions by corpus
    # novelty / prefix depth (repro.sched.PartitionScheduler);
    # 'fifo' preserves split order (the ablation baseline).
    dispatch: str = "corpus"
    # Where the fleet's connections come from — the framed, lease-tracked
    # protocol on them is the same: 'process' forks local workers, each
    # on one end of a socketpair (no port is opened); 'socket' listens on
    # TCP for dialing workers (spawned locally, or on other hosts).
    # 'inline' runs the partitions round-robin in this process
    # (deterministic, for tests and for environments without fork).
    backend: str = "process"
    steal: bool = True
    poll_timeout: float = 0.5
    join_timeout: float = 10.0
    # -- backend='socket' --------------------------------------------------
    # Bind address for the coordinator's listener.  Port 0 = ephemeral.
    socket_host: str = "127.0.0.1"
    socket_port: int = 0
    # True: fork local processes that connect over loopback (tests, CI,
    # single-host speedups).  False: only listen — workers join with
    # `python -m repro.remote worker --connect host:port` from anywhere.
    spawn_workers: bool = True
    accept_timeout: float = 30.0
    # -- leases ------------------------------------------------------------
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

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.dispatch not in ("corpus", "fifo"):
            raise ConfigError(f"unknown dispatch policy {self.dispatch!r}")
        if self.backend not in ("inline", "process", "socket"):
            raise ConfigError(f"unknown backend {self.backend!r}")
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


@dataclass
class ParallelResult:
    """Merged outcome of a partitioned exploration.

    ``ledger`` lists every participant as ``(name, stats)`` (the
    coordinator's split-phase engine, then each worker); ``stats`` is
    their merge.
    ``wall_time`` is end-to-end elapsed time — ``stats.wall_time`` is the
    *summed* per-participant time (aggregate CPU seconds), which is the
    quantity that stays comparable to a sequential run's cost.
    """

    program: str
    spec: ArgvSpec
    config: EngineConfig
    parallel: ParallelConfig
    stats: Stats
    tests: TestSuite
    covered: set
    ledger: list[tuple[str, Stats]]
    partitions: int
    steals: int
    wall_time: float
    # Sum of the per-partition path deltas streamed in MSG_DONE messages;
    # cross-checked against the final stats ledger in check_ledger().
    streamed_paths: int = 0
    # Scheduling telemetry: the observed worker imbalance (max/mean of
    # per-worker completed paths; 1.0 = perfectly level) and the
    # per-partition completion log [(pid, origin, paths, new_coverage)]
    # in completion order — what the `sched` ablation figure replays.
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
    def solver_stats(self) -> Stats:
        """The solver's counters: the same record as ``stats``."""
        return self.stats

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

        Every additive field the record declares
        (:data:`~repro.stats.ADDITIVE_FIELDS`) must equal the sum over
        participants, and the solver's own accounting identity must
        survive the merge.
        """
        s = self.stats
        for fname in ADDITIVE_FIELDS:
            total = sum(getattr(entry, fname) for _, entry in self.ledger)
            merged = getattr(s, fname)
            if merged != total:
                raise AssertionError(
                    f"ledger violation: merged {fname}={merged} != sum {total}"
                )
        if s.queries != s.sat_answers + s.unsat_answers + s.timeouts:
            raise AssertionError("ledger violation: queries != sat + unsat + timeouts")
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


class Coordinator:
    """Drives one partitioned exploration of one program."""

    def __init__(
        self,
        program: str,
        spec: ArgvSpec,
        config: EngineConfig,
        parallel: ParallelConfig | None = None,
        resume: CampaignRecord | None = None,
    ):
        self.program = program
        self.spec = spec
        self.config = config
        self.parallel = par = parallel or ParallelConfig()
        if par.campaign_id is not None:
            if not self.config.store_path:
                raise ConfigError(
                    "campaign_id requires config.store_path — checkpoints "
                    "are stored blobs"
                )
            if self.config.store_readonly:
                raise ConfigError(
                    "campaign checkpointing requires a writable store"
                )
        knobs = dict(
            max_requeues=par.max_partition_requeues,
            checkpoint_every=par.checkpoint_every,
            steal=par.steal,
        )
        # The campaign's whole state (repro.parallel.state).  A resume
        # continues from a loaded record; a fresh run starts an empty one
        # that carries the replay context a later resume needs.
        if resume is not None:
            self.state = CampaignState.from_record(resume, **knobs)
        else:
            self.state = CampaignState(
                CampaignRecord(
                    campaign=par.campaign_id,
                    program=program,
                    spec=spec,
                    config=config,
                    parallel=par,
                ),
                **knobs,
            )
        # The epoch a resume continued from, and how many completed
        # partitions it restored instead of re-exploring.
        self._resumed_epoch = resume.epoch if resume is not None else None
        self._restored_partitions = len(self.state.rec.partition_results)
        # Chaos hook for the fault-injection harness: called as
        # fault_injector(event, wid, transport, pid) before a leased
        # partition leaves for its worker ("lease": a fault here cannot
        # race the worker's own messages — it has nothing to run yet),
        # after every processed "start"/"done" event (pid = the partition
        # involved), after the split checkpoint ("split") and at drain
        # entry ("drain"); may transport.kill(wid)/disconnect(wid) or raise.
        self.fault_injector = None
        self._ckpt = None  # CampaignCheckpointer when campaign_id active
        # Replay on arrival, when a fleet runs and the run will commit:
        # the coverage of accepted tests, replayed between messages, and
        # how many of rec.tests it has seen.
        self._arrivals = None  # repro.store.ArrivalReplay
        self._arrived = 0

    # -- public entry -----------------------------------------------------------

    def run(self) -> ParallelResult:
        """Split (unless resuming), run the fleet, assemble.

        On a resume the split phase never re-runs: its ledger entry,
        tests and coverage are in the record, as are the accepted
        results of every completed partition (provably not re-explored —
        their pids are absent from this run's dispatch log).  The
        record's pending partitions rebuild the scheduler queue and are
        explored by a fresh fleet with the usual semantics; the engine
        built here then only provides store access, corpus signals and
        the final single-writer commit.
        """
        start = time.perf_counter()
        par, state = self.parallel, self.state
        module = get_program(self.program).compile()
        engine = Engine(module, self.spec, self.config, program=self.program)
        self._ckpt = self._make_checkpointer(engine)
        resumed = self._resumed_epoch is not None
        partitions = [] if resumed else self._split(engine)
        if not partitions and not state.rec.pending:
            # Small enough that the sequential answer is the answer — or
            # a campaign killed at/after drain: every partition was
            # accepted, only the final commit is left to redo.
            return self._assemble(engine, start)

        # One scheduler's score ranks every partition decision of this
        # run: split partitions, stolen/requeued partitions, and
        # steal-victim choice.  Its corpus signal is the store's
        # coverage index, the one the search strategies read.
        state.sched = PartitionScheduler(engine.corpus_covered, policy=par.dispatch)
        for part in partitions:
            state.push(part)
        if not resumed:
            # The campaign's first epoch: a coordinator killed between
            # here and the first completion resumes with the whole
            # frontier pending and nothing re-split.
            self._checkpoint("split")
            self._fault_event("split", -1, None)

        if par.backend == "inline":
            payloads = self._run_inline(module)
        else:
            if engine.commits_to_store:
                from ..store import ArrivalReplay, spec_fingerprint

                self._arrivals = ArrivalReplay(
                    module,
                    engine.store.test_keys(self.program, spec_fingerprint(self.spec)),
                )
            transport = self._make_transport()
            transport.start()
            try:
                payloads = self._run_transport(transport)
            finally:
                transport.close()
        return self._assemble(engine, start, payloads)

    # -- helpers -----------------------------------------------------------------

    def _split(self, engine: Engine) -> list[Partition]:
        """Explore sequentially until the frontier is wide enough, freeze
        the split phase's contribution, export the frontier."""
        par, state = self.parallel, self.state
        engine.seed_states([engine.make_initial_state()])
        if par.workers == 1:
            # Sequential mode: the same loop, no split interrupt, no
            # fleet (whatever a tripped budget leaves behind stays
            # unexplored, as in any sequential run).
            engine.explore()
            frontier = []
        else:
            target = par.workers * PARTITION_FACTOR
            engine.explore(
                interrupt=lambda eng: len(eng.worklist) >= target
                or eng.stats.blocks_executed >= SPLIT_MAX_STEPS
            )
            frontier = engine.export_frontier(len(engine.worklist))
        # Nothing mutates the split engine past this point, so this one
        # snapshot serves every checkpoint record *and* the final
        # assembly — they can never disagree.
        rec = state.rec
        rec.split_entry = ("coordinator", copy.deepcopy(engine.stats))
        rec.split_tests = list(engine.tests.cases)
        rec.split_covered = set(engine.coverage.covered)
        rec.store_payload = engine.export_store_payload(drain=False)
        return [
            Partition.from_state(state.alloc_pid(), s, "split") for s in frontier
        ]

    def _make_transport(self):
        """Resolve ParallelConfig.backend to a fleet: the same transport
        either way, obtaining its connections by forking over socketpairs
        ('process') or by listening ('socket')."""
        from ..remote.transport import SocketTransport

        par, config = self.parallel, self.config
        listen = par.backend == "socket"
        if listen and not par.spawn_workers and config.store_path:
            # External workers cannot reach the coordinator's store file;
            # strip the path so they run storeless instead of creating an
            # empty store at a bogus path.  (Local workers keep it and
            # open read-only.)
            config = dataclasses.replace(config, store_path=None)
        return SocketTransport(
            par.workers, self.program, self.spec, config,
            listen=listen, host=par.socket_host, port=par.socket_port,
            spawn_workers=par.spawn_workers,
            heartbeat_interval=par.heartbeat_interval,
            heartbeat_timeout=par.heartbeat_timeout,
            accept_timeout=par.accept_timeout,
            join_timeout=par.join_timeout,
        )

    def _fault_event(self, event: str, wid: int, transport, pid: int | None = None) -> None:
        if self.fault_injector is not None:
            self.fault_injector(event, wid, transport, pid)

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
        # A resume continues the loaded record's epochs and test batches.
        return CampaignCheckpointer(store, par.campaign_id, self.state.rec)

    def _checkpoint(self, phase: str) -> None:
        """Persist one campaign epoch (no-op without a campaign identity)."""
        if self._ckpt is not None:
            self._ckpt.save(self.state.to_record(phase))

    def _assemble(
        self, engine: Engine, start: float, store_payloads: list | None = None
    ) -> ParallelResult:
        rec = self.state.rec
        # Ledger order: the frozen split-phase entry (on a resume the
        # same snapshot every checkpoint carried, so the coordinator
        # entry is byte-identical to the original's), then every worker
        # of every fleet generation — each accepted delta summed exactly
        # once.
        ledger = [rec.split_entry, *rec.worker_entries]
        tests = TestSuite(self.spec, cases=rec.split_tests + rec.tests)
        merged_stats = Stats.merged(stats for _, stats in ledger)
        payloads = list(store_payloads or [])
        if self._resumed_epoch is not None:
            # The split engine's buffered inserts, in place of the tier
            # the crash took with it (a fresh run's engine still holds
            # them and commits them itself).
            payloads.insert(0, rec.store_payload)
        # The single store writer is the split engine's own commit; the
        # campaign's checkpoint rows go in the same transaction, so a
        # completed campaign is unresumable atomically with its results
        # becoming durable.
        ckpt = self._ckpt
        engine.commit_to_store(
            stats=merged_stats,
            tests=tests,
            payloads=payloads,
            in_transaction=ckpt and (lambda store: store.delete_campaign(ckpt.campaign)),
            coverage_of=None if self._arrivals is None else self._arrivals.coverage,
        )
        return ParallelResult(
            program=self.program,
            spec=self.spec,
            config=self.config,
            parallel=self.parallel,
            stats=merged_stats,
            tests=tests,
            covered=rec.split_covered | rec.covered,
            ledger=ledger,
            partitions=rec.next_pid,
            steals=rec.steals,
            wall_time=time.perf_counter() - start,
            streamed_paths=rec.streamed_paths,
            imbalance=_worker_imbalance(rec.worker_entries),
            partition_results=list(rec.partition_results),
            requeues=list(rec.requeue_log),
            workers_lost=rec.workers_lost,
            campaign_id=self.parallel.campaign_id,
            checkpoint_epoch=self._ckpt.epoch if self._ckpt is not None else 0,
            resumed_epoch=self._resumed_epoch,
            restored_partitions=self._restored_partitions,
            store_warning=engine.store_warning,
        )

    # -- inline backend -----------------------------------------------------------

    def _run_inline(self, module) -> list:
        """Run the partition protocol over in-process engines, in
        scheduler order; returns the engines' store payloads.

        Exercises the exact same snapshot/seed/explore/merge machinery as
        a worker fleet, minus the IPC — deterministic and fork-free, so
        it doubles as the reference for differential tests and for the
        `sched` ablation (partitions complete exactly in dispatch order
        here, making paths-to-coverage-target a pure function of the
        dispatch policy).
        """
        state = self.state
        state.begin(())  # no fleet; rejoins what a loaded record held pending
        engines = [
            make_worker_engine(self.program, module, self.spec, self.config)
            for _ in range(self.parallel.workers)
        ]
        for i, part in enumerate(state.sched.order(())):
            engine = engines[i % len(engines)]
            state.accept(part, *run_partition(engine, part.pid, part.snapshot))
        payloads: list = []
        for i, engine in enumerate(engines):
            state.rec.worker_entries.append((f"worker-{i}", engine.stats))
            payloads.append(engine.export_store_payload())
            engine.close_store()
        return payloads

    # -- worker fleets ---------------------------------------------------------------

    def _replay_arrivals(self) -> None:
        """Replay the tests accepted since the last call.  Called after a
        message's actions are performed, so the lease it freed is already
        out again and no worker waits on the replay."""
        if self._arrivals is None:
            return
        tests = self.state.rec.tests
        self._arrivals.add(tests[self._arrived:])
        self._arrived = len(tests)

    def _run_transport(self, transport) -> list:
        """The I/O shell around :class:`CampaignState`: feed it worker
        deaths and messages, perform the actions it returns, drain.
        Returns the workers' store payloads.

        Drives any transport exposing the duck type documented in
        :mod:`repro.remote.transport`.
        """
        par, state = self.parallel, self.state

        def perform(actions) -> None:
            for verb, *args in actions:
                if verb == CHECKPOINT:
                    self._checkpoint(*args)
                elif verb == FENCE:
                    transport.fence(*args)
                else:
                    wid, msg = args
                    if msg[0] == TASK_PARTITION:
                        self._fault_event("lease", wid, transport, msg[1])
                    send = transport.send_task if verb == SEND_TASK else transport.send_cmd
                    try:
                        send(*args)
                    except OSError:
                        pass  # the peer died; the death sweep revokes its lease

        def handle(msg) -> None:
            kind, wid = msg[0], msg[1]
            if kind == MSG_ERROR and wid not in state.fenced:
                raise WorkerCrashError(f"parallel worker {wid} failed:\n{msg[2]}")
            actions = state.on_message(msg)
            if actions is not None:
                perform(actions)
                if kind in (MSG_START, MSG_DONE):
                    # The chaos hook's event names are the message tags.
                    self._fault_event(kind, wid, transport, msg[2])

        perform(state.begin(transport.worker_ids))
        if self._arrivals is not None:
            # The first leases are out: replay what the split phase (or a
            # loaded record) accepted while the fleet starts on them.
            self._arrivals.add(state.rec.split_tests)
        self._replay_arrivals()
        while state.pending:
            for wid, reason in transport.dead_workers():
                perform(state.on_death(wid, reason))
                if not state.alive():
                    raise WorkerCrashError(
                        f"all {par.workers} workers lost; last was worker "
                        f"{wid} ({reason})"
                    )
            msg = transport.recv(par.poll_timeout)
            if msg is not None:
                handle(msg)
            self._replay_arrivals()

        # Drain: stop every surviving worker and collect its final stats
        # message (which carries the buffered store inserts — the
        # coordinator is the single store writer).  The drain checkpoint
        # has no pending partitions: a coordinator killed past this point
        # resumes straight to the final store commit.
        self._checkpoint("drain")
        self._fault_event("drain", -1, transport)
        perform(state.stop())
        deadline = time.monotonic() + par.join_timeout
        while missing := state.unacked():
            if time.monotonic() > deadline:
                raise WorkerCrashError(
                    f"workers {missing} never reported final stats"
                )
            msg = transport.recv(min(par.poll_timeout, 0.25))
            if msg is not None:
                # Late MSG_STOLEN stragglers are legal and discarded:
                # every partition was already accepted.
                handle(msg)
                continue
            # A worker dying between its last partition and the stop ack
            # loses only its store buffer; its ledger contribution is
            # already in the accepted deltas.
            for wid, reason in transport.dead_workers():
                perform(state.on_death(wid, reason))
        return [state.payloads.get(wid) for wid in state.workers]


def _worker_imbalance(worker_entries: list[tuple[str, Stats]]) -> float:
    """Max/mean of per-worker completed paths (1.0 = perfectly level).

    Path counts rather than CPU seconds: they are deterministic (the
    inline backend and tests can pin them).  Runs with fewer than two workers — or where no
    worker completed a path — report 1.0, the neutral value.
    """
    counts = [stats.paths_completed for _, stats in worker_entries]
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

    Engine budgets (``max_steps``/``time_budget``) apply
    *per participant* — the coordinator's split phase and each worker
    enforce them independently, so an N-worker run may spend up to N+1
    times the sequential budget.  A tripped budget sets ``timed_out`` in
    the merged stats; the affected worker finishes cleanly but leaves its
    remaining frontier unexplored, exactly like a sequential run.
    """
    spec = get_program(program).spec(n_args, arg_len)
    config = EngineConfig(
        merging=merging, similarity=similarity, strategy=strategy, **engine_kwargs
    )
    if parallel is None:
        parallel = ParallelConfig(workers=workers)
    coordinator = Coordinator(program, spec, config, parallel)
    return coordinator.run()

"""The worker side of the parallel subsystem.

Each worker process owns a full :class:`~repro.engine.executor.Engine`
(with its own :class:`~repro.solver.portfolio.IncrementalChain`, so
blasting and clause learning amortize across every partition the worker
explores) and loops over the task channel: restore a partition's
snapshot, seed it, explore until the frontier drains.  A steal request on
the out-of-band command channel interrupts exploration at the next
partition-boundary hook; the worker exports roughly half its frontier and
resumes on the rest.

Per-partition results (new tests, newly covered blocks, completed paths,
and the engine's cumulative stats record, which ``put`` encodes on the
spot) stream back as they finish; on shutdown the worker ships its
buffered store inserts.  ``worker_main`` is the single entry point: it
serves one :class:`~repro.remote.client.WorkerSession`, whether that
session's socket was dialed or inherited from a forking coordinator.
"""

from __future__ import annotations

import dataclasses
import queue
import traceback

from ..engine.executor import Engine
from ..env.argv import ArgvSpec
from ..programs.registry import get_program
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
)

# How many engine steps pass between polls of the command queue.  Polling
# is a syscall; the engine step is the expensive unit, so a small stride
# keeps steal latency low without measurable overhead.
STEAL_POLL_STRIDE = 16


def _make_interrupt(cmd_q, pid: int):
    """Partition-boundary hook: True when a steal request is pending.

    Steal requests are tagged with the partition they target; a stale
    request aimed at an already-finished partition (it can sit in the
    command queue while the worker idles) is consumed and ignored rather
    than spuriously splitting the next partition's fresh frontier.
    """
    countdown = STEAL_POLL_STRIDE

    def check(_engine) -> bool:
        nonlocal countdown
        countdown -= 1
        if countdown > 0:
            return False
        countdown = STEAL_POLL_STRIDE
        try:
            msg = cmd_q.get_nowait()
        except queue.Empty:
            return False
        return bool(msg) and msg[0] == CMD_STEAL and msg[1] == pid

    return check


def _export_rows(states, pid: int, origin: str) -> list:
    """Serialize frontier states as :class:`Partition` rows, filed under
    the partition they were split off."""
    return [
        dataclasses.astuple(Partition.from_state(pid, s, origin)) for s in states
    ]


def make_worker_engine(program: str, module, spec: ArgvSpec, config) -> Engine:
    """The engine every partition runner owns — forked, dialed or inline."""
    if config.store_path:
        # Store invariant: the split engine is the single writer.  The
        # worker opens read-only (the coordinator created the file
        # before spawning us) and ships its buffered inserts with the
        # final stats message.
        config = dataclasses.replace(config, store_readonly=True)
    engine = Engine(module, spec, config, program=program)
    # The fleet owns the cores: test generation solves in-process.
    engine.testgen_helper = False
    # Seeded states are transferred from the coordinator's ledger, not
    # created here; start this worker's creation counter at zero so
    # per-worker stats sum exactly to the merged ledger.
    engine.stats.states_created = 0
    return engine


def run_partition(
    engine: Engine,
    pid: int,
    snapshot: bytes,
    cmd_q=None,
    result_q=None,
    worker_id: int = 0,
):
    """Explore one partition to exhaustion, honouring steal requests
    (none without a ``cmd_q``: the inline backend).

    Returns (new_tests, new_coverage, paths_delta) for the done message.

    Every steal reply also checkpoints the *retained* frontier plus the
    partition's interim results, so the coordinator can recover the exact
    remaining work if this worker later dies: interim results stand in
    for the pre-steal paths, the retained snapshots requeue the rest, and
    nothing is lost or explored twice.
    """
    tests_before = len(engine.tests.cases)
    covered_before = set(engine.coverage.covered)
    paths_before = engine.stats.paths_completed

    def results():
        return (
            list(engine.tests.cases[tests_before:]),
            engine.coverage.covered - covered_before,
            engine.stats.paths_completed - paths_before,
        )

    engine.seed_snapshot(snapshot)
    interrupt = _make_interrupt(cmd_q, pid) if cmd_q is not None else None
    # Budgets (max_steps/time_budget) are cumulative per
    # worker: once tripped — on this partition or an earlier one — the
    # worker stops exploring, mirroring what a sequential run does when
    # its budget dies mid-worklist.  The merged stats carry timed_out.
    while engine.worklist and not engine.stats.timed_out:
        engine.explore(interrupt=interrupt)
        if engine.interrupted:
            # A consumed steal request is always answered (possibly with
            # nothing), so the coordinator's accounting stays exact.
            # Keep at least one state locally: the thief gets the far
            # frontier, we keep making progress on the near one.  Each
            # exported state ships as a full partition row — the
            # coordinator re-queues stolen work through the same priority
            # scheduler as split partitions, without decoding snapshots.
            stolen = _export_rows(
                engine.export_frontier(len(engine.worklist) // 2),
                pid, f"steal:{worker_id}",
            )
            retained = _export_rows(engine.worklist, pid, f"requeue:{worker_id}")
            result_q.put((MSG_STOLEN, worker_id, stolen, retained,
                          (*results(), engine.stats)))
    return results()


def worker_main(session) -> None:
    """Serve one campaign over ``session``: its handshake named the
    worker id, program, spec and config; ``task_q``/``cmd_q`` deliver
    the coordinator's frames and ``put`` sends ours."""
    worker_id = session.wid
    try:
        engine = make_worker_engine(
            session.program,
            get_program(session.program).compile(),
            session.spec,
            session.config,
        )
        while True:
            msg = session.task_q.get()
            if msg[0] == TASK_STOP:
                session.put(
                    (MSG_STATS, worker_id, engine.stats, engine.export_store_payload())
                )
                engine.close_store()
                return
            if msg[0] != TASK_PARTITION:
                raise ValueError(f"unknown task {msg[0]!r}")
            pid, snapshot = msg[1], msg[2]
            session.put((MSG_START, worker_id, pid))
            results = run_partition(
                engine, pid, snapshot, session.cmd_q, session, worker_id
            )
            session.put((MSG_DONE, worker_id, pid, *results, engine.stats))
    except BaseException:  # noqa: BLE001 — ship the traceback, then die
        session.put((MSG_ERROR, worker_id, traceback.format_exc()))
        raise

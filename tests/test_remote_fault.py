"""Fault-tolerance tests: crash recovery, fencing, poison guard.

Two layers of coverage:

* **Integration/chaos** — real campaigns on both ways of obtaining
  worker connections (``backend="process"``: forked over socketpairs;
  ``backend="socket"``: dialing a TCP listener) with a worker SIGKILLed,
  terminated or disconnected mid-run via the coordinator's
  ``fault_injector`` hook.  The recovered run must emit the identical
  plain-mode test multiset and coverage as an undisturbed 1-worker run,
  with ``check_ledger()`` holding (revoked partial results discarded,
  never double-counted).
* **Scripted transports** — deterministic fakes driving
  ``Coordinator._run_transport`` directly, pinning the lease-layer edge
  cases: a steal victim dying with the request in flight (the old code
  would wait on the reply forever), a poison partition that kills every
  owner, and the whole fleet dying.

Plus the teardown regression: a fleet's socket ends, reader threads and
processes are released by ``close()``, and a purely local run opens no
listening socket.
"""

import os
import random
import signal
import socket
from collections import Counter, deque

import pytest

from repro.engine.executor import EngineConfig
from repro.env.argv import ArgvSpec
from repro.experiments.harness import same_exploration
from repro.parallel import (
    Coordinator,
    ParallelConfig,
    Partition,
    WorkerCrashError,
    run_parallel,
)
from repro.parallel.wire import (
    CMD_STEAL,
    MSG_DONE,
    MSG_START,
    MSG_STATS,
    TASK_PARTITION,
    TASK_STOP,
)
from repro.programs.registry import get_program
from repro.sched import PartitionScheduler
from repro.stats import Stats


@pytest.fixture(scope="module")
def wc_sequential():
    return run_parallel("wc", workers=1)


def make_coordinator(workers=2, backend="socket", program="wc", **kw):
    info = get_program(program)
    spec = ArgvSpec(n_args=info.default_n, arg_len=info.default_l,
                    stdin_len=info.default_stdin)
    return Coordinator(
        program, spec, EngineConfig(),
        ParallelConfig(workers=workers, backend=backend, **kw),
    )


# -- integration: real campaigns with injected faults ----------------------------


BACKENDS = ["process", "socket"]


def _kill_at_first_start(backend, sig, baseline):
    coord = make_coordinator(backend=backend, heartbeat_timeout=3.0)
    killed = []

    def chaos(event, wid, transport, pid=None):
        if event == "start" and not killed:
            killed.append(wid)
            transport.kill(wid, sig)

    coord.fault_injector = chaos
    result = coord.run()
    assert killed, "fault injector never fired"
    assert result.workers_lost == 1
    assert result.requeue_count >= 1
    result.check_ledger()
    same_exploration(baseline, result, f"{backend} campaign after a kill")


def test_socket_worker_sigkill_recovers(wc_sequential):
    """SIGKILL a worker right after it starts its first partition: the
    lease is revoked, the partition requeued, and the surviving worker
    finishes the identical campaign."""
    _kill_at_first_start("socket", signal.SIGKILL, wc_sequential)


def test_fork_worker_sigkill_recovers(wc_sequential):
    """The same law for a forked worker on a socketpair.  (Before the
    fork backend had leases this aborted the run with a named
    WorkerCrashError — itself the fix for a hang.)"""
    _kill_at_first_start("process", signal.SIGKILL, wc_sequential)


def test_fork_worker_silent_death_recovers(wc_sequential):
    """A worker that exits without an MSG_ERROR (SIGTERM stands in for
    any silent death) is detected by its EOF while work is still
    outstanding, and recovered like any other."""
    _kill_at_first_start("process", signal.SIGTERM, wc_sequential)


@pytest.mark.parametrize("program", ["wc", "uniq"])
def test_socket_worker_sigkill_after_done_recovers(program, wc_sequential):
    """SIGKILL a dialed worker right after its first completion: the
    partition it finished stays accepted, the one it was leased in reply
    is requeued, and the survivor finishes the identical campaign."""
    baseline = wc_sequential if program == "wc" else run_parallel(program, workers=1)
    coord = make_coordinator(program=program, heartbeat_timeout=3.0)
    killed = []

    def chaos(event, wid, transport, pid=None):
        if event == "done" and not killed:
            killed.append(wid)
            transport.kill(wid)

    coord.fault_injector = chaos
    result = coord.run()
    assert killed, "no partition completed"
    assert result.workers_lost == 1
    assert result.requeue_count >= 1
    result.check_ledger()
    same_exploration(baseline, result, f"{program} campaign after a kill at done")


@pytest.mark.parametrize("backend", BACKENDS)
def test_worker_disconnect_recovers(backend, wc_sequential):
    """Drop a worker's connection (simulated network partition) without
    touching its process: same recovery path, and the abandoned worker's
    late results are discarded at the fence, never double-counted."""
    coord = make_coordinator(backend=backend, heartbeat_timeout=3.0)
    dropped = []

    def chaos(event, wid, transport, pid=None):
        if event == "start" and not dropped:
            dropped.append(wid)
            transport.disconnect(wid)

    coord.fault_injector = chaos
    result = coord.run()
    assert dropped
    assert result.workers_lost == 1
    result.check_ledger()
    same_exploration(wc_sequential, result, f"{backend} campaign after a disconnect")


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", [0, 1])
def test_chaos_random_fault_point(seed, backend, wc_sequential):
    """The chaos harness: fault one worker at a pseudo-random protocol
    event (kill or disconnect; lease, start or done; random event index).  The
    recovered campaign must be indistinguishable from an undisturbed
    run — identical test multiset, identical coverage, ledger intact."""
    rng = random.Random(seed)
    fault_at = rng.randrange(0, 6)
    method = rng.choice(["kill", "disconnect"])
    coord = make_coordinator(backend=backend, heartbeat_timeout=3.0)
    events = []
    faulted = []

    def chaos(event, wid, transport, pid=None):
        events.append((event, wid))
        if len(events) - 1 == fault_at and not faulted:
            faulted.append((method, event, wid))
            getattr(transport, method)(wid)

    coord.fault_injector = chaos
    result = coord.run()
    # Small campaigns can finish before a late fault point arrives — the
    # run must be correct either way, but only claim recovery coverage
    # when the fault actually fired.
    if faulted:
        assert result.workers_lost == 1
    result.check_ledger()
    same_exploration(wc_sequential, result, f"{backend} campaign after {faulted}")


def test_poison_partition_dropped_end_to_end(wc_sequential):
    """Real socket campaign with a poison partition: whoever is leased it
    (or any of its requeued descendants) is SIGKILLed before the task
    leaves the coordinator — at the ``start`` event the kill raced the
    worker's own ``MSG_DONE`` on a partition that takes a millisecond, and
    when ``DONE`` won the poison lineage ended a generation early.  After
    the cap the partition is dropped by name, the campaign terminates, and
    the survivors' ledger is clean — the only loss is the dropped
    subtree's own tests."""
    coord = make_coordinator(workers=4, heartbeat_timeout=3.0, steal=False,
                             max_partition_requeues=2)
    state = {"target": None, "threshold": None}

    def chaos(event, wid, transport, pid=None):
        if event != "lease":
            return
        if state["target"] is None:
            # Poison the first-leased partition.  Its requeued
            # descendants are the only partitions allocated after this
            # instant (steal is off), so the pid threshold tracks the
            # whole poison lineage across requeues.
            state["target"] = pid
            state["threshold"] = coord.state.rec.next_pid
        if pid == state["target"] or pid >= state["threshold"]:
            transport.kill(wid)

    coord.fault_injector = chaos
    result = coord.run()
    result.check_ledger()
    assert result.workers_lost == 3  # original owner + 2 requeue owners
    assert result.requeue_count == 2
    dropped = result.dropped_partitions
    assert len(dropped) == 1
    assert dropped[0]["revocations"] == 3
    # The survivors' output is a strict subset of the undisturbed run:
    # nothing double-counted, only the dropped subtree missing.
    base = Counter(wc_sequential.tests.multiset())
    ours = Counter(result.tests.multiset())
    assert ours != base
    assert all(base[key] >= count for key, count in ours.items())
    assert result.covered <= wc_sequential.covered


# -- scripted transports: deterministic lease-layer edge cases -------------------


def _blob_partition(coord, tag):
    return Partition(coord.state.alloc_pid(), tag, "split", 1, "main", "entry", 1)


class ScriptedTransport:
    """A transport whose workers are script fragments."""

    def __init__(self, workers):
        self.worker_ids = list(range(workers))
        self.out = deque()
        self.deaths = deque()
        self.fenced = set()
        self.steals_sent = []
        self.recv_calls = 0

    def start(self):
        pass

    def send_cmd(self, wid, msg):
        self.steals_sent.append((wid, msg))

    def recv(self, timeout):
        self.recv_calls += 1
        # A scripted run exchanges tens of messages; thousands means the
        # event loop is spinning on a lease it will never resolve — the
        # exact hang these tests exist to prevent.  Fail, don't freeze.
        assert self.recv_calls < 5000, "event loop is spinning (lease leak?)"
        return self.out.popleft() if self.out else None

    def dead_workers(self):
        dead = list(self.deaths)
        self.deaths.clear()
        return dead

    def fence(self, wid):
        self.fenced.add(wid)

    def close(self):
        pass

    # script helpers
    def worker_finishes(self, wid, pid, paths=1):
        self.out.append((MSG_DONE, wid, pid, [], set(), paths, Stats.merged(())))

    def worker_reports_stats(self, wid):
        self.out.append((MSG_STATS, wid, Stats.merged(()), None))


def _scripted_coordinator(workers, **kw):
    coord = make_coordinator(
        workers=workers, poll_timeout=0.01, join_timeout=5.0, **kw
    )
    coord.state.sched = PartitionScheduler(set(), policy="fifo")
    return coord


def _run_scripted(coord, parts, transport):
    """Queue ``parts``, drive the select loop over the scripted fleet,
    and hand back the campaign record the run accumulated into."""
    for part in parts:
        coord.state.push(part)
    coord._run_transport(transport)
    return coord.state.rec


def _requeues(rec):
    return sum(entry["kind"] == "requeue" for entry in rec.requeue_log)


def test_steal_victim_death_releases_bookkeeping():
    """A CMD_STEAL sent to a worker that dies before replying must not
    leave the coordinator waiting on the reply forever: fencing clears
    the in-flight steal and the victim's lease is requeued."""

    class T(ScriptedTransport):
        def send_task(self, wid, msg):
            if msg[0] == TASK_PARTITION:
                pid = msg[1]
                self.out.append((MSG_START, wid, pid))
                if wid == 1:  # worker 1 is fast; worker 0 never finishes
                    self.worker_finishes(wid, pid)
            elif msg[0] == TASK_STOP:
                self.worker_reports_stats(wid)

        def send_cmd(self, wid, msg):
            super().send_cmd(wid, msg)
            # The victim dies with the steal request in flight.
            self.deaths.append((wid, "SIGKILL during steal"))

    coord = _scripted_coordinator(workers=2)
    transport = T(2)
    parts = [_blob_partition(coord, b"p0"), _blob_partition(coord, b"p1")]
    rec = _run_scripted(coord, parts, transport)
    assert transport.steals_sent and transport.steals_sent[0][1][0] == CMD_STEAL
    assert transport.fenced == {0}
    assert rec.workers_lost == 1
    assert _requeues(rec) == 1
    assert rec.streamed_paths == 2  # both completed, one after requeue
    assert {origin for _, origin, _, _ in rec.partition_results} == {
        "split", "requeue:0"}
    assert len(rec.worker_entries) == 2  # a fenced worker still gets a row
    dead_entry = rec.worker_entries[0]
    assert dead_entry[1].paths_completed == 0  # ...with nothing accepted


def test_poison_partition_dropped_by_name():
    """A partition that kills every owner must stop being requeued after
    max_partition_requeues revocations: it is dropped with a named event
    in the requeue log and the campaign completes for the survivors."""

    class T(ScriptedTransport):
        def send_task(self, wid, msg):
            if msg[0] == TASK_PARTITION:
                self.out.append((MSG_START, wid, msg[1]))
                self.deaths.append((wid, "segfault"))
            elif msg[0] == TASK_STOP:
                self.worker_reports_stats(wid)

    coord = _scripted_coordinator(workers=5, max_partition_requeues=3)
    transport = T(5)
    parts = [_blob_partition(coord, b"poison")]
    rec = _run_scripted(coord, parts, transport)
    # 4 owners died (the original lease + 3 requeues), then the cap hit.
    assert rec.workers_lost == 4
    assert rec.streamed_paths == 0 and rec.partition_results == []
    kinds = [entry["kind"] for entry in rec.requeue_log]
    assert kinds == ["requeue", "requeue", "requeue", "dropped"]
    dropped = rec.requeue_log[-1]
    assert dropped["revocations"] == 4
    assert "poison" in dropped["reason"]
    assert len(rec.worker_entries) == 5  # the survivor drained cleanly


def test_whole_fleet_death_raises():
    class T(ScriptedTransport):
        def send_task(self, wid, msg):
            if msg[0] == TASK_PARTITION:
                self.out.append((MSG_START, wid, msg[1]))
                self.deaths.append((wid, "power loss"))

    coord = _scripted_coordinator(workers=2)
    transport = T(2)
    parts = [_blob_partition(coord, b"p0"), _blob_partition(coord, b"p1")]
    with pytest.raises(WorkerCrashError, match="all 2 workers lost"):
        _run_scripted(coord, parts, transport)


def test_fenced_worker_messages_are_discarded():
    """Results delivered by a worker after its lease was revoked must be
    dropped: the requeued copy is the only accepted execution, so paths
    are never double-counted."""

    class T(ScriptedTransport):
        def send_task(self, wid, msg):
            if msg[0] == TASK_PARTITION:
                pid = msg[1]
                self.out.append((MSG_START, wid, pid))
                if wid == 0 and not self.zombie_done:
                    # Worker 0 is declared dead (missed heartbeats)...
                    self.deaths.append((0, "missed heartbeats"))
                    # ...but its DONE was already in flight: it arrives
                    # *after* the death sweep fences the worker.
                    self.zombie_done = True
                    self.worker_finishes(0, pid, paths=7)
                else:
                    self.worker_finishes(wid, pid)
            elif msg[0] == TASK_STOP:
                self.worker_reports_stats(wid)

        zombie_done = False

    coord = _scripted_coordinator(workers=2)
    transport = T(2)
    parts = [_blob_partition(coord, b"p0"), _blob_partition(coord, b"p1")]
    rec = _run_scripted(coord, parts, transport)
    # The zombie's 7-path report was discarded; its partition re-ran on a
    # healthy worker and contributed exactly once.
    assert _requeues(rec) == 1
    assert rec.streamed_paths == 2
    assert sum(paths for _, _, paths, _ in rec.partition_results) == 2


# -- fleet teardown and the no-port promise ---------------------------------------


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs procfs fd listing")
def test_repeated_process_campaigns_do_not_leak_fds():
    """Back-to-back campaigns in one process must not accumulate fds:
    ``close()`` releases every socketpair end, reader thread and worker
    process (the queue pool before it had to close its feeder pipes)."""
    run_parallel("wc", workers=2)  # warm-up: imports, context, trackers
    before = _open_fds()
    for _ in range(2):
        run_parallel("wc", workers=2)
    after = _open_fds()
    assert after <= before + 1, f"fd leak: {before} -> {after}"


def test_local_run_opens_no_listening_socket(monkeypatch, wc_sequential):
    """``backend="process"`` means fork local workers and open no port:
    the TCP listener is an unauthenticated port, and a purely
    local run must not be reachable through it."""
    def no_listener(*args, **kwargs):
        raise AssertionError("a local run tried to open a listening socket")

    monkeypatch.setattr(socket, "create_server", no_listener)
    result = run_parallel("wc", workers=2)
    result.check_ledger()
    same_exploration(wc_sequential, result, "local 2-worker run")
    assert result.workers_lost == 0 and len(result.ledger) == 3

"""Durable campaigns: checkpointing, crash-resume, and retry/backoff.

The resume identity law under test: a campaign whose coordinator dies at
*any* point — after the split checkpoint, between accepted completions,
at drain — and is resumed from its newest store epoch emits the
byte-identical plain-mode test multiset and coverage as an undisturbed
run, with a clean stats ledger and with every partition completed before
the crash restored from the record rather than re-explored.

Plus the retry/backoff satellites: SQLite WAL + bounded lock retries,
graceful degradation when the store stays locked, and worker dial
backoff so fleets can start before their coordinator.
"""

import os
import signal
import socket as socket_mod
import sqlite3
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignCheckpointer,
    CampaignInterrupted,
    CampaignNotFound,
    CampaignRecord,
    load_campaign,
    new_campaign_id,
    resume_campaign,
    save_checkpoint,
)
from repro.engine.executor import EngineConfig
from repro.engine.testgen import TestCase
from repro.env.argv import ArgvSpec
from repro.env.runner import run_symbolic
from repro.experiments.harness import same_exploration
from repro.parallel import ConfigError, Coordinator, ParallelConfig, run_parallel
from repro.programs.registry import get_program
from repro.store import open_store, retry_locked
from repro.store.db import ReproStore

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def wc_sequential():
    return run_parallel("wc", workers=1)


def make_campaign_coordinator(store_path, campaign_id, **kw):
    info = get_program("wc")
    spec = ArgvSpec(n_args=info.default_n, arg_len=info.default_l,
                    stdin_len=info.default_stdin)
    kw.setdefault("workers", 2)
    kw.setdefault("heartbeat_timeout", 3.0)
    kw.setdefault("backend", "socket")
    return Coordinator(
        "wc", spec, EngineConfig(store_path=str(store_path)),
        ParallelConfig(campaign_id=campaign_id, **kw),
    )


# -- config validation (fail at construction, not mid-campaign) ------------------


def test_fault_knobs_validated_at_construction():
    with pytest.raises(ConfigError, match="heartbeat_timeout"):
        ParallelConfig(heartbeat_interval=1.0, heartbeat_timeout=1.5)
    with pytest.raises(ConfigError, match="max_partition_requeues"):
        ParallelConfig(max_partition_requeues=-1)
    with pytest.raises(ConfigError, match="checkpoint_every"):
        ParallelConfig(checkpoint_every=0)
    with pytest.raises(ConfigError, match="heartbeat_interval"):
        ParallelConfig(heartbeat_interval=0.0)
    with pytest.raises(ConfigError, match="workers"):
        ParallelConfig(workers=0)
    # ConfigError subclasses ValueError: pre-existing callers keep working.
    assert issubclass(ConfigError, ValueError)


def test_campaign_requires_socket_backend_and_store(tmp_path):
    """A campaign needs a writable store — and nothing else: every
    backend tracks the per-partition deltas a checkpoint is built from,
    so a forked-worker campaign constructs like a socket one."""
    info = get_program("wc")
    spec = ArgvSpec(n_args=info.default_n, arg_len=info.default_l)
    coord = Coordinator(
        "wc", spec, EngineConfig(store_path=str(tmp_path / "p.sqlite")),
        ParallelConfig(campaign_id="c1", backend="process"),
    )
    assert coord.state.rec.campaign == "c1"
    with pytest.raises(ConfigError, match="store_path"):
        Coordinator("wc", spec, EngineConfig(),
                    ParallelConfig(backend="socket", campaign_id="c1"))
    with pytest.raises(ConfigError, match="writable"):
        Coordinator(
            "wc", spec,
            EngineConfig(store_path=str(tmp_path / "s.sqlite"),
                         store_readonly=True),
            ParallelConfig(backend="socket", campaign_id="c1"),
        )


# -- store layer: checkpoint rows, epoch GC, WAL, retry --------------------------


def _record(campaign, epoch=0, pending=()):
    return CampaignRecord(
        campaign=campaign,
        program="wc",
        spec=ArgvSpec(n_args=1, arg_len=2, prog_name=b"wc"),
        config=EngineConfig(),
        parallel=ParallelConfig(workers=2),
        epoch=epoch,
        pending=list(pending),
    )


def test_checkpoint_roundtrip(tmp_path):
    store = open_store(tmp_path / "s.sqlite")
    rec = _record("c1", epoch=1,
                  pending=[(7, b"snapshot-bytes", "split", 3, "main", "b0", 1)])
    tests = [TestCase("path", (b"a",), (("arg1_b0", 97),), path_id="t1"),
             TestCase("assert", (b"",), (), line=3, path_id="t2")]
    rec.tests = list(tests)
    rec.covered = {("main", "b0")}
    rec.streamed_paths = 5
    save_checkpoint(store, rec)
    loaded = load_campaign(store, "c1")
    assert loaded is not None
    assert loaded.epoch == 1
    assert loaded.pending == rec.pending
    assert loaded.tests == tests
    assert (loaded.spec, loaded.config, loaded.parallel) == (rec.spec, rec.config, rec.parallel)
    assert loaded.covered == {("main", "b0")}
    assert loaded.streamed_paths == 5
    assert load_campaign(store, "nope") is None
    store.close()


def test_record_of_another_version_is_refused_by_name(monkeypatch, tmp_path):
    """A checkpoint another checkout wrote is neither guessed at nor
    skipped as if absent: loading it, and resuming from it, name the skew."""
    from repro import codec
    from repro.campaign import RecordVersionError, resume_campaign

    path = tmp_path / "s.sqlite"
    store = open_store(path)
    with monkeypatch.context() as older:
        older.setattr(codec, "FORMAT_VERSION", codec.FORMAT_VERSION - 1)
        save_checkpoint(store, _record("c1", epoch=1))
    skew = rf"format v{codec.FORMAT_VERSION - 1}, this build reads v{codec.FORMAT_VERSION}"
    with pytest.raises(RecordVersionError, match=skew):
        load_campaign(store, "c1")
    store.close()
    with pytest.raises(RecordVersionError):
        resume_campaign(path, "c1")


def test_a_campaign_none_of_whose_epochs_loads_is_refused_by_name(tmp_path):
    """A damaged newest epoch gives way to the one before it; a campaign
    whose checkpoints all fail to load is named, never reported absent."""
    from repro.campaign import RecordError

    store = open_store(tmp_path / "s.sqlite")
    for epoch in (1, 2):
        save_checkpoint(store, _record("c1", epoch=epoch))

    def damage(epoch):
        where = " WHERE campaign = 'c1' AND epoch = ?"
        (state,) = store.conn.execute(
            "SELECT state FROM checkpoints" + where, (epoch,)).fetchone()
        store.conn.execute("UPDATE checkpoints SET state = ?" + where,
                           (state[:-1] + bytes([state[-1] ^ 0x40]), epoch))
        store.conn.commit()

    damage(2)
    assert load_campaign(store, "c1").epoch == 1
    damage(1)
    with pytest.raises(RecordError, match="'c1' has checkpoints and none loads .epoch 2"):
        load_campaign(store, "c1")
    store.close()


def test_checkpoint_epoch_gc_and_blob_sharing(tmp_path):
    store = open_store(tmp_path / "s.sqlite")
    baseline_blobs = store.counts()["blobs"]
    for epoch in range(1, 5):
        # The shared snapshot is content-addressed: four epochs, one blob.
        rec = _record("c1", epoch=epoch,
                      pending=[(1, b"shared", "split", 1, "main", "b0", 1),
                               (2, f"only-{epoch}".encode(), "split", 1, "main", "b0", 1)])
        save_checkpoint(store, rec)
    assert store.checkpoint_epochs("c1") == [3, 4]
    assert store.campaign_ids() == ["c1"]
    # GC swept the per-epoch blobs of epochs 1-2 but kept the shared one.
    blobs = store.counts()["blobs"]
    assert blobs == baseline_blobs + 3  # shared + only-3 + only-4
    loaded = load_campaign(store, "c1")
    assert loaded.epoch == 4
    store.delete_campaign("c1")
    assert store.checkpoint_epochs("c1") == []
    assert store.campaign_ids() == []
    assert store.counts()["blobs"] == baseline_blobs
    store.close()


def test_store_uses_wal_and_busy_timeout(tmp_path):
    store = open_store(tmp_path / "s.sqlite")
    assert store.conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
    assert store.conn.execute("PRAGMA busy_timeout").fetchone()[0] >= 1000
    store.close()


def test_retry_locked_backs_off_then_succeeds():
    calls = []

    def flaky():
        calls.append(1)
        if len(calls) < 3:
            raise sqlite3.OperationalError("database is locked")
        return 7

    assert retry_locked(flaky, attempts=5, base_delay=0.001) == 7
    assert len(calls) == 3


def test_retry_locked_propagates_other_errors():
    def broken():
        raise sqlite3.OperationalError("no such table: nope")

    with pytest.raises(sqlite3.OperationalError, match="no such table"):
        retry_locked(broken, attempts=5, base_delay=0.001)


def _two_workers(backend):
    return lambda **kw: run_parallel(
        "wc", parallel=ParallelConfig(workers=2, backend=backend), **kw)


# Every way a run reaches the end-of-run store commit: the sequential
# engine, the degenerate 1-worker split, and a partitioned run in-process
# and over forked workers.  All four go through Engine.commit_to_store.
COMMITTERS = {
    "sequential": lambda **kw: run_symbolic("wc", **kw),
    "workers1": lambda **kw: run_parallel("wc", workers=1, **kw),
    "inline": _two_workers("inline"),
    "process": _two_workers("process"),
}


@pytest.mark.parametrize("runner", COMMITTERS)
def test_locked_store_degrades_with_warning(runner, tmp_path, monkeypatch,
                                            wc_sequential):
    """A store that stays locked past the retry budget must not fail the
    run: results come back complete with a named store_warning.  Any
    other store error is not swallowed."""
    def failing(message):
        def record_run(self, *a, **kw):
            raise sqlite3.OperationalError(message)
        return record_run

    path = str(tmp_path / "s.sqlite")
    monkeypatch.setattr(ReproStore, "record_run", failing("database is locked"))
    result = COMMITTERS[runner](store_path=path)
    warning = (result.engine if runner == "sequential" else result).store_warning
    assert warning == (
        f"store commit skipped: {path!r} stayed locked past the retry budget "
        "(database is locked); run results are complete, only the cross-run "
        "cache/corpus update was lost"
    )
    same_exploration(wc_sequential, result, f"{runner} with a locked store")

    monkeypatch.setattr(ReproStore, "record_run", failing("no such table: runs"))
    with pytest.raises(sqlite3.OperationalError, match="no such table"):
        COMMITTERS[runner](store_path=path)


# -- scheduler: non-draining pending() -------------------------------------------


def test_scheduler_pending_is_nondestructive():
    from repro.parallel.partition import Partition
    from repro.sched import PartitionScheduler

    sched = PartitionScheduler(policy="fifo")
    parts = [Partition(pid, b"x", "split", 1, "main", "entry", 1) for pid in (2, 0, 1)]
    for part in parts:
        sched.push(part)
    pend = sched.pending()
    assert [p.pid for p in pend] == [0, 1, 2]
    assert len(sched) == 3  # heap untouched
    assert sched.pop().pid == 0


# -- the resume identity law -----------------------------------------------------


@pytest.mark.parametrize("backend", ["process", "socket"])
@pytest.mark.parametrize("event,nth", [("split", 1), ("done", 1), ("done", 3),
                                       ("drain", 1)])
def test_resume_identity_after_coordinator_kill(event, nth, backend, tmp_path,
                                                wc_sequential):
    """Kill the coordinator (in-process stand-in for SIGKILL) at a given
    campaign phase; the resumed campaign must be indistinguishable from
    an undisturbed run — whichever way the fleet's connections are made
    (the resume reads the backend from the record)."""
    store_path = tmp_path / "s.sqlite"
    campaign_id = new_campaign_id()
    coord = make_campaign_coordinator(store_path, campaign_id, backend=backend)
    seen = [0]

    def chaos(ev, wid, transport, pid=None):
        if ev == event:
            seen[0] += 1
            if seen[0] == nth:
                raise CampaignInterrupted(f"{event}:{nth}")

    coord.fault_injector = chaos
    with pytest.raises(CampaignInterrupted):
        coord.run()
    result = resume_campaign(store_path, campaign_id)
    result.check_ledger()
    same_exploration(wc_sequential, result, f"resume after a kill at {event}:{nth}")
    assert result.resumed_epoch is not None and result.resumed_epoch >= 1
    # Completed partitions were restored, not re-explored.
    if event == "done":
        assert result.restored_partitions >= nth
    if event == "drain":
        assert result.restored_partitions == result.partitions
    # The completed campaign cleaned up its checkpoints.
    store = open_store(store_path, readonly=True)
    assert campaign_id not in store.campaign_ids()
    store.close()


def test_resume_unknown_campaign_raises(tmp_path):
    store = open_store(tmp_path / "s.sqlite")
    store.close()
    with pytest.raises(CampaignNotFound, match="nope"):
        resume_campaign(tmp_path / "s.sqlite", "nope")


def test_clean_campaign_checkpoints_and_cleans_up(tmp_path, wc_sequential):
    store_path = tmp_path / "s.sqlite"
    coord = make_campaign_coordinator(store_path, "cclean")
    result = coord.run()
    result.check_ledger()
    assert result.campaign_id == "cclean"
    assert result.checkpoint_epoch >= 2  # at least split + drain
    assert result.resumed_epoch is None and result.restored_partitions == 0
    same_exploration(wc_sequential, result, "clean campaign")
    store = open_store(store_path, readonly=True)
    assert store.campaign_ids() == []
    store.close()


def test_checkpoint_cadence_reduces_epochs(tmp_path):
    """checkpoint_every=N suppresses per-completion epochs (requeue,
    steal, and drain checkpoints always fire)."""
    eager = make_campaign_coordinator(tmp_path / "a.sqlite", "ca",
                                      checkpoint_every=1, steal=False).run()
    lazy = make_campaign_coordinator(tmp_path / "b.sqlite", "cb",
                                     checkpoint_every=100, steal=False).run()
    assert eager.partitions == lazy.partitions
    # eager: split + one per completion + drain; lazy: split + drain.
    assert eager.checkpoint_epoch == 2 + eager.partitions
    assert lazy.checkpoint_epoch == 2


def test_checkpointer_epochs_monotonic_across_resume(tmp_path):
    store = open_store(tmp_path / "s.sqlite")
    ckpt = CampaignCheckpointer(store, "c1")
    assert ckpt.save(_record("c1")) == 1
    assert ckpt.save(_record("c1")) == 2
    loaded = load_campaign(store, "c1")
    resumed = CampaignCheckpointer(store, "c1")
    resumed.epoch = loaded.epoch
    assert resumed.save(_record("c1")) == 3
    assert store.checkpoint_epochs("c1") == [2, 3]
    store.close()


# -- worker dial backoff ---------------------------------------------------------


def test_worker_connect_retries_until_listener_appears():
    """Workers may start before the coordinator: connect() must keep
    re-dialing with backoff until the listener binds."""
    from repro.parallel.wire import MSG_HELLO, MSG_WELCOME
    from repro.remote import connect, recv_frame, send_frame

    probe = socket_mod.create_server(("127.0.0.1", 0))
    host, port = probe.getsockname()[:2]
    probe.close()  # nothing listening at this port now

    def late_listener():
        time.sleep(0.5)
        server = socket_mod.create_server(("127.0.0.1", port))
        conn, _ = server.accept()
        hello = recv_frame(conn)
        assert hello[0] == MSG_HELLO
        send_frame(conn, (MSG_WELCOME, 0, "wc", get_program("wc").spec(), EngineConfig()))
        time.sleep(0.2)
        conn.close()
        server.close()

    thread = threading.Thread(target=late_listener, daemon=True)
    thread.start()
    session = connect(host, port, retries=8, retry_delay=0.1)
    assert session.wid == 0 and session.program == "wc"
    session.close()
    thread.join(timeout=5.0)


def test_worker_connect_exhausts_retry_budget():
    from repro.remote import connect

    probe = socket_mod.create_server(("127.0.0.1", 0))
    host, port = probe.getsockname()[:2]
    probe.close()
    start = time.monotonic()
    with pytest.raises(OSError):
        connect(host, port, retries=2, retry_delay=0.05)
    assert time.monotonic() - start < 5.0


# -- end-to-end: a real SIGKILL through the CLI ----------------------------------


def _processes_with_arg(arg: str) -> list[int]:
    """Pids of live processes whose command line holds ``arg`` (Linux)."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as f:
                argv = f.read().split(b"\0")
        except OSError:
            continue  # exited meanwhile, or not ours to read
        if arg.encode() in argv:
            pids.append(int(entry))
    return pids


@pytest.mark.skipif(sys.platform == "win32", reason="needs SIGKILL semantics")
def test_cli_sigkill_then_resume(tmp_path, wc_sequential):
    """The whole stack: `python -m repro.remote campaign` SIGKILLs itself
    (hidden --chaos-kill knob) after the first accepted completion; the
    campaign is then resumed and must match the undisturbed baseline.
    The coordinator's forked workers must not outlive it."""
    store_path = tmp_path / "s.sqlite"
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    # Unique per run: forked workers keep the coordinator's command
    # line, so the id is how the orphan check below finds them.
    campaign = f"ckill-{os.getpid()}-{time.monotonic_ns()}"
    # The workers hang up when the coordinator dies, each at its next
    # frame; stream output to files, not pipes, so the wait ends with the
    # coordinator instead of with the last worker.
    log_path = tmp_path / "campaign.log"
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.remote", "campaign", "wc",
             "--workers", "2", "--store", str(store_path),
             "--campaign-id", campaign, "--chaos-kill", "done:1"],
            env=env, stdout=log, stderr=subprocess.STDOUT,
        )
        returncode = proc.wait(timeout=300)
    killed_at = time.monotonic()
    assert returncode == -signal.SIGKILL, log_path.read_text(errors="replace")
    result = resume_campaign(store_path, campaign)
    result.check_ledger()
    same_exploration(wc_sequential, result, "resume after a SIGKILL")
    assert result.restored_partitions >= 1
    if not os.path.isdir("/proc"):
        return
    while (orphans := _processes_with_arg(campaign)) and time.monotonic() < killed_at + 30:
        time.sleep(0.2)
    for pid in orphans:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    assert not orphans, f"workers {orphans} outlived their coordinator by 30 s"

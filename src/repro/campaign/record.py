"""Campaign records: everything a crashed coordinator needs to continue.

A :class:`CampaignRecord` is the durable half of the coordinator's
:class:`~repro.parallel.state.CampaignState` — the running campaign
mutates one in place, :meth:`CampaignState.to_record` snapshots it with
every lease folded back to pending, and a resume makes a loaded one the
state again.  One record describes a partitioned exploration at a
quiescent point of the select loop:

* the **pending frontier** — every partition not yet accepted (queued,
  leased, or retained by a steal checkpoint), one
  :class:`~repro.parallel.partition.Partition` row each (its fields in
  order; the snapshot content-addressed on disk), so the
  :class:`~repro.sched.PartitionScheduler` queue is rebuilt without
  decoding a single snapshot;
* the **completed results** — accepted tests, coverage, streamed path
  counts and the per-partition completion log (these partitions are
  *never* re-explored on resume);
* the **stats ledger** — the frozen split-phase entry plus the merged
  accepted per-worker deltas, so ``check_ledger()`` holds across a
  crash/resume boundary exactly as it does across a worker death;
* the **replay context** — program name, input spec, engine config and
  parallel knobs (the objects themselves, as the worker handshake ships
  them), and the campaign counters (next pid, steals, requeue log) so
  telemetry continues instead of resetting;
* the split engine's **buffered store inserts**, applied at the resumed
  run's final commit in place of the tier the crash took with it.

A record is one :mod:`repro.codec` payload in the store's
``checkpoints`` table, its pending rows carrying blob digests in place
of snapshots; the snapshots go through :meth:`ReproStore.put_blob`
(SHA-256 content-addressing — consecutive epochs share unchanged
partitions).  Accepted tests are only ever appended, so they are saved
as **batches**: each epoch that accepted tests puts the ones that
arrived since the previous epoch into one content-addressed blob, and
the record lists the batch digests in order in place of the tests — an
epoch encodes only its own arrivals, never the whole suite again.
Row + blob refs (snapshots and batches) + epoch GC commit in one
transaction, so the newest epoch in the file is always consistent:
"find the newest consistent epoch" is simply ``ORDER BY epoch DESC
LIMIT 1``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING

from .. import codec

if TYPE_CHECKING:  # the record holds these; only save/load touch a store
    from ..engine.executor import EngineConfig
    from ..engine.testgen import TestCase
    from ..env.argv import ArgvSpec
    from ..parallel.coordinator import ParallelConfig
    from ..stats import Stats
    from ..store.db import ReproStore
    from ..store.tier import StorePayload

# Epochs retained per campaign (older ones are GC'd, their unreferenced
# snapshot and test-batch blobs swept).
CHECKPOINT_KEEP = 2

# What a test-batch blob holds.
TEST_BATCH = list["repro.engine.testgen.TestCase"]


class RecordError(RuntimeError):
    """A campaign has stored checkpoints, and none of them can be read."""


class RecordVersionError(RecordError):
    """A stored checkpoint was written in another codec format version."""


@dataclass
class CampaignRecord:
    """One checkpoint epoch of one campaign (see module docstring)."""

    campaign: str | None  # None: a run without an identity, never saved
    program: str
    # Replay context.
    spec: ArgvSpec
    config: EngineConfig
    parallel: ParallelConfig
    # Assigned by the checkpointer at save time; the epoch a resume loaded.
    epoch: int = 0
    phase: str = "dispatch"  # split | dispatch | steal | requeue | drain
    # Campaign counters, kept across a crash so pids stay unique (next_pid
    # is also the number of partitions ever created) and telemetry
    # accumulates.  requeue_log holds one named dict per lease revocation
    # and per poison drop; requeue_counts maps pid -> revocations charged
    # to its lineage, so the poison cap spans crashes.
    next_pid: int = 0
    steals: int = 0
    workers_lost: int = 0
    requeue_log: list[dict[str, int | str]] = field(default_factory=list)
    requeue_counts: dict[int, int] = field(default_factory=dict)
    # Pending frontier: Partition rows (pid, snapshot bytes, ...; a saved
    # record holds the snapshot's blob digest instead).  Empty while a
    # fleet runs (the scheduler queue and the lease table hold it);
    # filled by CampaignState.to_record, drained by begin().
    pending: list[tuple[int, bytes | str, str, int, str, str, int]] = field(
        default_factory=list)
    # Accepted results (completed partitions — not re-explored).
    tests: list[TestCase] = field(default_factory=list)
    # (digest, count) of the test batches that hold tests[:sum(counts)],
    # in order.  A saved record keeps only the tests past them; a loaded
    # one has them back and keeps the list, which its checkpointer extends.
    test_batches: list[tuple[str, int]] = field(default_factory=list)
    covered: set[tuple[str, str]] = field(default_factory=set)
    streamed_paths: int = 0
    # (pid, origin, paths, covered) per accepted completion
    partition_results: list[tuple[int, str, int, set[tuple[str, str]]]] = field(
        default_factory=list)
    # Ledger: one (name, Stats) entry per worker of every fleet
    # generation — the sum of its accepted per-partition deltas — and the
    # frozen split-phase contribution.
    worker_entries: list[tuple[str, Stats]] = field(default_factory=list)
    split_entry: tuple[str, Stats] | None = None
    split_tests: list[TestCase] = field(default_factory=list)
    split_covered: set[tuple[str, str]] = field(default_factory=set)
    # The split engine's buffered store inserts.
    store_payload: StorePayload | None = None

    def copy(self) -> "CampaignRecord":
        """A record whose containers are its own.  Their elements are
        shared: entries are replaced, never mutated in place."""
        return CampaignRecord(
            **{f.name: copy.copy(getattr(self, f.name)) for f in fields(self)}
        )


def save_checkpoint(
    store: ReproStore, record: CampaignRecord, final: int | None = None
) -> list[tuple[str, int]]:
    """Persist one epoch: content-address the pending snapshots and the
    tests up to ``final`` (default: all) that ``record.test_batches`` do
    not hold yet, as one new batch, then write row + blob refs + epoch
    GC in a single transaction.  Tests past ``final`` stay in the row.
    Returns the batches the saved record lists."""
    with store.transaction():
        refs: list[str] = []
        pending_refs = []
        for pid, snapshot, *rest in record.pending:
            digest = store.put_blob(snapshot)
            refs.append(digest)
            pending_refs.append((pid, digest, *rest))
        batches = list(record.test_batches)
        done = sum(count for _, count in batches)
        final = len(record.tests) if final is None else final
        if final > done:
            batch = record.tests[done:final]
            batches.append((store.put_blob(codec.dumps(batch)), len(batch)))
            done = final
        refs += [digest for digest, _ in batches]
        state = codec.dumps(replace(
            record, pending=pending_refs, tests=record.tests[done:],
            test_batches=batches,
        ))
        store.put_checkpoint(
            record.campaign, record.epoch, record.phase, state, refs,
            keep=CHECKPOINT_KEEP,
        )
    return batches


def _rehydrate(store: ReproStore, record: CampaignRecord) -> bool:
    """Put a loaded record's snapshots and test batches back in place;
    False when one of its blobs is gone or does not decode."""
    pending = []
    for pid, digest, *rest in record.pending:
        snapshot = store.get_blob(digest) if type(digest) is str else None
        if snapshot is None:
            return False
        pending.append((pid, snapshot, *rest))
    tests = []
    for digest, count in record.test_batches:
        blob = store.get_blob(digest)
        try:
            batch = None if blob is None else codec.loads(blob, TEST_BATCH)
        except codec.DecodeError:
            return False
        if batch is None or len(batch) != count:
            return False
        tests += batch
    record.pending = pending
    record.tests = tests + record.tests
    return True


def load_campaign(store: ReproStore, campaign: str) -> CampaignRecord | None:
    """Newest consistent epoch of a campaign, snapshots and tests
    rehydrated.

    Epochs are written transactionally, so the newest row *is*
    consistent; the walk over older epochs is belt-and-braces against a
    record that does not decode (a rejected row) or whose snapshot or
    test-batch blobs were swept by an over-eager external GC.  A record
    of another format version is refused by name
    (:class:`RecordVersionError`), and so is a campaign none of whose
    epochs loads while one of them does not decode (:class:`RecordError`);
    ``None`` means no checkpoint.
    """
    unreadable = None
    for epoch, _phase, state in store.iter_checkpoints(campaign):
        try:
            record = codec.loads(state, CampaignRecord)
        except codec.VersionError as exc:
            raise RecordVersionError(
                f"campaign {campaign!r} epoch {epoch}: {exc} — resume it with "
                "the repro version that wrote it"
            ) from exc
        except codec.DecodeError as exc:
            unreadable = unreadable or f"epoch {epoch}: {exc}"
            continue
        if _rehydrate(store, record):
            return record
    if unreadable is not None:
        raise RecordError(
            f"campaign {campaign!r} has checkpoints and none loads ({unreadable})")
    return None

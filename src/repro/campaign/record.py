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
* the **replay context** — program name, input spec, engine config
  (:func:`repro.parallel.wire.encode_config` — the same codec the worker
  handshake ships), parallel knobs, and the campaign counters (next
  pid, steals, requeue log) so telemetry continues instead of resetting;
* the split engine's **buffered store inserts**, applied at the resumed
  run's final commit in place of the tier the crash took with it.

Records are pickled into the store's ``checkpoints`` table; partition
snapshots go through :meth:`ReproStore.put_blob` (SHA-256
content-addressing — consecutive epochs share unchanged partitions).
Row + blob refs + epoch GC commit in one transaction, so the newest
epoch in the file is always consistent: "find the newest consistent
epoch" is simply ``ORDER BY epoch DESC LIMIT 1``.
"""

from __future__ import annotations

import copy
import pickle
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # the record itself is store-free; only save/load touch one
    from ..store.db import ReproStore

# Bumped whenever the pickled record layout changes; a resume refuses
# records it cannot faithfully reconstruct (:class:`RecordVersionError`)
# instead of guessing.
#   v2 — partitions_dispatched (always == next_pid) and requeues (the
#        count of "requeue" entries in requeue_log) dropped; pending
#        rows always carry a pid.
#   v3 — the pickled EngineStats lost its solver_* mirrors, and the
#        config / parallel payloads the options that had one value.
#   v4 — pending rows are Partition rows (the fields in order) instead
#        of (pid, snapshot, origin, meta dict).
RECORD_VERSION = 4

# Epochs retained per campaign (older ones are GC'd, their unreferenced
# snapshot blobs swept).
CHECKPOINT_KEEP = 2


class RecordVersionError(RuntimeError):
    """A stored checkpoint was written under another record layout."""


@dataclass
class CampaignRecord:
    """One checkpoint epoch of one campaign (see module docstring)."""

    campaign: str | None  # None: a run without an identity, never saved
    program: str
    # Replay context.
    spec_payload: dict
    config_payload: dict
    parallel_payload: dict
    # Assigned by the checkpointer at save time; the epoch a resume loaded.
    epoch: int = 0
    phase: str = "dispatch"  # split | dispatch | steal | requeue | drain
    # Campaign counters, kept across a crash so pids stay unique (next_pid
    # is also the number of partitions ever created) and telemetry
    # accumulates.  requeue_log holds one named dict per lease revocation
    # and per poison drop; requeue_counts maps pid -> revocations charged
    # to its lineage, so the poison cap spans crashes.
    factor: int = 0
    next_pid: int = 0
    steals: int = 0
    workers_lost: int = 0
    requeue_log: list = field(default_factory=list)
    requeue_counts: dict = field(default_factory=dict)
    # Pending frontier: Partition rows (pid, snapshot bytes, ...).  Empty
    # while a fleet runs (the scheduler queue and the lease table hold
    # it); filled by CampaignState.to_record, drained by begin().
    pending: list = field(default_factory=list)
    # Accepted results (completed partitions — not re-explored).
    tests: list = field(default_factory=list)
    covered: set = field(default_factory=set)
    streamed_paths: int = 0
    partition_results: list = field(default_factory=list)
    # Ledger: one (name, EngineStats, SolverStats) entry per worker of
    # every fleet generation — the sum of its accepted per-partition
    # deltas — and the frozen split-phase contribution.
    worker_entries: list = field(default_factory=list)
    split_entry: tuple | None = None
    split_tests: list = field(default_factory=list)
    split_covered: set = field(default_factory=set)
    # The split engine's buffered store inserts (PersistentTier payload).
    store_payload: dict | None = None

    def copy(self) -> "CampaignRecord":
        """A record whose containers are its own.  Their elements are
        shared: entries are replaced, never mutated in place."""
        return CampaignRecord(
            **{f.name: copy.copy(getattr(self, f.name)) for f in fields(self)}
        )


def save_checkpoint(store: ReproStore, record: CampaignRecord) -> None:
    """Persist one epoch: content-address the pending snapshots, then
    write row + blob refs + epoch GC in a single transaction."""
    with store.transaction():
        refs: list[str] = []
        pending_refs = []
        for pid, snapshot, *rest in record.pending:
            digest = store.put_blob(snapshot)
            refs.append(digest)
            pending_refs.append((pid, digest, *rest))
        payload = {f.name: getattr(record, f.name) for f in fields(CampaignRecord)}
        payload["pending"] = pending_refs
        payload["version"] = RECORD_VERSION
        state = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        store.put_checkpoint(
            record.campaign, record.epoch, record.phase, state, refs,
            keep=CHECKPOINT_KEEP,
        )


def load_campaign(store: ReproStore, campaign: str) -> CampaignRecord | None:
    """Newest consistent epoch of a campaign, snapshots rehydrated.

    Epochs are written transactionally, so the newest row *is*
    consistent; the walk over older epochs is belt-and-braces against a
    record whose blobs were swept by an over-eager external GC.
    """
    for epoch, _phase, state in store.iter_checkpoints(campaign):
        payload = pickle.loads(state)
        seen = payload.pop("version", None)
        if seen != RECORD_VERSION:
            raise RecordVersionError(
                f"campaign {campaign!r} epoch {epoch} is a v{seen} record, "
                f"this checkout reads v{RECORD_VERSION}: resume it with the "
                "repro version that wrote it"
            )
        pending = []
        complete = True
        for pid, digest, *rest in payload["pending"]:
            snapshot = store.get_blob(digest)
            if snapshot is None:
                complete = False
                break
            pending.append((pid, snapshot, *rest))
        if not complete:
            continue
        payload["pending"] = pending
        return CampaignRecord(**payload)
    return None

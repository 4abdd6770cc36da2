"""Checkpoint epochs and the campaign resume entry point.

:class:`CampaignCheckpointer` owns the monotonic epoch counter and
writes records through :mod:`repro.campaign.record`; *what* a record
holds and *when* one is due are decided by the coordinator's
:class:`~repro.parallel.state.CampaignState` (``to_record`` and the
``CHECKPOINT`` actions it returns).  A completed campaign's rows are
deleted in the same transaction that commits its results.

:func:`resume_campaign` is the other half: load the newest consistent
epoch, rebuild spec/config/parallel from the record's replay context,
and hand a :class:`~repro.parallel.coordinator.Coordinator` the record
to continue from — the record becomes the campaign's state.  Resume
semantics mirror worker-death recovery exactly, because a checkpoint
folds every outstanding lease back to pending with the same
:meth:`~repro.parallel.state.CampaignState.revoke` a worker death
applies: completed partitions stay completed (their tests, coverage and
stats deltas are in the record, never re-explored), while every
partition that was in flight at the crash is explored again from its
snapshot (or from its last steal checkpoint) — so the identity law
(byte-identical plain-mode test multiset, clean ``check_ledger()``)
carries over a coordinator SIGKILL, on either way of obtaining worker
connections.
"""

from __future__ import annotations

import dataclasses
import os

from .record import CampaignRecord, load_campaign, save_checkpoint


class CampaignError(RuntimeError):
    """A campaign-level failure (missing record, unusable store)."""


class CampaignNotFound(CampaignError):
    """``--resume`` named a campaign with no stored checkpoint."""


class CampaignInterrupted(RuntimeError):
    """Raised by chaos injectors to abort a coordinator mid-campaign.

    The resume tests (``tests/test_campaign_resume.py``) raise this to
    model a coordinator SIGKILL in process: checkpoints already written
    are durable, the transport closes on the way out (standing in for the
    orphaned workers dying), and the campaign is left resumable.  The
    CLI's hidden ``--chaos-kill`` knob delivers a *real* SIGKILL for the
    end-to-end variant.
    """


def new_campaign_id() -> str:
    """A short, collision-unlikely campaign identity for the CLI."""
    return "c" + os.urandom(4).hex()


class CampaignCheckpointer:
    """Owns the epoch counter and the test batches of one campaign and
    writes its records.

    ``live`` is the campaign's live record (the state's), whose records
    :meth:`save` writes: its ``tests`` are final as far as they reach,
    since :meth:`CampaignState.accept` only ever appends to them, so
    each epoch batches the ones that arrived since the last.  What a
    record holds past them — interim results of a lease that
    :meth:`CampaignState.to_record` folded — stays in that record's row.
    A loaded record continues its own chain: its epoch and its batches.
    Without ``live`` every test of a saved record is final.
    """

    def __init__(self, store, campaign: str, live: CampaignRecord | None = None):
        self.store = store
        self.campaign = campaign
        self.live = live
        # Monotonic across resumes: a resumed coordinator continues from
        # the loaded record's epoch, so epoch numbers never reuse.
        self.epoch = 0 if live is None else live.epoch
        self.batches: list[tuple[str, int]] = []
        self._last = None  # the test the batches end on
        if live is not None and live.test_batches:
            self.batches = list(live.test_batches)
            self._last = live.tests[sum(count for _, count in self.batches) - 1]

    def save(self, record: CampaignRecord) -> int:
        tests = record.tests if self.live is None else self.live.tests
        done = sum(count for _, count in self.batches)
        assert len(tests) >= done and (not done or tests[done - 1] is self._last), (
            "a campaign's accepted tests are only ever appended to")
        self.epoch += 1
        record.epoch = self.epoch
        record.test_batches = self.batches
        self.batches = save_checkpoint(self.store, record, len(tests))
        if tests:
            self._last = tests[-1]
        return self.epoch


def resume_campaign(store_path, campaign_id: str, overrides: dict | None = None):
    """Continue a checkpointed campaign from its newest consistent epoch.

    Returns the finished :class:`~repro.parallel.coordinator
    .ParallelResult`, exactly as the undisturbed run would have.
    ``overrides`` patches fields of the recorded
    :class:`~repro.parallel.coordinator.ParallelConfig` (e.g. a
    different ``socket_port`` or worker count for the resume fleet).
    """
    from ..parallel.coordinator import Coordinator
    from ..store import open_store

    store = open_store(store_path)
    try:
        record = load_campaign(store, campaign_id)
    finally:
        store.close()
    if record is None:
        raise CampaignNotFound(
            f"no checkpoint for campaign {campaign_id!r} in {str(store_path)!r}"
        )
    # The store may have moved since the original run; the resume's path
    # is authoritative (it is where the record was just read from).  Later
    # epochs replay from what this run actually uses.
    record.config = dataclasses.replace(
        record.config, store_path=str(store_path), store_readonly=False
    )
    record.parallel = dataclasses.replace(
        record.parallel, **{**(overrides or {}), "campaign_id": campaign_id}
    )
    coordinator = Coordinator(
        record.program, record.spec, record.config, record.parallel, resume=record
    )
    return coordinator.run()

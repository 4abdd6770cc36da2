"""repro.campaign — durable, crash-resumable exploration campaigns.

The lease layer makes *workers* expendable; this package makes the
**coordinator** expendable too.  A campaign is a partitioned exploration
with an identity: the coordinator periodically (and at every lease
requeue / steal checkpoint) persists a :class:`CampaignRecord` — the
durable half of its :class:`~repro.parallel.state.CampaignState`:
pending partition snapshots as content-addressed store blobs,
completed-partition results, the accepted per-worker stats deltas, and
the buffered store inserts — under a monotonic epoch in the store's
``checkpoints`` table.  Kill the coordinator at any point and
``python -m repro.remote campaign --resume <id>`` (or
:func:`resume_campaign`) rebuilds the scheduler queue and ledger from
the newest consistent epoch and continues.

**Resume identity law** (enforced by ``tests/test_campaign_resume.py``
and the ``fault`` experiment figure): a campaign SIGKILLed at any point
and resumed emits the byte-identical plain-mode test multiset and
coverage as an undisturbed run, with a clean
:meth:`~repro.parallel.coordinator.ParallelResult.check_ledger` —
completed partitions are not re-explored (their epoch counters surface
in ``ParallelResult.restored_partitions``), in-flight ones are, exactly
like a revoked worker lease.
"""

from .checkpoint import (
    CampaignCheckpointer,
    CampaignError,
    CampaignInterrupted,
    CampaignNotFound,
    new_campaign_id,
    resume_campaign,
)
from .record import (
    CampaignRecord,
    RecordError,
    RecordVersionError,
    load_campaign,
    save_checkpoint,
)

__all__ = [
    "CampaignCheckpointer",
    "CampaignError",
    "CampaignInterrupted",
    "CampaignNotFound",
    "CampaignRecord",
    "RecordError",
    "RecordVersionError",
    "load_campaign",
    "new_campaign_id",
    "resume_campaign",
    "save_checkpoint",
]

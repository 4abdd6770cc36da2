"""Checkpoint deltas: a campaign's accepted tests go to disk once.

Each epoch that accepted tests saves the ones that arrived since the
previous epoch as one content-addressed batch blob; the record lists the
batch digests in order.  Under test: a killed campaign resumes with its
tests rehydrated from the batches in acceptance order (and the resume
identity law holds), the epoch GC keeps exactly the batches the retained
epochs reference, a missing batch makes the loader fall back to the older
epoch, and a resumed checkpointer continues the loaded chain.
"""

import pytest

from repro import codec
from repro.campaign import (
    CampaignCheckpointer,
    CampaignInterrupted,
    CampaignRecord,
    load_campaign,
    resume_campaign,
    save_checkpoint,
)
from repro.engine.executor import EngineConfig
from repro.engine.testgen import TestCase
from repro.env.argv import ArgvSpec
from repro.experiments.harness import same_exploration
from repro.parallel import Coordinator, ParallelConfig, run_parallel
from repro.programs.registry import get_program
from repro.store import open_store


def _record(campaign="c1", tests=()):
    return CampaignRecord(
        campaign=campaign,
        program="wc",
        spec=ArgvSpec(n_args=1, arg_len=2, prog_name=b"wc"),
        config=EngineConfig(),
        parallel=ParallelConfig(workers=2),
        tests=list(tests),
    )


def _tests(*ids):
    return [TestCase("path", (b"a",), (("arg1_b0", i),), path_id=f"t{i}") for i in ids]


def _batches(store, campaign, epoch):
    (state,) = store.conn.execute(
        "SELECT state FROM checkpoints WHERE campaign = ? AND epoch = ?",
        (campaign, epoch)).fetchone()
    return [digest for digest, _ in codec.loads(state, CampaignRecord).test_batches]


def _blobs(store):
    return {row[0] for row in store.conn.execute("SELECT hash FROM blobs")}


def test_each_epoch_encodes_only_its_arrivals(tmp_path):
    """The live record grows between saves; every epoch that accepted
    tests adds one batch of exactly those, an epoch that accepted none
    adds nothing, and the row holds no test."""
    store = open_store(tmp_path / "s.sqlite")
    live = _record()
    ckpt = CampaignCheckpointer(store, "c1", live)
    sizes = []
    for arrivals in ((1, 2, 3), (), (4,), (5, 6)):
        live.tests += _tests(*arrivals)
        ckpt.save(live.copy())
        sizes.append([count for _, count in ckpt.batches])
        loaded = load_campaign(store, "c1")
        assert loaded.tests == live.tests
        (state,) = store.conn.execute(
            "SELECT state FROM checkpoints WHERE epoch = ?", (ckpt.epoch,)).fetchone()
        assert codec.loads(state, CampaignRecord).tests == []
    assert sizes == [[3], [3], [3, 1], [3, 1, 2]]
    store.close()


def test_tests_past_the_live_ones_stay_in_the_row(tmp_path):
    """A record may hold tests the live record has not accepted (a
    lease's interim results that to_record folded in): they stay in that
    epoch's row, and a later epoch batches what the live record accepted
    by then."""
    store = open_store(tmp_path / "s.sqlite")
    live = _record(tests=_tests(1, 2))
    ckpt = CampaignCheckpointer(store, "c1", live)
    folded = live.copy()
    folded.tests += _tests(9)
    ckpt.save(folded)
    assert load_campaign(store, "c1").tests == _tests(1, 2, 9)
    (state,) = store.conn.execute("SELECT state FROM checkpoints").fetchone()
    assert codec.loads(state, CampaignRecord).tests == _tests(9)
    live.tests += _tests(3)
    ckpt.save(live.copy())
    assert load_campaign(store, "c1").tests == _tests(1, 2, 3)
    assert [count for _, count in ckpt.batches] == [2, 1]
    store.close()


def test_a_rewritten_test_list_is_refused(tmp_path):
    store = open_store(tmp_path / "s.sqlite")
    live = _record(tests=_tests(1, 2))
    ckpt = CampaignCheckpointer(store, "c1", live)
    ckpt.save(live.copy())
    live.tests = _tests(1, 2)  # equal, but not the tests that were batched
    with pytest.raises(AssertionError, match="only ever appended"):
        ckpt.save(live.copy())
    store.close()


def test_resumed_checkpointer_continues_the_loaded_chain(tmp_path):
    store = open_store(tmp_path / "s.sqlite")
    live = _record(tests=_tests(1, 2))
    CampaignCheckpointer(store, "c1", live).save(live.copy())
    loaded = load_campaign(store, "c1")
    resumed = CampaignCheckpointer(store, "c1", loaded)
    assert resumed.epoch == 1
    loaded.tests += _tests(3)
    before = _blobs(store)
    resumed.save(loaded.copy())
    (new,) = _blobs(store) - before  # one batch: the arrival, nothing re-encoded
    assert codec.loads(store.get_blob(new)) == _tests(3)
    assert load_campaign(store, "c1").tests == _tests(1, 2, 3)
    store.close()


def test_epoch_gc_keeps_exactly_the_referenced_batches(tmp_path):
    store = open_store(tmp_path / "s.sqlite")
    baseline = _blobs(store)
    # Records that share no prefix: each epoch's batch is its own.
    for epoch in range(1, 5):
        rec = _record(tests=_tests(epoch))
        rec.epoch = epoch
        save_checkpoint(store, rec)
    assert store.checkpoint_epochs("c1") == [3, 4]
    kept = set(_batches(store, "c1", 3)) | set(_batches(store, "c1", 4))
    assert len(kept) == 2
    assert _blobs(store) - baseline == kept
    # A chain: every retained epoch references every batch so far.
    live = _record("c2")
    ckpt = CampaignCheckpointer(store, "c2", live)
    for arrivals in ((1,), (2,), (), (3, 4)):
        live.tests += _tests(*arrivals)
        ckpt.save(live.copy())
    assert store.checkpoint_epochs("c2") == [3, 4]
    chain = {digest for digest, _ in ckpt.batches}
    assert len(chain) == 3
    assert set(_batches(store, "c2", 3)) | set(_batches(store, "c2", 4)) == chain
    assert _blobs(store) - baseline == kept | chain
    store.delete_campaign("c1")
    store.delete_campaign("c2")
    assert _blobs(store) == baseline
    store.close()


def test_missing_batch_falls_back_to_the_older_epoch(tmp_path):
    store = open_store(tmp_path / "s.sqlite")
    live = _record()
    ckpt = CampaignCheckpointer(store, "c1", live)
    for arrivals in ((1, 2), (3,)):
        live.tests += _tests(*arrivals)
        ckpt.save(live.copy())
    newest, _ = ckpt.batches[-1]
    store.conn.execute("DELETE FROM blobs WHERE hash = ?", (newest,))
    store.conn.commit()
    loaded = load_campaign(store, "c1")
    assert loaded.epoch == 1
    assert loaded.tests == _tests(1, 2)
    store.close()


def test_killed_campaign_resumes_with_tests_from_batches_in_order(tmp_path):
    """Kill the coordinator right after the third epoch that saved a
    batch: the newest record lists its batches, the loaded tests are the
    ones that record was made of, in acceptance order, and the resumed
    campaign emits the undisturbed run's multiset."""
    info = get_program("wc")
    spec = ArgvSpec(n_args=info.default_n, arg_len=info.default_l,
                    stdin_len=info.default_stdin)
    store_path = tmp_path / "s.sqlite"
    coord = Coordinator(
        "wc", spec, EngineConfig(store_path=str(store_path)),
        ParallelConfig(workers=2, backend="socket", campaign_id="ckill",
                       heartbeat_timeout=3.0),
    )
    saved = []
    real_save = CampaignCheckpointer.save

    def save_then_maybe_die(checkpointer, record):
        batches = len(checkpointer.batches)
        epoch = real_save(checkpointer, record)
        if len(checkpointer.batches) > batches:
            saved.append(list(record.tests))
            if len(saved) == 3:
                raise CampaignInterrupted("third batch")
        return epoch

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CampaignCheckpointer, "save", save_then_maybe_die)
        with pytest.raises(CampaignInterrupted):
            coord.run()
    store = open_store(store_path)
    loaded = load_campaign(store, "ckill")
    store.close()
    assert len(loaded.test_batches) == 3
    assert loaded.tests == saved[-1]
    result = resume_campaign(store_path, "ckill")
    result.check_ledger()
    same_exploration(run_parallel("wc", workers=1), result, "resumed campaign")

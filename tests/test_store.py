"""repro.store: open/insert/lookup/reopen cycles, blobs, corpus, tier."""

import json

import pytest

from repro.env.argv import ArgvSpec
from repro.env.runner import run_symbolic
from repro.expr import ops
from repro.expr.canon import named_key
from repro.solver.cache import QueryCache
from repro.store import (
    PersistentTier,
    ReproStore,
    StoreError,
    apply_payload,
    corpus,
    decode_core,
    open_store,
    record_tests,
    seed_query_cache,
    spec_fingerprint,
)


@pytest.fixture
def store(tmp_path):
    return ReproStore(tmp_path / "s.sqlite")


X = ops.bv_var("st_x", 8)
Y = ops.bv_var("st_y", 8)
A = ops.ult(X, ops.bv(10, 8))
B = ops.ult(ops.bv(3, 8), X)
C = ops.eq(Y, ops.bv(7, 8))


# -- constraint cache ---------------------------------------------------------


def test_constraint_insert_lookup_reopen(store, tmp_path):
    key = named_key([A, B])
    assert store.lookup_constraint(key) is None
    store.put_constraints([(key, True, {"st_x": 5})])
    assert store.lookup_constraint(key) == (True, {"st_x": 5})
    store.close()

    reopened = ReproStore(tmp_path / "s.sqlite")
    assert reopened.lookup_constraint(key) == (True, {"st_x": 5})
    reopened.close()

    # Read-only connections see the same data but refuse writes.
    ro = open_store(tmp_path / "s.sqlite", readonly=True)
    assert ro.lookup_constraint(key) == (True, {"st_x": 5})
    with pytest.raises(StoreError):
        ro.put_constraints([("k", False, None)])
    ro.close()


def test_first_write_wins(store):
    store.put_constraints([("k1", False, None)])
    store.put_constraints([("k1", True, {"v0": 1})])  # ignored duplicate
    assert store.lookup_constraint("k1") == (False, None)
    assert store.constraint_count() == 1


def test_readonly_open_missing_file(tmp_path):
    assert open_store(tmp_path / "absent.sqlite", readonly=True) is None
    with pytest.raises(StoreError):
        open_store(tmp_path / "absent.sqlite", readonly=True, missing_ok=False)


# -- content-addressed blobs --------------------------------------------------


def test_blobs_are_content_addressed(store):
    h1 = store.put_blob(b"payload")
    h2 = store.put_blob(b"payload")
    assert h1 == h2
    assert store.get_blob(h1) == b"payload"
    assert store.counts()["blobs"] == 1


# -- UNSAT cores through the tier --------------------------------------------


def test_tier_core_roundtrip(store):
    tier = PersistentTier(store, program="prog")
    contradiction = ops.ult(X, ops.bv(2, 8))
    tier.record_core([A, contradiction])
    apply_payload(store, tier.export_pending())
    payloads = store.iter_cores("prog")
    assert len(payloads) == 1
    core = decode_core(payloads[0])
    # Decoded into *this* process's interned nodes: identity holds.
    assert core == [A, contradiction]
    # Program-scoped: other programs don't see it.
    assert store.iter_cores("other") == []


def test_tier_lookup_record_flush(store):
    tier = PersistentTier(store, program="prog")
    flat = [A, B]
    assert tier.lookup(flat) is None  # cold store
    assert tier.record(flat, True, {"st_x": 5, "st_y": 7})
    assert not tier.record(flat, True, {"st_x": 5})  # deduped
    assert tier.lookup(flat) is None  # pending buffer is not consulted
    assert tier.flush() == 1
    hit = tier.lookup(flat)
    assert hit is not None and hit[0] is True
    assert hit[1] == {"st_x": 5}  # cut down to the set's own variables
    # A renamed query is another key: a miss, not a rejected hit.
    Z = ops.bv_var("st_z", 8)
    renamed = [ops.ult(Z, ops.bv(10, 8)), ops.ult(ops.bv(3, 8), Z)]
    assert tier.lookup(renamed) is None
    assert tier.rejects == 0


def test_tier_rejects_bad_model(store):
    # A corrupted row (model violating the constraints) must be treated as
    # a miss, not trusted: SAT hits are verified by evaluation.
    store.put_constraints([(named_key([A, B]), True, {"st_x": 200})])
    tier = PersistentTier(store, program="prog")
    assert tier.lookup([A, B]) is None
    assert tier.rejects == 1


# -- run metadata & test corpus ----------------------------------------------


def test_run_rows_and_counts(store):
    run_id = store.record_run("echo", "spec", "plain", {"forks": 17, "wall_time": 0.1})
    assert run_id == 1
    ((rid, program, spec, mode, _started, stats_json),) = store.run_rows("echo")
    assert (rid, program, spec, mode) == (1, "echo", "spec", "plain")
    assert json.loads(stats_json) == {"forks": 17, "wall_time": 0.1}
    assert store.counts()["runs"] == 1


def test_corpus_dedup_and_models(store):
    spec = ArgvSpec(n_args=1, arg_len=2)
    fp = spec_fingerprint(spec)
    row = ("path", "pid1", None, (b"prog", b"a"), (("arg1_b0", 97),), b"", 1,
           {("main", "entry")})
    assert store.put_tests("echo", fp, [row]) >= 1
    # The same path recorded by a later run is ignored.
    assert store.put_tests("echo", fp, [row]) == 0
    assert store.test_count("echo") == 1
    tests = store.iter_tests("echo", fp)
    assert tests[0]["argv"] == (b"prog", b"a")
    assert tests[0]["coverage"] == {("main", "entry")}
    assert store.iter_test_models("echo", fp) == [{"arg1_b0": 97}]


def test_test_model_reads_one_row_by_its_identity(store):
    """``ReproStore.test_model`` is keyed like ``put_tests`` deduplicates
    (``line=None`` is the stored -1); the tier reads the key set once and
    never queries for an identity the corpus does not hold."""
    fp = spec_fingerprint(ArgvSpec(n_args=1, arg_len=2))
    store.put_tests("echo", fp, [
        ("path", "pid1", None, (b"prog", b"a"), (("arg1_b0", 97),), b"", 1, None),
        ("assert", "pid1", 7, (b"prog", b"b"), (("arg1_b0", 98),), b"", 1, None),
    ])
    assert store.test_model("echo", fp, "path", "pid1", None) == {"arg1_b0": 97}
    assert store.test_model("echo", fp, "assert", "pid1", 7) == {"arg1_b0": 98}
    assert store.test_model("echo", fp, "assert", "pid1", 8) is None
    assert store.test_model("cat", fp, "path", "pid1", None) is None

    tier = PersistentTier(store, program="echo", spec=fp)
    assert tier.test_model("path", "pid1", None) == {"arg1_b0": 97}
    assert tier.test_model("assert", "pid1", 7) == {"arg1_b0": 98}
    selects = []
    store.conn.set_trace_callback(selects.append)
    assert tier.test_model("path", "other", None) is None
    assert selects == []
    store.conn.set_trace_callback(None)
    # No spec, or no store (a closed one): no corpus to ask.
    assert PersistentTier(store, program="echo").test_model("path", "pid1", None) is None
    assert PersistentTier(None, program="echo", spec=fp).test_model("path", "pid1", None) is None


def test_tier_sat_row_without_a_model_is_a_miss(store):
    """A SAT verdict is only ever taken together with a model that
    verifies; a model-less row (nothing this build writes) is not one."""
    store.put_constraints([(named_key([A, B]), True, None)])
    tier = PersistentTier(store, program="prog")
    assert tier.lookup([A, B]) is None
    assert tier.rejects == 0


def test_seed_query_cache(store):
    spec = ArgvSpec(n_args=1, arg_len=2)
    fp = spec_fingerprint(spec)
    store.put_tests(
        "p", fp, [("path", "pid", None, (b"p",), (("st_x", 5),), b"", 1, None)]
    )
    tier = PersistentTier(store, program="p")
    contradiction = ops.ult(X, ops.bv(2, 8))
    tier.record_core([A, contradiction])
    apply_payload(store, tier.export_pending())

    cache = QueryCache()
    models, cores = seed_query_cache(store, cache, "p", spec)
    assert (models, cores) == (1, 1)
    # The seeded model proves SAT by evaluation (model-reuse tier) ...
    assert cache.lookup([ops.eq(X, ops.bv(5, 8))]) == (True, {"st_x": 5})
    # ... and the seeded core powers subset-UNSAT on supersets.
    assert cache.lookup([A, contradiction, C]) == (False, None)


def test_record_tests_replays_only_new_rows(tmp_path, monkeypatch):
    """A second commit of the same suite replays nothing, and the corpus
    is row for row what replaying everything twice leaves (provenance of
    the duplicates refreshed)."""
    run = run_symbolic("echo", generate_tests=True)
    module, spec, cases = run.engine.module, run.engine.spec, run.tests.cases
    assert cases
    replays = []
    real_replay = corpus.replay_coverage

    def counted(module, case, *args, **kwargs):
        replays.append(case)
        return real_replay(module, case, *args, **kwargs)

    monkeypatch.setattr(corpus, "replay_coverage", counted)

    def dump(store):
        return [
            store.conn.execute(f"SELECT * FROM {table} ORDER BY {order}").fetchall()
            for table, order in (
                ("tests", "id"),
                ("test_coverage", "program, func, block"),
                ("blobs", "hash"),
            )
        ]

    with ReproStore(tmp_path / "incremental.sqlite") as store:
        assert record_tests(store, module, "echo", spec, cases, run_id=1) == len(cases)
        assert len(replays) == len(cases)
        replays.clear()
        assert record_tests(store, module, "echo", spec, cases, run_id=2) == 0
        assert replays == []
        incremental = dump(store)

    with ReproStore(tmp_path / "replay_all.sqlite") as store:
        monkeypatch.setattr(ReproStore, "test_keys", lambda *args: set())
        record_tests(store, module, "echo", spec, cases, run_id=1)
        record_tests(store, module, "echo", spec, cases, run_id=2)
        assert len(replays) == 2 * len(cases)
        assert dump(store) == incremental

    created_run = [row[-1] for row in incremental[0]]
    assert created_run == [2] * len(cases)
    assert all(row[-2] is not None for row in incremental[0])  # coverage kept

"""The store's write path: the coverage index and replay on arrival.

Two laws:

* **index law** — the ``test_coverage`` rows :meth:`ReproStore.put_tests`
  maintains (one upsert per block per call) are exactly the rows
  ``_backfill_coverage_index`` rebuilds from the same ``tests`` rows: after
  a cold commit, after a re-commit of duplicate rows, and after ``gc()``;
* **arrival law** — a socket campaign whose commit takes the coverage its
  coordinator replayed as tests arrived writes byte-identical ``tests``,
  ``test_coverage`` and blob rows to the same campaign committed with
  ``coverage_of=None`` (every test replayed at the tail), and replays each
  test once.
"""

import sqlite3
from itertools import count

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.executor import Engine
from repro.env.runner import run_symbolic
from repro.parallel import ParallelConfig, run_parallel
from repro.store import ReproStore, corpus

_copies = count()


def index_rows(store):
    return store.conn.execute(
        "SELECT program, func, block, tests FROM test_coverage"
        " ORDER BY program, func, block"
    ).fetchall()


def backfilled(store, tmp_path):
    """The index a store opened on a copy of ``store`` with its
    ``test_coverage`` table emptied rebuilds."""
    path = tmp_path / f"copy{next(_copies)}.sqlite"
    dst = sqlite3.connect(path)
    store.conn.backup(dst)
    dst.execute("DELETE FROM test_coverage")
    dst.commit()
    dst.close()
    with ReproStore(path) as rebuilt:
        return index_rows(rebuilt)


def assert_index_law(store, tmp_path):
    assert index_rows(store) == backfilled(store, tmp_path)


BLOCKS = [("main", f"b{i}") for i in range(5)] + [("f", "b0"), ("f", "b1")]
ROW = st.tuples(
    st.sampled_from(["path", "assert"]),
    st.sampled_from(["k1", "k2", "k3", "k4", "k5"]),
    st.sampled_from([None, 3]),
    st.one_of(st.none(), st.frozensets(st.sampled_from(BLOCKS))),
)
COMMIT = st.tuples(st.sampled_from(["p", "q"]), st.lists(ROW, max_size=8))


@given(commits=st.lists(COMMIT, min_size=1, max_size=5), keep=st.integers(0, 3))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_index_equals_backfill_on_generated_commits(tmp_path_factory, commits, keep):
    """Duplicates within a call and across calls, rows without coverage or
    with empty coverage, two programs, then an age-out."""
    tmp_path = tmp_path_factory.mktemp("law")
    with ReproStore(tmp_path / "s.sqlite") as store:
        for program, rows in commits:
            run_id = store.record_run(program, "s", "m", {})
            store.put_tests(
                program, "s",
                [(kind, pid, line, (b"a",), (), b"", 1, cov)
                 for kind, pid, line, cov in rows],
                run_id=run_id,
            )
            assert_index_law(store, tmp_path)
        store.gc(keep_runs=keep)
        assert_index_law(store, tmp_path)


def test_index_equals_backfill_across_commits_and_gc(tmp_path):
    """Real commits: a cold one, a re-commit of the same rows, a second
    program, and a gc that ages the first program's rows out."""
    path = str(tmp_path / "s.sqlite")
    run_symbolic("wc", n_args=2, arg_len=2, store_path=path)
    with ReproStore(path) as store:
        cold = index_rows(store)
        assert cold
        assert_index_law(store, tmp_path)
    run_symbolic("wc", n_args=2, arg_len=2, store_path=path)  # duplicates only
    with ReproStore(path) as store:
        assert index_rows(store) == cold
        assert_index_law(store, tmp_path)
    run_symbolic("echo", store_path=path)
    with ReproStore(path) as store:
        assert_index_law(store, tmp_path)
        assert store.gc(keep_runs=1)["tests"] > 0
        assert {row[0] for row in index_rows(store)} == {"echo"}
        assert_index_law(store, tmp_path)


def corpus_rows(path):
    with ReproStore(path) as store:
        return [
            store.conn.execute(query).fetchall()
            for query in (
                "SELECT program, spec, kind, path_id, line, argv, model, stdin,"
                " multiplicity, coverage_hash, created_run FROM tests"
                " ORDER BY kind, path_id, line",
                "SELECT * FROM test_coverage ORDER BY program, func, block",
                "SELECT hash, data FROM blobs ORDER BY hash",
            )
        ]


def test_replay_on_arrival_writes_what_the_tail_replay_writes(tmp_path, monkeypatch):
    replays = []
    real_replay = corpus.replay_coverage

    def counted(module, case, *args, **kwargs):
        replays.append(case)
        return real_replay(module, case, *args, **kwargs)

    monkeypatch.setattr(corpus, "replay_coverage", counted)
    commit = Engine.commit_to_store
    in_commit = {}

    def campaign(name, tail):
        def observed_commit(self, **kw):
            assert kw["coverage_of"]  # the coordinator replayed on arrival
            before = len(replays)
            try:
                return commit(self, **{**kw, "coverage_of": None} if tail else kw)
            finally:
                in_commit[name] = len(replays) - before

        monkeypatch.setattr(Engine, "commit_to_store", observed_commit)
        replays.clear()
        result = run_parallel(
            "wc", n_args=3, arg_len=2, store_path=str(tmp_path / f"{name}.sqlite"),
            parallel=ParallelConfig(workers=2, backend="socket", campaign_id=name),
        )
        return result, len(replays)

    arrival, arrival_replays = campaign("arrival", tail=False)
    tail, _ = campaign("tail", tail=True)
    # Each test replayed once, between messages; the commit replays none.
    assert arrival_replays == len(set(arrival.tests.cases)) > 0
    assert in_commit == {"arrival": 0, "tail": len(tail.tests.cases)}
    arrived = corpus_rows(tmp_path / "arrival.sqlite")
    assert [len(rows) for rows in arrived] == [588, 40, 17]
    assert arrived == corpus_rows(tmp_path / "tail.sqlite")

"""Test generation answers its group misses from the corpus.

A warm run finds, under the very ``(kind, path_id, line)`` identity of the
test it is about to build, the row an earlier run filed — and that row's
input, cut down to an independence group and verified against it, is the
group's history-free model.  The **corpus-answer law**: that is
unobservable.  Warm suite == cold suite == the per-test fresh-chain oracle
of ``test_engine_testgen_memo`` (``path_id`` included), under either
exploration order, 1 or 2 workers and a memo too small to ever hit; a row
that is not a model of the group — corrupted, truncated, foreign — is
rejected by evaluation and the group is solved as if the store were empty.
"""

import pytest

from repro import codec
from repro.engine import executor, testgen
from repro.env.runner import run_symbolic
from repro.experiments.harness import MODES
from repro.expr.evaluate import evaluate
from repro.expr.independence import split_independent
from repro.memo import clear_memos
from repro.parallel import ParallelConfig, run_parallel
from repro.solver.portfolio import SolverChain
from repro.solver.presolve import group_signature
from repro.stats import Stats
from repro.store import PersistentTier, open_store, spec_fingerprint
from test_engine_testgen_memo import CORPUS, case_key, oracle_test_case, suite


@pytest.fixture
def cold_memos():
    clear_memos()


def lookups(stats) -> int:
    return stats.testgen_group_solves + stats.testgen_group_hits


def run_recording_oracle(monkeypatch, program, **kwargs):
    """One run; also every ``make_test_case`` call it made, each with the
    fresh-chain oracle's answer: ``[(spec, pc, kind, line, mult, oracle)]``."""
    calls = []
    real = executor.make_test_case

    def with_oracle(solver, spec, pc, kind, line=None, multiplicity=1, **kw):
        case = real(solver, spec, pc, kind, line=line, multiplicity=multiplicity, **kw)
        oracle = oracle_test_case(spec, pc, kind, line, multiplicity)
        assert (case is None) == (oracle is None)
        if oracle is not None:
            calls.append((spec, tuple(pc), kind, line, multiplicity, oracle))
        return case

    with monkeypatch.context() as patched:
        patched.setattr(executor, "make_test_case", with_oracle)
        result = run_symbolic(program, **kwargs)
    return result, calls


@pytest.mark.parametrize("mode", ["plain", "dsm-qce"])
@pytest.mark.parametrize("program", CORPUS)
def test_warm_suite_equals_cold_suite_equals_oracle(
        monkeypatch, cold_memos, tmp_path, program, mode):
    path = str(tmp_path / "store.sqlite")
    cold, calls = run_recording_oracle(monkeypatch, program, store_path=path, **MODES[mode])
    expected = suite(oracle for *_, oracle in calls)
    assert cold.tests.cases and suite(cold.tests.cases) == expected
    assert cold.stats.testgen_corpus_hits == 0

    clear_memos()
    warm = run_symbolic(program, store_path=path, **MODES[mode])
    assert suite(warm.tests.cases) == expected
    # Every group the cold run solved, the warm run read.
    assert warm.stats.testgen_group_solves == 0
    assert warm.stats.testgen_cost_units == 0
    assert warm.stats.testgen_corpus_hits == cold.stats.testgen_group_solves
    assert lookups(warm.stats) == lookups(cold.stats)
    assert warm.stats.testgen_queries == cold.stats.testgen_queries


@pytest.mark.parametrize("program", CORPUS)
def test_warm_suite_independent_of_exploration_order(cold_memos, tmp_path, program):
    path = str(tmp_path / "store.sqlite")
    dfs = run_symbolic(program, strategy="dfs", store_path=path)
    clear_memos()
    bfs = run_symbolic(program, strategy="bfs", store_path=path)
    assert suite(bfs.tests.cases) == suite(dfs.tests.cases)
    assert bfs.stats.testgen_group_solves == 0 < bfs.stats.testgen_corpus_hits
    assert lookups(bfs.stats) == lookups(dfs.stats)


@pytest.mark.parametrize("backend", ["inline", "process"])
def test_warm_suite_independent_of_worker_count(cold_memos, tmp_path, backend):
    path = str(tmp_path / "store.sqlite")
    seq = run_parallel("wc", workers=1, store_path=path)
    assert seq.stats.testgen_group_solves > 0
    clear_memos()
    par = run_parallel("wc", parallel=ParallelConfig(workers=2, backend=backend),
                       store_path=path)
    par.check_ledger()
    assert par.partitions > 0
    assert suite(par.tests.cases) == suite(seq.tests.cases)
    # Split engine and read-only workers alike answer from the one store.
    assert par.stats.testgen_group_solves == 0 < par.stats.testgen_corpus_hits
    assert par.stats.testgen_corpus_hits == sum(
        entry[1].testgen_corpus_hits for entry in par.ledger)
    assert lookups(par.stats) == lookups(seq.stats)
    # check_ledger owns the new counter.
    par.stats.testgen_corpus_hits += 1
    with pytest.raises(AssertionError, match="testgen_corpus_hits"):
        par.check_ledger()


@pytest.mark.parametrize("mode", ["plain", "dsm-qce"])
def test_memo_eviction_is_neutral_on_a_warm_store(monkeypatch, cold_memos, tmp_path, mode):
    path = str(tmp_path / "store.sqlite")
    cold = run_symbolic("uniq", store_path=path, **MODES[mode])
    clear_memos()
    monkeypatch.setattr(testgen._GROUP_MEMO, "bound", 1)
    tight = run_symbolic("uniq", store_path=path, **MODES[mode])
    assert suite(tight.tests.cases) == suite(cold.tests.cases)
    assert len(testgen._GROUP_MEMO) <= 1
    # With nothing remembered the corpus answers every repeat too.
    assert tight.stats.testgen_group_solves == 0
    assert tight.stats.testgen_corpus_hits >= cold.stats.testgen_group_solves
    assert lookups(tight.stats) == lookups(cold.stats)


# -- rows that are not what this generator would have written ------------------


def groups_of(pc):
    flat, const_false = SolverChain._flatten(pc)
    assert not const_false
    return split_independent(flat)


def violating_every_group(pc) -> dict[str, int] | None:
    """An assignment no independence group of ``pc`` is satisfied by."""
    out: dict[str, int] = {}
    for group in groups_of(pc):
        for value in (0, 255, 1, 65):
            sub = dict.fromkeys(group_signature(group), value)
            if not all(evaluate(c, sub) for c in group):
                out.update(sub)
                break
        else:
            return None
    return out


def losing_a_variable_of_every_group(pc, model: dict[str, int]) -> dict[str, int]:
    dropped = {min(group_signature(group)) for group in groups_of(pc)}
    return {k: v for k, v in model.items() if k not in dropped}


TAMPERINGS = {
    "non-model": lambda pc, model: violating_every_group(pc),
    "truncated": losing_a_variable_of_every_group,
    "another spec": lambda pc, model: {"stdin_b0": 7, "stdin_b1": 0, "stdin_len": 1},
}


@pytest.mark.parametrize("tampering", sorted(TAMPERINGS))
@pytest.mark.parametrize("mode", ["plain", "dsm-qce"])
def test_tampered_row_is_rejected_and_resolved(monkeypatch, cold_memos, tmp_path, mode, tampering):
    path = str(tmp_path / "store.sqlite")
    _, calls = run_recording_oracle(monkeypatch, "echo", store_path=path, **MODES[mode])
    store = open_store(path)
    spec = calls[0][0]
    spec_fp = spec_fingerprint(spec)
    tampered = 0
    for spec, pc, kind, line, multiplicity, oracle in calls:
        bad = TAMPERINGS[tampering](pc, oracle.model_dict())
        if bad is None or not groups_of(pc):
            continue
        tampered += 1
        assert store.test_model("echo", spec_fp, kind, oracle.path_id, line) == oracle.model_dict()
        store.conn.execute(
            "UPDATE tests SET model = ? WHERE program = 'echo' AND spec = ? AND kind = ?"
            " AND path_id = ? AND line = ?",
            (codec.dumps(tuple(sorted(bad.items()))), spec_fp, kind, oracle.path_id,
             line if line is not None else -1),
        )
        store.conn.commit()
        clear_memos()
        stats = Stats()
        chain = SolverChain(persistent=PersistentTier(store, "echo", spec=spec_fp))
        case = testgen.make_test_case(
            chain, spec, pc, kind, line=line, multiplicity=multiplicity,
            stats_sink=stats,
        )
        assert case_key(case) == case_key(oracle)
        assert stats.testgen_corpus_hits == 0
        assert stats.testgen_group_solves == len(groups_of(pc))
    assert tampered >= len(calls) // 2
    store.close()


def test_row_of_another_generator_is_used_only_verified(monkeypatch, cold_memos, tmp_path):
    """The law's scope: a stored input that *does* satisfy the group is
    taken even where a fresh solve would have picked another — it is the
    row ``put_tests`` would deduplicate this test onto anyway."""
    path = str(tmp_path / "store.sqlite")
    _, calls = run_recording_oracle(monkeypatch, "echo", store_path=path)
    store = open_store(path)
    spec_fp = spec_fingerprint(calls[0][0])
    seen = 0
    for spec, pc, kind, line, multiplicity, oracle in calls:
        groups = groups_of(pc)
        other = None
        for name in sorted(group_signature(pc)):
            candidate = dict(oracle.model_dict(), **{name: oracle.model_dict()[name] ^ 0x10})
            if all(evaluate(c, candidate) for c in pc):
                other = candidate
                break
        if other is None:
            continue
        seen += 1
        store.conn.execute(
            "UPDATE tests SET model = ? WHERE spec = ? AND kind = ? AND path_id = ?",
            (codec.dumps(tuple(sorted(other.items()))), spec_fp, kind, oracle.path_id),
        )
        store.conn.commit()
        clear_memos()
        stats = Stats()
        chain = SolverChain(persistent=PersistentTier(store, "echo", spec=spec_fp))
        case = testgen.make_test_case(chain, spec, pc, kind, line=line,
                                      multiplicity=multiplicity, stats_sink=stats)
        assert case.model_dict() == other and case.path_id == oracle.path_id
        assert all(evaluate(c, case.model_dict()) for c in pc)
        assert stats.testgen_corpus_hits == len(groups) and stats.testgen_group_solves == 0
    assert seen
    store.close()


def test_corpus_is_asked_at_most_once_per_test_and_only_on_a_miss(cold_memos, tmp_path):
    path = str(tmp_path / "store.sqlite")
    run_symbolic("wc", store_path=path)

    class CountingTier(PersistentTier):
        fetches = 0

        def test_model(self, kind, path_id, line):
            self.fetches += 1
            return super().test_model(kind, path_id, line)

    from repro import store as store_pkg

    clear_memos()
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(store_pkg, "PersistentTier", CountingTier)
        warm = run_symbolic("wc", store_path=path)
        again = run_symbolic("wc", store_path=path)
    tier = warm.engine.solver.persistent
    assert 0 < tier.fetches <= warm.stats.testgen_corpus_hits
    assert tier.fetches < warm.stats.testgen_queries
    # Everything is in the memo by now: the store is not even opened for keys.
    assert again.engine.solver.persistent.fetches == 0
    assert again.engine.solver.persistent._test_keys is None

"""Differential law for memoised test generation.

``repro.engine.testgen`` answers each independence group of a path
condition from one process-wide memo and solves only the groups that
miss.  The law: that is *unobservable*.  The suite a run emits equals,
test for test (``path_id`` included), the suite of the per-test oracle
kept below — one fresh history-free chain over the whole pc, the path
digest recomputed with no memo — and is the same under either
exploration order, 1 or 2 workers, and memo bounds so small that every
entry is evicted before it can be hit.
"""

from collections import Counter

import pytest

from repro import memo
from repro.engine import executor, testgen
from repro.engine.similarity import QceSimilarity
from repro.env.runner import run_symbolic
from repro.experiments.harness import MODES
from repro.expr import canon
from repro.parallel import ParallelConfig, run_parallel
from repro.solver.portfolio import SolverChain, complete_model

CORPUS = ["echo", "cat", "wc", "uniq", "tsort"]


def case_key(case):
    return (case.kind, case.argv, case.model, case.line, case.multiplicity,
            case.stdin, case.path_id)


def suite(cases) -> Counter:
    return Counter(case_key(c) for c in cases)


def oracle_test_case(spec, pc, kind, line=None, multiplicity=1):
    """The pre-memo implementation: a fresh chain per test over the whole
    pc, and every constraint of the pc re-hashed for ``path_id``."""
    result = SolverChain(use_cache=False).check(list(pc))
    if not result.is_sat:
        return None
    full = complete_model(result.model, spec.input_variables())
    items = tuple(
        sorted((k, v) for k, v in full.items() if k.startswith(("arg", "stdin")))
    )
    canon._named_cache.clear()
    canon._named_node_cache.clear()
    return testgen.TestCase(
        kind=kind,
        argv=tuple(spec.decode(full)),
        model=items,
        line=line,
        multiplicity=multiplicity,
        stdin=spec.decode_stdin(full),
        path_id=canon.named_key(list(pc)),
    )


@pytest.fixture
def cold_memos():
    memo.clear_memos()


@pytest.mark.parametrize("mode", ["plain", "dsm-qce"])
@pytest.mark.parametrize("program", CORPUS)
def test_memoised_suite_equals_fresh_chain_oracle(monkeypatch, cold_memos, program, mode):
    expected = []
    real = executor.make_test_case

    def with_oracle(solver, spec, pc, kind, line=None, multiplicity=1, **kwargs):
        case = real(solver, spec, pc, kind, line=line, multiplicity=multiplicity,
                    **kwargs)
        oracle = oracle_test_case(spec, pc, kind, line, multiplicity)
        assert (case is None) == (oracle is None)
        if oracle is not None:
            expected.append(oracle)
        return case

    monkeypatch.setattr(executor, "make_test_case", with_oracle)
    result = run_symbolic(program, **MODES[mode])
    assert result.tests.cases
    assert suite(result.tests.cases) == suite(expected)
    stats = result.stats
    # One query per test asked for; every group either solved or served.
    assert stats.testgen_queries == len(expected)
    assert stats.testgen_group_solves == len(testgen._GROUP_MEMO)
    assert stats.testgen_group_solves + stats.testgen_group_hits >= stats.testgen_queries
    assert stats.testgen_cost_units >= stats.testgen_group_solves


@pytest.mark.parametrize("program", CORPUS)
def test_suite_independent_of_exploration_order(cold_memos, program):
    dfs = run_symbolic(program, strategy="dfs")
    # BFS reaches the same leaves in another order, against the memo the
    # DFS run left behind: hits where DFS missed, same suite.
    bfs = run_symbolic(program, strategy="bfs")
    assert suite(dfs.tests.cases) == suite(bfs.tests.cases)
    assert bfs.stats.testgen_group_solves == 0
    assert bfs.stats.testgen_queries == dfs.stats.testgen_queries


@pytest.mark.parametrize("backend", ["inline", "process"])
def test_suite_independent_of_worker_count(cold_memos, backend):
    seq = run_parallel("wc", workers=1)
    memo.clear_memos()
    par = run_parallel("wc", parallel=ParallelConfig(workers=2, backend=backend))
    par.check_ledger()
    assert par.partitions > 0
    assert suite(par.tests.cases) == suite(seq.tests.cases)
    for merged in (seq.stats, par.stats):
        assert merged.testgen_queries == len(seq.tests.cases)
    # Which groups hit depends on which process saw them first; how many
    # were looked up does not.
    lookups = seq.stats.testgen_group_solves + seq.stats.testgen_group_hits
    assert par.stats.testgen_group_solves + par.stats.testgen_group_hits == lookups


@pytest.mark.parametrize("mode", ["plain", "dsm-qce"])
def test_eviction_is_neutral(monkeypatch, cold_memos, mode):
    roomy = run_symbolic("uniq", **MODES[mode])
    memo.clear_memos()
    for shared in memo._PROCESS_WIDE:
        monkeypatch.setattr(shared, "bound", 1)
    monkeypatch.setattr(QceSimilarity, "CELLS_MEMO_MAX", 1)
    tight = run_symbolic("uniq", **MODES[mode])
    assert suite(tight.tests.cases) == suite(roomy.tests.cases)
    assert all(len(shared) <= 1 for shared in memo._PROCESS_WIDE)
    # Eviction costs re-solves, never answers.
    assert tight.stats.testgen_group_solves >= roomy.stats.testgen_group_solves
    assert tight.stats.testgen_queries == roomy.stats.testgen_queries

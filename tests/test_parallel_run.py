"""End-to-end tests of the repro.parallel coordinator/worker subsystem.

The load-bearing properties:

* determinism — a 1-worker run, an inline 2-worker run, and a real
  process-pool 2-worker run all emit the same test multiset, cover the
  same blocks, and complete the same paths (plain mode);
* ledger — merged stats equal the per-participant sums exactly;
* work stealing — an exported frontier plus the remaining worklist
  still explores exactly the original path space;
* the engine refactor — sequential ``run()`` is the 1-worker special
  case of the partitioned code path.
"""

from collections import Counter

import pytest

from repro import codec
from repro.engine.executor import Engine, EngineConfig
from repro.engine.state import SymState
from repro.engine.stats import EngineStats
from repro.env.argv import ArgvSpec
from repro.env.runner import run_symbolic
from repro.experiments.harness import same_exploration
from repro.memo import clear_memos
from repro.parallel import Coordinator, ParallelConfig, run_parallel
from repro.programs.registry import get_program
from repro.solver.portfolio import SolverStats


def test_one_worker_equals_sequential_engine():
    seq = run_symbolic("wc")
    par = run_parallel("wc", workers=1)
    par.check_ledger()
    assert par.partitions == 0 and len(par.ledger) == 1
    same_exploration(seq, par, "1-worker run")


@pytest.mark.parametrize("program", ["wc", "uniq", "tsort"])
def test_inline_two_workers_matches_sequential(program):
    seq = run_parallel(program, workers=1)
    par = run_parallel(
        program, parallel=ParallelConfig(workers=2, backend="inline")
    )
    seq.check_ledger()
    par.check_ledger()
    assert par.partitions > 0, f"{program} never partitioned"
    same_exploration(seq, par, f"{program}: inline 2-worker run")


@pytest.mark.parametrize("program", ["wc", "tsort", "join", "uniq"])
def test_process_two_workers_matches_sequential(program):
    """Both arms start from cleared memos: forked workers would inherit
    the first arm's."""
    clear_memos()
    seq = run_parallel(program, workers=1)
    clear_memos()
    par = run_parallel(program, workers=2)
    par.check_ledger()
    assert par.parallel.backend == "process" and par.partitions > 0
    assert len(par.ledger) == 3  # coordinator + 2 workers
    same_exploration(seq, par, f"{program}: 2-worker run")
    # Both workers actually participated: the path work is split.
    worker_paths = [entry[1].paths_completed for entry in par.ledger[1:]]
    assert sum(worker_paths) > 0


def test_two_worker_plain_run_never_runs_the_qce_analysis(monkeypatch):
    """With two workers a steal has one possible victim, and choosing it
    must not resolve the scheduler's lazy Qt table — in plain mode that is
    a whole QCE analysis on the coordinator, blocking dispatch."""
    from repro.parallel import coordinator

    analysed = []
    real = coordinator.analyze_module

    def counted(module, params):
        analysed.append(module)
        return real(module, params)

    monkeypatch.setattr(coordinator, "analyze_module", counted)
    par = run_parallel("wc", parallel=ParallelConfig(workers=2, backend="process"))
    par.check_ledger()
    assert par.partitions > 0
    assert analysed == []


def test_two_worker_run_row_is_what_the_adaptive_split_reads(tmp_path):
    """The run row a partitioned run commits (through the split engine's
    ``commit_to_store``) carries the *merged* ledger and the mode suffix
    ``ReproStore.last_parallel_imbalance`` filters on — that query is the
    only reader of the mode string."""
    import json

    from repro.store import open_store

    path = str(tmp_path / "row.sqlite")
    par = run_parallel(
        "wc", store_path=path, parallel=ParallelConfig(workers=2, backend="inline"))
    assert par.store_warning is None
    store = open_store(path, readonly=True)
    try:
        (row,) = store.run_rows("wc")
        recorded = store.last_parallel_imbalance("wc")
    finally:
        store.close()
    (_id, program, _spec, mode, _started, _wall, queries, _runs, _hits, cost,
     paths, tests, stats_json) = row
    assert (program, mode) == ("wc", "none/never/dfs/workers=2")
    assert (paths, tests) == (par.paths, par.stats.tests_generated)
    assert (queries, cost) == (par.solver_stats.queries, par.solver_stats.cost_units)
    assert paths > par.ledger[0][1].paths_completed  # merged, not the split engine's
    assert json.loads(stats_json)["sched_imbalance"] == par.imbalance == recorded


def test_testgen_deterministic_across_exploration_orders():
    """The satellite regression: tests are a function of the path prefix,
    not of global exploration order — so DFS and BFS (which reach the
    same leaves in opposite orders) emit identical suites."""
    dfs = run_symbolic("uniq", strategy="dfs")
    bfs = run_symbolic("uniq", strategy="bfs")
    assert dfs.tests.multiset() == bfs.tests.multiset()


def test_export_frontier_preserves_path_space():
    """Work stealing's core soundness: exported states + the remaining
    worklist explore exactly the sequential path space, with no path
    explored twice (partition disjointness)."""
    info = get_program("uniq")
    spec = ArgvSpec(n_args=info.default_n, arg_len=info.default_l)

    def fresh_engine():
        eng = Engine(info.compile(), spec, EngineConfig(generate_tests=True))
        return eng

    baseline = fresh_engine()
    baseline.run()

    victim = fresh_engine()
    victim.seed_states([victim.make_initial_state()])
    victim.explore(interrupt=lambda eng: len(eng.worklist) >= 4)
    assert victim.interrupted
    stolen = victim.export_frontier(len(victim.worklist) // 2)
    assert stolen
    assert all(s not in victim.worklist for s in stolen)

    thief = fresh_engine()
    thief.seed_states(
        [SymState.from_snapshot(s.snapshot(), thief._fresh_sid()) for s in stolen]
    )
    thief.explore()
    victim.explore()

    combined = Counter(victim.tests.multiset()) + Counter(thief.tests.multiset())
    assert combined == Counter(baseline.tests.multiset())
    assert (
        victim.stats.paths_completed + thief.stats.paths_completed
        == baseline.stats.paths_completed
    )


def test_engine_stats_merge_laws():
    a = EngineStats(blocks_executed=5, forks=2, max_worklist=7, wall_time=1.0,
                    timed_out=False, states_created=3, testgen_queries=4,
                    testgen_cost_units=9, testgen_group_solves=3,
                    testgen_group_hits=8, testgen_corpus_hits=2)
    b = EngineStats(blocks_executed=11, forks=1, max_worklist=4, wall_time=0.5,
                    timed_out=True, states_created=2, testgen_queries=2,
                    testgen_cost_units=1, testgen_group_solves=1,
                    testgen_group_hits=5, testgen_corpus_hits=4)
    merged = EngineStats.merged([a, b])
    assert merged.blocks_executed == 16
    assert merged.forks == 3
    assert merged.states_created == 5
    # The test-generation layer's counters are plain event counts.
    assert merged.testgen_queries == 6
    assert merged.testgen_cost_units == 10
    assert merged.testgen_group_solves == 4
    assert merged.testgen_group_hits == 13
    assert merged.testgen_corpus_hits == 6
    assert merged.max_worklist == 7  # max, not sum
    assert merged.timed_out is True  # any-of
    assert merged.wall_time == pytest.approx(1.5)
    # Associativity/commutativity on the additive fields.
    ab = EngineStats.merged([a, b]).snapshot()
    ba = EngineStats.merged([b, a]).snapshot()
    assert ab == ba


def test_solver_stats_merge_is_additive():
    a = SolverStats(queries=4, sat_answers=3, unsat_answers=1, cost_units=10)
    b = SolverStats(queries=6, sat_answers=2, unsat_answers=3, timeouts=1,
                    cost_units=7)
    merged = SolverStats.merged([a, b])
    assert merged.queries == 10
    assert merged.cost_units == 17
    # The solver's own accounting identity survives the merge.
    assert merged.queries == merged.sat_answers + merged.unsat_answers + merged.timeouts


def test_engine_config_wire_roundtrip():
    from repro.expr import ops

    pre = (ops.ult(ops.bv_var("arg1_b0", 8), ops.bv(64, 8)),)
    config = EngineConfig(merging="dynamic", similarity="qce", strategy="coverage",
                          dsm_delta=5, seed=9, preconditions=pre)
    decoded = codec.loads(codec.dumps(config), EngineConfig)
    assert decoded.merging == "dynamic"
    assert decoded.dsm_delta == 5
    assert decoded.seed == 9
    assert len(decoded.preconditions) == 1
    assert decoded.preconditions[0] is pre[0]  # interning across codec


def test_parallel_with_merging_stays_sound():
    """Non-plain modes must stay sound under partitioning: identical block
    coverage and a valid ledger.  Path-count equality is *not* promised —
    ``paths_completed`` is the paper's multiplicity-weighted estimate,
    which depends on the merge schedule, and merging is partition-local
    by design (test-set equality is only promised for plain mode)."""
    seq = run_parallel("wc", workers=1, merging="dynamic", similarity="qce",
                       strategy="coverage")
    par = run_parallel("wc", merging="dynamic", similarity="qce", strategy="coverage",
                       parallel=ParallelConfig(workers=2, backend="inline"))
    seq.check_ledger()
    par.check_ledger()
    assert par.covered == seq.covered
    assert par.stats.states_terminated > 0
    # Partitioning happened and merging still fired inside partitions.
    assert par.partitions > 0


def test_budget_tripped_worker_terminates_cleanly():
    """A worker whose budget dies mid-run must still acknowledge every
    partition (no hang) and flag the merged result as timed out."""
    par = run_parallel(
        "uniq", max_steps=40,
        parallel=ParallelConfig(workers=2, backend="inline"),
    )
    par.check_ledger()
    assert par.stats.timed_out
    # The budget is per participant, so strictly less work happened than
    # in an unbudgeted run.
    full = run_parallel("uniq", workers=1)
    assert par.paths < full.paths


def test_coordinator_rejects_bad_config():
    info = get_program("wc")
    spec = ArgvSpec(n_args=info.default_n, arg_len=info.default_l)
    with pytest.raises(ValueError):
        Coordinator("wc", spec, EngineConfig(), ParallelConfig(workers=0))
    with pytest.raises(ValueError):
        Coordinator(
            "wc", spec, EngineConfig(), ParallelConfig(workers=2, backend="bogus")
        ).run()

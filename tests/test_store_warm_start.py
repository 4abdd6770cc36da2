"""Warm-start differential: cold vs. warm runs against one store.

The store's core promise (ISSUE 3 acceptance): a second run against a
populated store performs strictly fewer bottom-tier full blasts
(``sat_solver_runs``), emits the identical test multiset and coverage,
and a parallel run sharing one store still balances its stats ledger.
"""

import pytest

from repro.env.runner import run_symbolic
from repro.experiments.harness import same_exploration
from repro.memo import clear_memos
from repro.parallel import ParallelConfig, run_parallel
from repro.store import open_store
from test_store_tier_order import check_tier_order_ledger

# Small corpus programs that still exercise the SAT solver bottom tier.
WARM_PROGRAMS = ["echo", "sleep", "cut"]


@pytest.mark.parametrize("program", WARM_PROGRAMS)
def test_warm_start_differential(program, tmp_path):
    # The presolve tier answers most of these programs' queries before the
    # bottom tier; disable it so the differential isolates what the store
    # saves against the bit-blaster.
    path = str(tmp_path / "store.sqlite")
    cold = run_symbolic(program, generate_tests=True, store_path=path,
                        solver_fastpath=False)
    warm = run_symbolic(program, generate_tests=True, store_path=path,
                        solver_fastpath=False)

    # Identity: store hits are verdict-neutral, so the explored path
    # space, the (deterministically generated) tests, and coverage match.
    same_exploration(cold, warm, f"{program}: warm run")

    # Savings: strictly fewer full blasts (the acceptance criterion).
    assert cold.stats.sat_solver_runs > 0
    assert warm.stats.sat_solver_runs < cold.stats.sat_solver_runs
    assert warm.stats.store_hits > 0
    assert warm.stats.warm_models_seeded > 0

    # Cross-run metadata landed: two run rows, a non-empty corpus.
    store = open_store(path, readonly=True)
    assert len(store.run_rows(program)) == 2
    assert store.test_count(program) == len(cold.tests.cases)
    assert store.constraint_count() > 0
    store.close()


def test_warm_start_third_run_stable(tmp_path):
    """Repeated warm runs stay warm (the corpus dedups, nothing regresses)."""
    path = str(tmp_path / "store.sqlite")
    run_symbolic("echo", generate_tests=True, store_path=path)
    second = run_symbolic("echo", generate_tests=True, store_path=path)
    third = run_symbolic("echo", generate_tests=True, store_path=path)
    assert third.stats.sat_solver_runs <= second.stats.sat_solver_runs
    assert third.tests.multiset() == second.tests.multiset()
    store = open_store(path, readonly=True)
    assert store.test_count("echo") == len(third.tests.cases)  # deduplicated
    store.close()


def test_parallel_shared_store_ledger(tmp_path):
    """2-worker run with a shared store: single-writer commit + exact ledger."""
    path = str(tmp_path / "store.sqlite")
    inline = ParallelConfig(workers=2, backend="inline")
    cold = run_parallel("wc", parallel=inline, store_path=path)
    cold.check_ledger()
    clear_memos()  # what the warm run does not solve, the corpus answered
    warm = run_parallel("wc", parallel=inline, store_path=path)
    warm.check_ledger()

    same_exploration(cold, warm, "warm run")
    assert warm.stats.sat_solver_runs < cold.stats.sat_solver_runs
    # Seeding and presolve answer everything here before the store is
    # asked; what the ledgers owe is the tier-order law, workers summed.
    check_tier_order_ledger(cold.stats)
    check_tier_order_ledger(warm.stats)
    assert warm.stats.testgen_group_solves == 0 < warm.stats.testgen_corpus_hits

    # The coordinator (single writer) persisted the workers' buffered
    # inserts: the store carries constraints answered only inside workers.
    store = open_store(path, readonly=True)
    counts = store.counts()
    assert counts["constraints"] > 0
    assert counts["runs"] == 2
    assert counts["tests"] == len(cold.tests.cases)
    store.close()


def test_sequential_and_parallel_share_one_store(tmp_path):
    """A store written by a sequential run warms a parallel one, and back."""
    path = str(tmp_path / "store.sqlite")
    seq = run_symbolic("wc", generate_tests=True, store_path=path)
    par = run_parallel(
        "wc", parallel=ParallelConfig(workers=2, backend="inline"), store_path=path
    )
    par.check_ledger()
    check_tier_order_ledger(par.stats)
    assert par.stats.sat_solver_runs < seq.stats.sat_solver_runs
    assert par.tests.multiset() == seq.tests.multiset()
    seq2 = run_symbolic("wc", generate_tests=True, store_path=path)
    assert seq2.stats.sat_solver_runs < seq.stats.sat_solver_runs


def test_warm_start_across_processes(tmp_path):
    """Cross-process warm start: keys must not depend on interning history.

    Regression test for the subtle failure mode where warm-start core
    decoding at engine construction perturbs the interning order, flips
    eid-ordered commutative operands, and silently changes every
    path_id/named key — duplicating the corpus and losing store hits.
    Operand orientation is structural (``Expr.skey``) precisely so this
    holds; a cold and a warm *process* must agree on all keys.
    """
    import json
    import os
    import subprocess
    import sys
    from types import SimpleNamespace

    path = str(tmp_path / "store.sqlite")
    code = (
        "import json, sys\n"
        "from repro.env.runner import run_symbolic\n"
        "r = run_symbolic('wc', generate_tests=True, store_path=sys.argv[1])\n"
        "print(json.dumps({'blasts': r.stats.sat_solver_runs,\n"
        "                  'solver': r.stats.snapshot(),\n"
        "                  'cases': len(r.tests.cases),\n"
        "                  'models': sorted(c.model for c in r.tests.cases)}))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")

    def run_once():
        proc = subprocess.run(
            [sys.executable, "-c", code, path],
            capture_output=True, text=True, env=env, timeout=120,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.strip().splitlines()[-1])

    cold = run_once()
    warm = run_once()
    assert warm["models"] == cold["models"], "warm process changed the tests"
    assert warm["blasts"] < cold["blasts"]
    # Store traffic is whatever reached the bottom tier, no more: since
    # branch queries are slices, seeding and presolve leave warm ``wc``
    # nothing to ask the store, so ``store_hits`` owes the ledger, not > 0.
    for run in (cold, warm):
        check_tier_order_ledger(SimpleNamespace(**run["solver"]))
    assert cold["solver"]["store_misses"] > 0 == cold["solver"]["store_hits"]

    from repro.store import open_store

    store = open_store(path, readonly=True)
    # Perfect cross-process dedup: the second run re-derived identical
    # path ids for every path, adding zero corpus rows.
    assert store.test_count("wc") == cold["cases"]
    store.close()

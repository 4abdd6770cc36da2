"""The store sits at the bottom of the solver chain, and only there.

Tier order with a store attached: cache → split → presolve → rewrite-fold
→ store → blast.  The **tier-order ledger law** pins it from the counters
alone: ``store_hits + store_misses`` is the number of independence groups
that reached the bottom tier, ``store_misses`` the number of bottom-tier
solves run, and nothing but those solves (and the UNSAT cores extracted
from them) is ever inserted.  The laws that predate the move — ledger
balance, fastpath neutrality, warm-start neutrality — hold unchanged, and
a store whose rows were written under the old order (whole queries,
presolve verdicts) stays usable.
"""

import pytest

from repro.engine import executor
from repro.env.runner import run_symbolic
from repro.experiments.harness import MODES
from repro.expr import ops
from repro.memo import clear_memos
from repro.solver.portfolio import IncrementalChain, SolverChain
from repro.store import PersistentTier, open_store
from test_engine_testgen_memo import suite

MINI_CORPUS = ["echo", "wc", "uniq"]

X = ops.bv_var("to_x", 8)
Y = ops.bv_var("to_y", 8)
# Undecided by the abstract domains and untouched by the rewrite: a probe.
HARD = [ops.eq(ops.mul(X, Y), ops.bv(143, 8)), ops.ult(ops.bv(1, 8), X), ops.ult(X, Y)]


def check_tier_order_ledger(stats, incremental: bool = True) -> None:
    """The tier-order ledger law on one chain's (or a merged) Stats record."""
    solves = stats.assumption_probes if incremental else stats.sat_solver_runs
    assert stats.store_misses == solves
    assert stats.store_inserts <= stats.store_misses + stats.unsat_cores
    assert stats.queries == stats.sat_answers + stats.unsat_answers + stats.timeouts


class CountingTier(PersistentTier):
    """Counts the groups the chain brings to the bottom tier."""

    lookups = 0

    def lookup(self, flat):
        self.lookups += 1
        return super().lookup(flat)


@pytest.mark.parametrize("mode", ["plain", "dsm-qce"])
@pytest.mark.parametrize("program", MINI_CORPUS)
def test_tier_order_ledger_cold_warm_readonly(monkeypatch, tmp_path, program, mode):
    from repro import store as store_pkg

    monkeypatch.setattr(store_pkg, "PersistentTier", CountingTier)
    path = str(tmp_path / "store.sqlite")
    runs = {}
    for phase, readonly in (("cold", False), ("warm", False), ("worker", True)):
        clear_memos()
        run = run_symbolic(program, generate_tests=True, store_path=path,
                           store_readonly=readonly, **MODES[mode])
        stats = run.stats
        check_tier_order_ledger(stats)
        assert stats.store_hits + stats.store_misses == run.engine.solver.persistent.lookups
        runs[phase] = run
    cold, warm, worker = runs["cold"], runs["warm"], runs["worker"]
    assert cold.stats.store_hits == 0  # never this run's own buffer
    assert suite(warm.tests.cases) == suite(cold.tests.cases) == suite(worker.tests.cases)
    assert warm.paths == cold.paths == worker.paths
    for later in (warm, worker):
        assert later.stats.sat_solver_runs <= cold.stats.sat_solver_runs
        assert later.stats.store_rejects == 0
    # A read-only engine buffers what it solved and commits nothing.
    store = open_store(path, readonly=True)
    assert len(store.run_rows(program)) == 2
    store.close()


@pytest.mark.parametrize("chain_cls", [SolverChain, IncrementalChain])
def test_presolve_decidable_query_never_reaches_the_store(chain_cls):
    class Unreachable:
        rejects = 0

        def lookup(self, flat):
            raise AssertionError("store consulted above the bottom tier")

        record = record_core = lookup

    chain = chain_cls(persistent=Unreachable())
    assert chain.check([ops.ult(X, ops.bv(100, 8))]).is_sat
    assert not chain.check([ops.ult(X, ops.bv(100, 8)), ops.ult(ops.bv(200, 8), X)]).is_sat
    # Two groups, both decided above the bottom; then an exact cache hit.
    for _ in range(2):
        assert chain.check([ops.ult(X, ops.bv(9, 8)), ops.eq(Y, ops.bv(3, 8))]).is_sat
    assert chain.stats.fastpath_hits >= 3
    assert chain.stats.store_hits == chain.stats.store_misses == 0
    with pytest.raises(AssertionError):
        chain.check(HARD)


@pytest.mark.parametrize("chain_cls", [SolverChain, IncrementalChain])
def test_bottom_tier_miss_solves_once_and_records_that_solve(tmp_path, chain_cls):
    incremental = chain_cls is IncrementalChain
    store = open_store(tmp_path / "s.sqlite")
    tier = PersistentTier(store)
    chain = chain_cls(persistent=tier, use_cache=False)
    easy = ops.ult(ops.bv_var("to_z", 8), ops.bv(7, 8))
    first = chain.check(HARD + [easy])
    assert first.is_sat
    assert (chain.stats.store_hits, chain.stats.store_misses) == (0, 1)
    assert chain.stats.store_inserts == 1 and tier.pending_count == 1
    check_tier_order_ledger(chain.stats, incremental)
    assert tier.flush() == 1

    # Another chain, another run: the group alone is what the row answers
    # — inside a different whole query, verified, with no solve.
    warm_tier = PersistentTier(store)
    warm = chain_cls(persistent=warm_tier, use_cache=False)
    second = warm.check([ops.ult(ops.bv_var("to_w", 8), ops.bv(3, 8))] + HARD)
    assert second.is_sat
    assert {k: second.model[k] for k in ("to_x", "to_y")} == {
        k: first.model[k] for k in ("to_x", "to_y")}
    assert (warm.stats.store_hits, warm.stats.store_misses) == (1, 0)
    assert warm.stats.sat_solver_runs == warm.stats.assumption_probes == 0
    assert warm_tier.pending_count == 0
    check_tier_order_ledger(warm.stats, incremental)
    store.close()


def test_unsat_core_is_the_only_extra_insert(tmp_path):
    store = open_store(tmp_path / "s.sqlite")
    chain = IncrementalChain(persistent=PersistentTier(store), use_cache=False,
                             use_fastpath=False)
    unsat = HARD + [ops.ult(Y, ops.bv(12, 8)), ops.ult(ops.bv(200, 8), ops.bvxor(X, Y))]
    assert not chain.check(unsat).is_sat
    stats = chain.stats
    assert stats.store_misses == stats.assumption_probes == 1
    assert stats.unsat_cores == 1  # the xor constraint is not in the conflict
    assert stats.store_inserts == 2
    check_tier_order_ledger(stats)
    store.close()


@pytest.mark.parametrize("mode", ["plain", "dsm-qce"])
def test_parent_layout_store_still_warms(monkeypatch, tmp_path, mode):
    """Rows keyed by whole queries (what the chain recorded while the store
    sat above the split) are valid where a group has the same key and
    unreachable otherwise: the store opens, seeds, and changes nothing."""
    path = str(tmp_path / "old.sqlite")
    real_check = SolverChain.check

    def check_and_record_whole_query(self, constraints):
        constraints = list(constraints)
        result = real_check(self, constraints)
        flat, const_false = self._flatten(constraints)
        if self.persistent is not None and flat and not const_false:
            self.persistent.record(flat, result.is_sat, result.model)
        return result

    with monkeypatch.context() as patched:
        patched.setattr(SolverChain, "check", check_and_record_whole_query)
        old = run_symbolic("uniq", generate_tests=True, store_path=path, **MODES[mode])
    store = open_store(path, readonly=True)
    assert store.constraint_count() > old.stats.store_misses  # whole-query rows
    store.close()

    clear_memos()
    reference = run_symbolic("uniq", generate_tests=True, **MODES[mode])
    clear_memos()
    warm = run_symbolic("uniq", generate_tests=True, store_path=path, **MODES[mode])
    assert warm.stats.warm_models_seeded > 0
    assert warm.paths == reference.paths
    assert suite(warm.tests.cases) == suite(reference.tests.cases)
    assert warm.engine.coverage.covered == reference.engine.coverage.covered
    assert warm.stats.store_rejects == 0
    assert warm.stats.sat_solver_runs <= old.stats.sat_solver_runs
    check_tier_order_ledger(warm.stats)


@pytest.mark.parametrize("incremental", [True, False])
def test_fastpath_neutrality_with_a_store(monkeypatch, tmp_path, incremental):
    """``use_fastpath`` off ≡ on with a store attached, cold and warm: the
    same paths, tests and coverage; only which tier answers moves."""
    if not incremental:  # the engine builds executor.IncrementalChain
        monkeypatch.setattr(executor, "IncrementalChain", SolverChain)
    results = {}
    for fastpath in (False, True):
        path = str(tmp_path / f"fast{fastpath}.sqlite")
        for phase in ("cold", "warm"):
            clear_memos()
            run = run_symbolic(
                "wc", generate_tests=True, store_path=path, solver_fastpath=fastpath,
            )
            check_tier_order_ledger(run.stats, incremental)
            results[fastpath, phase] = run
    reference = results[False, "cold"]
    for run in results.values():
        assert run.paths == reference.paths
        assert suite(run.tests.cases) == suite(reference.tests.cases)
        assert run.engine.coverage.covered == reference.engine.coverage.covered
    assert results[True, "cold"].stats.fastpath_hits > 0
    assert results[False, "cold"].stats.fastpath_hits == 0
    # Presolve takes the traffic the store used to intercept.
    assert (results[True, "cold"].stats.store_misses
            < results[False, "cold"].stats.store_misses)

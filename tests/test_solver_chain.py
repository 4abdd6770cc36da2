"""SolverChain end-to-end behavior and statistics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.expr import ops
from repro.expr.evaluate import evaluate
from repro.solver.portfolio import (
    IncrementalChain,
    SolverChain,
    SolverTimeout,
    complete_model,
)

X = ops.bv_var("px8", 8)
Y = ops.bv_var("py8", 8)


def test_empty_is_sat():
    assert SolverChain().check([]).is_sat


def test_const_false_short_circuits():
    chain = SolverChain()
    result = chain.check([ops.FALSE])
    assert not result.is_sat
    assert chain.stats.const_answers == 1


def test_conjunction_flattening():
    chain = SolverChain()
    combined = ops.and_(ops.ult(X, ops.bv(10, 8)), ops.ult(ops.bv(3, 8), X))
    result = chain.check([combined])
    assert result.is_sat
    assert 3 < result.model["px8"] < 10


def test_model_covers_split_groups():
    chain = SolverChain()
    result = chain.check([ops.eq(X, ops.bv(1, 8)), ops.eq(Y, ops.bv(2, 8))])
    assert result.is_sat
    assert result.model["px8"] == 1 and result.model["py8"] == 2


def test_cache_avoids_resolving():
    chain = SolverChain()
    constraints = [ops.eq(ops.mul(X, Y), ops.bv(35, 8)), ops.ult(X, Y),
                   ops.ult(ops.bv(1, 8), X)]
    first = chain.check(constraints)
    runs_after_first = chain.stats.sat_solver_runs
    second = chain.check(constraints)
    assert first.is_sat == second.is_sat
    assert chain.stats.sat_solver_runs == runs_after_first
    assert chain.cache.hits >= 1


def test_must_and_may_helpers():
    chain = SolverChain()
    pc = [ops.ult(X, ops.bv(10, 8))]
    assert chain.must_be_true(pc, ops.ult(X, ops.bv(11, 8)))
    assert not chain.must_be_true(pc, ops.ult(X, ops.bv(5, 8)))
    assert chain.may_be_true(pc, ops.ult(X, ops.bv(5, 8)))
    assert not chain.may_be_true(pc, ops.ult(ops.bv(10, 8), X))


def test_get_model_unsat_returns_none():
    chain = SolverChain()
    assert chain.get_model([ops.FALSE]) is None


def test_complete_model_fills_zero():
    model = complete_model({"a": 5}, ["a", "b", "c"])
    assert model == {"a": 5, "b": 0, "c": 0}


def test_timeout_raises():
    # Pigeonhole (6 pigeons, 5 holes): UNSAT and resistant to propagation,
    # so a 5-conflict budget is guaranteed to trip.
    holes = 5
    constraints = []
    for p in range(holes + 1):
        constraints.append(ops.or_all([ops.bool_var(f"to{p}_{h}") for h in range(holes)]))
    for h in range(holes):
        for p1 in range(holes + 1):
            for p2 in range(p1 + 1, holes + 1):
                constraints.append(
                    ops.not_(ops.and_(ops.bool_var(f"to{p1}_{h}"),
                                      ops.bool_var(f"to{p2}_{h}")))
                )
    chain = SolverChain(conflict_budget=5, use_fastpath=False, use_cache=False,
                        use_independence=False)
    with pytest.raises(SolverTimeout):
        chain.check(constraints)
    assert chain.stats.timeouts == 1


def test_disabled_tiers_still_correct():
    for cache, fastpath, independence in [(False, False, False), (True, False, True)]:
        chain = SolverChain(use_cache=cache, use_fastpath=fastpath,
                            use_independence=independence)
        assert chain.check([ops.ult(X, ops.bv(4, 8))]).is_sat
        assert not chain.check([ops.ult(X, ops.bv(4, 8)),
                                ops.ult(ops.bv(9, 8), X)]).is_sat


@given(st.integers(0, 255), st.integers(1, 254))
@settings(max_examples=40, deadline=None)
def test_models_always_evaluate_true(a, b):
    chain = SolverChain()
    constraints = [ops.eq(ops.add(X, ops.bv(a, 8)), ops.bv(b, 8)),
                   ops.ule(Y, ops.bv(b, 8))]
    result = chain.check(constraints)
    assert result.is_sat
    model = complete_model(result.model, ["px8", "py8"])
    for c in constraints:
        assert evaluate(c, model) == 1


def _pigeonhole_constraints(holes=5):
    """PHP(holes+1, holes) as boolean exprs: UNSAT, propagation-resistant."""
    constraints = []
    for p in range(holes + 1):
        constraints.append(ops.or_all([ops.bool_var(f"ph{p}_{h}") for h in range(holes)]))
    for h in range(holes):
        for p1 in range(holes + 1):
            for p2 in range(p1 + 1, holes + 1):
                constraints.append(
                    ops.not_(ops.and_(ops.bool_var(f"ph{p1}_{h}"),
                                      ops.bool_var(f"ph{p2}_{h}")))
                )
    return constraints


def test_cached_model_cannot_clobber_other_group():
    """Regression: a cached full-assignment model reused for one
    independence group must not overwrite another group's bindings.

    The first query caches a full model with a=1.  The second query's
    b-group hits the model-reuse tier and gets that full model back; only
    its own variable (b) may be taken from it, or it would clobber the
    a-group's fresh a=2 solution.
    """
    a = ops.bv_var("cga", 8)
    b = ops.bv_var("cgb", 8)
    b_group = [ops.ult(ops.bv(0, 8), b), ops.ult(b, ops.bv(100, 8))]
    chain = SolverChain()
    first = chain.check([ops.eq(a, ops.bv(1, 8))] + b_group)
    assert first.is_sat and first.model["cga"] == 1
    second = chain.check([ops.eq(a, ops.bv(2, 8))] + b_group)
    assert second.is_sat
    assert second.model["cga"] == 2, "stale cached binding clobbered the a-group"
    full = complete_model(second.model, ["cga", "cgb"])
    for c in [ops.eq(a, ops.bv(2, 8))] + b_group:
        assert evaluate(c, full) == 1


@pytest.mark.parametrize("chain_cls", [SolverChain, IncrementalChain])
def test_timeout_keeps_answer_ledger_consistent(chain_cls):
    """queries == sat_answers + unsat_answers + timeouts, even on timeout."""
    chain = chain_cls(conflict_budget=5, use_fastpath=False, use_cache=False,
                      use_independence=False)
    with pytest.raises(SolverTimeout):
        chain.check(_pigeonhole_constraints())
    stats = chain.stats
    assert stats.timeouts == 1
    assert stats.sat_answers == 0 and stats.unsat_answers == 0
    assert stats.queries == stats.sat_answers + stats.unsat_answers + stats.timeouts


def test_timeout_resets_persistent_blaster_and_recovers():
    """After a timeout the stale blaster is dropped; the chain stays usable
    and re-solves the same query correctly once the budget allows."""
    hard = _pigeonhole_constraints()
    chain = IncrementalChain(conflict_budget=5, use_fastpath=False, use_cache=False,
                             use_independence=False)
    with pytest.raises(SolverTimeout):
        chain.check(hard)
    assert chain.stats.blasters_created == 1
    assert chain.stats.blasters_reset == 1
    assert not chain._blasters, "timed-out blaster must not linger"
    # The chain remains usable for unrelated queries...
    assert chain.check([ops.ult(X, ops.bv(4, 8))]).is_sat
    # ...and the hard query succeeds after raising the budget, on a fresh
    # blaster (rebuilt lazily, not the stale one).
    chain.conflict_budget = 200_000
    assert not chain.check(hard).is_sat
    assert chain.stats.blasters_created == 3
    assert chain.stats.queries == (chain.stats.sat_answers + chain.stats.unsat_answers
                                   + chain.stats.timeouts)


def test_incremental_chain_matches_on_chain_unit_cases():
    """The base-chain unit scenarios hold verbatim on the incremental tier."""
    chain = IncrementalChain()
    assert chain.check([]).is_sat
    assert not chain.check([ops.FALSE]).is_sat
    result = chain.check([ops.eq(X, ops.bv(1, 8)), ops.eq(Y, ops.bv(2, 8))])
    assert result.is_sat
    assert result.model["px8"] == 1 and result.model["py8"] == 2
    pc = [ops.ult(X, ops.bv(10, 8))]
    assert chain.must_be_true(pc, ops.ult(X, ops.bv(11, 8)))
    assert chain.may_be_true(pc, ops.ult(X, ops.bv(5, 8)))
    assert not chain.may_be_true(pc, ops.ult(ops.bv(10, 8), X))


def test_branch_elision_rests_on_the_satisfiable_pc_invariant():
    """check_branch elides the ¬cond query on the caller's word that pc is SAT.

    The satisfiable-pc invariant is the evidence — not the cache — so both
    chains elide, with and without a cache, and ask exactly one query.
    """
    x = ops.bv_var("bex", 8)
    pc = [ops.ult(x, ops.bv(10, 8))]  # satisfiable: the caller's invariant
    cond = ops.ult(ops.bv(20, 8), x)  # infeasible under pc
    for chain in (IncrementalChain(), IncrementalChain(use_cache=False),
                  SolverChain(), SolverChain(use_cache=False)):
        then_res, else_res = chain.check_branch(pc, cond)
        assert not then_res.is_sat and else_res.is_sat
        assert else_res.model is None  # nothing was solved for that arm
        assert chain.stats.branch_elisions == 1
        assert chain.stats.queries == 1
    # A feasible ``cond`` arm proves nothing about the other: both are asked.
    chain = IncrementalChain()
    then_res, else_res = chain.check_branch(pc, ops.ult(x, ops.bv(5, 8)))
    assert then_res.is_sat and else_res.is_sat
    assert chain.stats.branch_elisions == 0 and chain.stats.queries == 2


@pytest.mark.parametrize("chain_cls", [SolverChain, IncrementalChain])
def test_one_group_query_is_looked_up_and_stored_once(chain_cls, monkeypatch):
    """The cache is asked about, and told, a query's constraint set once
    when the set is one independence group; a split set also files each
    group of more than one constraint."""
    calls = []
    chain = chain_cls()

    def counted(name):
        real = getattr(chain.cache, name)

        def call(*args):
            calls.append(name)
            return real(*args)
        return call

    for name in ("lookup", "store"):
        monkeypatch.setattr(chain.cache, name, counted(name))
    one_group = [ops.ult(X, Y), ops.ult(Y, ops.bv(9, 8)), ops.eq(ops.bvand(X, Y), ops.bv(1, 8))]
    assert chain.check(one_group).is_sat
    assert calls == ["lookup", "store"]
    calls.clear()
    z = ops.bv_var("pz8", 8)
    w = ops.bv_var("pw8", 8)
    assert chain.check([ops.ult(z, w), ops.ult(w, ops.bv(5, 8)), ops.eq(X, ops.bv(2, 8))]).is_sat
    assert calls == ["lookup", "lookup", "store", "store"]

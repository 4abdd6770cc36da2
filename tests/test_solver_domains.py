"""Fast-path (equality propagation / probing / interval refutation) tests,
through the entry the solver chain itself uses."""

from repro.expr import ops
from repro.solver.portfolio import SolverChain
from repro.solver.presolve import SAT, UNKNOWN, UNSAT, PresolveManager, group_signature

X = ops.bv_var("dx", 8)
Y = ops.bv_var("dy", 8)


def decide(group):
    """One group, decided from scratch: ``SolverChain._check_group``'s call."""
    return PresolveManager().check_group(group, group_signature(group))


def test_trivial_cases():
    # Constants never reach the tier: the chain folds them while flattening.
    chain = SolverChain()
    assert chain.check([ops.TRUE]).is_sat
    assert not chain.check([ops.FALSE]).is_sat
    assert chain.check([]).is_sat
    assert chain.stats.const_answers == 3


def test_equality_propagation_sat():
    verdict, model = decide([ops.eq(X, ops.bv(7, 8)), ops.ult(X, ops.bv(10, 8))])
    assert verdict == SAT
    assert model["dx"] == 7


def test_equality_propagation_unsat():
    verdict, _ = decide([ops.eq(X, ops.bv(7, 8)), ops.ult(ops.bv(9, 8), X)])
    assert verdict == UNSAT


def test_chained_equalities():
    verdict, model = decide(
        [ops.eq(X, ops.bv(3, 8)), ops.eq(Y, ops.add(X, ops.bv(1, 8)))]
    )
    assert verdict == SAT
    assert model["dy"] == 4


def test_interval_refutation():
    # x < 5 and 10 < x is impossible; intervals see it without SAT.
    verdict, _ = decide([ops.ult(X, ops.bv(5, 8)), ops.ult(ops.bv(10, 8), X)])
    assert verdict == UNSAT


def test_interval_refutation_through_add():
    # x <= 10 implies x + 5 <= 15, so x + 5 == 200 is impossible (no wrap).
    verdict, _ = decide(
        [ops.ule(X, ops.bv(10, 8)), ops.eq(ops.add(X, ops.bv(5, 8)), ops.bv(200, 8))]
    )
    assert verdict == UNSAT


def test_probe_finds_easy_model():
    verdict, model = decide([ops.ult(ops.bv(10, 8), X)])
    assert verdict == SAT
    assert model["dx"] > 10


def test_unknown_on_hard_constraint():
    # Multiplicative relation: out of the fast path's reach.
    verdict, _ = decide([ops.eq(ops.mul(X, Y), ops.bv(143, 8)), ops.ult(X, Y),
                              ops.ult(ops.bv(1, 8), X)])
    assert verdict in (UNKNOWN, SAT)  # probing may get lucky, never UNSAT


def test_soundness_no_false_verdicts():
    """Fast path answers must agree with the bit-blaster on a small sweep."""
    from repro.solver.bitblast import check_sat

    candidates = [
        [ops.ult(X, ops.bv(128, 8)), ops.eq(ops.bvand(X, ops.bv(1, 8)), ops.bv(1, 8))],
        [ops.eq(ops.add(X, Y), ops.bv(0, 8)), ops.ult(X, ops.bv(4, 8))],
        [ops.ule(X, ops.bv(0, 8)), ops.eq(X, ops.bv(0, 8))],
        [ops.ne(X, ops.bv(0, 8)), ops.ult(X, ops.bv(1, 8))],
    ]
    for constraints in candidates:
        verdict, model = decide(constraints)
        truth, _, _ = check_sat(constraints)
        if verdict == SAT:
            assert truth
        elif verdict == UNSAT:
            assert not truth

"""Test-case generation."""

import pytest

from repro.engine import testgen
from repro.engine.testgen import TestCase, TestSuite, deterministic_model, make_test_case
from repro.env.argv import ArgvSpec
from repro.expr import nodes as N
from repro.expr import ops
from repro.expr.nodes import Expr
from repro.expr.sorts import BOOL
from repro.memo import clear_memos
from repro.solver.portfolio import SolverChain
from repro.stats import Stats


def test_make_test_case_decodes_argv():
    spec = ArgvSpec(n_args=1, arg_len=2)
    solver = SolverChain()
    b0 = ops.bv_var("arg1_b0", 8)
    b1 = ops.bv_var("arg1_b1", 8)
    pc = (ops.eq(b0, ops.bv(ord("h"), 8)), ops.eq(b1, ops.bv(0, 8)))
    case = make_test_case(solver, spec, pc, "path", multiplicity=3)
    assert case is not None
    assert case.argv == (b"prog", b"h")
    assert case.multiplicity == 3
    assert case.model_dict()["arg1_b0"] == ord("h")


def test_make_test_case_unsat_returns_none():
    spec = ArgvSpec(n_args=1, arg_len=1)
    solver = SolverChain()
    case = make_test_case(solver, spec, (ops.FALSE,), "path")
    assert case is None


def test_unconstrained_bytes_default_zero():
    spec = ArgvSpec(n_args=1, arg_len=2)
    case = make_test_case(SolverChain(), spec, (), "path")
    assert case.argv == (b"prog", b"")


def test_suite_partitions_kinds():
    spec = ArgvSpec(n_args=1, arg_len=1)
    suite = TestSuite(spec)
    suite.add(TestCase("path", (b"p",), (), exit_code=0))
    suite.add(TestCase("assert", (b"p",), (), line=3))
    suite.add(TestCase("bounds", (b"p",), (), line=9))
    assert len(suite.paths()) == 1
    assert len(suite.errors()) == 2


# -- deterministic (memoised, history-free) generation: pinned edge cases ----

@pytest.fixture
def fresh_memo():
    clear_memos()
    yield
    clear_memos()


def test_deterministic_constant_false_pc_is_none(fresh_memo):
    x = ops.bv_var("arg1_b0", 8)
    stats = Stats()
    pc = (ops.eq(x, ops.bv(1, 8)), ops.FALSE)
    assert deterministic_model(pc, stats_sink=stats) is None
    # One query asked, nothing solved, nothing memoised.
    assert (stats.testgen_queries, stats.testgen_group_solves) == (1, 0)
    assert stats.testgen_cost_units == 0
    assert not testgen._GROUP_MEMO


def test_deterministic_empty_pc_completes_to_zeros(fresh_memo):
    spec = ArgvSpec(n_args=1, arg_len=2)
    assert deterministic_model(()) == {}
    case = make_test_case(SolverChain(), spec, (ops.TRUE,), "path")
    assert case.argv == (b"prog", b"")
    assert set(case.model_dict().values()) == {0}


def test_deterministic_memo_hit_returns_a_copy(fresh_memo):
    x = ops.bv_var("arg1_b0", 8)
    pc = (ops.ult(ops.bv(7, 8), x),)
    stats = Stats()
    first = deterministic_model(pc, stats_sink=stats)
    witness = dict(first)
    first["arg1_b0"] = 0  # a caller scribbling on its model ...
    first["junk"] = 1
    again = deterministic_model(pc, stats_sink=stats)
    assert again == witness  # ... must not poison later tests
    assert again is not first
    assert (stats.testgen_group_solves, stats.testgen_group_hits) == (1, 1)
    assert stats.testgen_queries == 2


def test_deterministic_group_key_is_ordered(fresh_memo):
    """[a, b] and [b, a] are different memo entries: the history-free solve
    is a function of the constraint *list*, so neither ordering may be
    answered with whatever the other one happened to produce first."""
    x = ops.bv_var("arg1_b0", 8)
    a, b = ops.ult(ops.bv(3, 8), x), ops.ult(x, ops.bv(200, 8))
    stats = Stats()
    for pc in ((a, b), (b, a)):
        model = deterministic_model(pc, stats_sink=stats)
        assert model == SolverChain(use_cache=False).check(list(pc)).model
    assert (stats.testgen_group_solves, stats.testgen_group_hits) == (2, 0)


def test_deterministic_ground_singleton_groups(fresh_memo):
    """Variable-free conjuncts the constructors did not fold are groups of
    their own; they contribute a verdict and no bindings."""
    x = ops.bv_var("arg1_b0", 8)
    ground_true = Expr._make(N.ULT, BOOL, (ops.bv(1, 8), ops.bv(2, 8)))
    ground_false = Expr._make(N.ULT, BOOL, (ops.bv(2, 8), ops.bv(1, 8)))
    assert not ground_true.variables and not ground_true.is_true()
    stats = Stats()
    model = deterministic_model((ground_true, ops.eq(x, ops.bv(9, 8))), stats_sink=stats)
    assert model == {"arg1_b0": 9}
    assert stats.testgen_group_solves == 2
    assert deterministic_model((ops.eq(x, ops.bv(9, 8)), ground_false)) is None


def test_deterministic_unsat_group_short_circuits(fresh_memo):
    x = ops.bv_var("arg1_b0", 8)
    y = ops.bv_var("arg1_b1", 8)
    z = ops.bv_var("arg2_b0", 8)
    sat_x = ops.eq(x, ops.bv(5, 8))
    unsat_y = (ops.ult(y, ops.bv(3, 8)), ops.ult(ops.bv(9, 8), y))
    sat_z = ops.eq(z, ops.bv(6, 8))
    stats = Stats()
    assert deterministic_model((sat_x, *unsat_y, sat_z), stats_sink=stats) is None
    # The z group after the contradiction is never reached, and what was
    # memoised is per-group verdicts only — never a partial whole-pc model.
    assert stats.testgen_group_solves == 2
    assert testgen._GROUP_MEMO == {
        (sat_x.eid,): {"arg1_b0": 5},
        tuple(c.eid for c in unsat_y): None,
    }
    # The satisfiable neighbours are unaffected afterwards.
    assert deterministic_model((sat_x, sat_z)) == {"arg1_b0": 5, "arg2_b0": 6}


# -- error witnesses are models of the whole error pc -------------------------

PINNED_THEN_CHECKED = """
int main(int argc, char argv[][]) {
    char t[4] = { 1, 2, 3, 4 };
    char a = argv[1][0];
    char b = argv[1][1];
    if (a == 'k') {
        assert(b != 'z');
        if (b < 8) return t[b];
    }
    return 0;
}
"""


def test_error_witness_satisfies_the_whole_error_pc(fresh_memo):
    """An earlier branch pins byte 0; the assert and the bounds check depend
    on byte 1 alone, so the feasibility query that finds each error sees —
    and its model binds — only byte 1's slice.  The emitted input must
    still reach the error: it is solved from the whole error pc."""
    from repro.engine.executor import Engine
    from repro.lang import compile_program
    from repro.lang.interp import AssertionFailure, OutOfBounds, run_concrete

    module = compile_program(PINNED_THEN_CHECKED, name="pinned")
    engine = Engine(module, ArgvSpec(n_args=1, arg_len=2))
    engine.run()
    errors = engine.tests.errors()
    assert sorted(case.kind for case in errors) == ["assert", "bounds"]
    raised = {"assert": AssertionFailure, "bounds": OutOfBounds}
    for case in errors:
        assert case.argv[1][:1] == b"k"
        with pytest.raises(raised[case.kind]) as failure:
            run_concrete(module, list(case.argv))
        assert failure.value.line == case.line
    for case in engine.tests.paths():
        run_concrete(module, list(case.argv))  # and no path test trips one

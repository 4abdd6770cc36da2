"""Executor integration: forking, calls, memory, terminal paths."""

import pytest

from repro.engine import Engine, EngineConfig
from repro.env import ArgvSpec
from repro.lang import compile_program

MAIN = "int main(int argc, char argv[][]) { %s }"


def run_sym(body, n_args=1, arg_len=2, src=None, **config):
    module = compile_program(src if src is not None else MAIN % body)
    engine = Engine(module, ArgvSpec(n_args=n_args, arg_len=arg_len),
                    EngineConfig(merging="none", similarity="never", strategy="dfs",
                                 **config))
    stats = engine.run()
    return engine, stats


def test_branch_on_symbolic_byte_forks():
    engine, stats = run_sym("if (argv[1][0] == 'x') return 1; return 0;")
    assert stats.forks == 1
    assert stats.paths_completed == 2


def test_concrete_branch_no_fork_no_query():
    engine, stats = run_sym("if (argc == 2) return 1; return 0;", generate_tests=False)
    assert stats.forks == 0
    assert engine.stats.queries == 0  # branch decided concretely
    assert stats.paths_completed == 1


def test_infeasible_branch_pruned():
    engine, stats = run_sym(
        "char c = argv[1][0]; if (c < 10) { if (c > 200) return 9; return 1; } return 0;"
    )
    # c < 10 && c > 200 is infeasible: no path returns 9
    assert stats.paths_completed == 3 - 1


def test_nested_call_and_return_value():
    src = """
    int add3(int v) { return v + 3; }
    int main(int argc, char argv[][]) { return add3(argc); }
    """
    engine, stats = run_sym("", src=src)
    assert stats.paths_completed == 1
    terminal_exit = engine.tests.cases[0].argv  # generated a test per path
    assert stats.states_terminated == 1


def test_loop_over_symbolic_string():
    engine, stats = run_sym(
        "int n = 0; for (int i = 0; argv[1][i]; i++) n++; return n;", arg_len=3
    )
    # strings of length 0..3 -> 4 paths
    assert stats.paths_completed == 4


def test_symbolic_index_load_chain():
    engine, stats = run_sym(
        "char c = argv[1][0]; int i = 0; if (c >= '0' && c <= '3') i = c - '0';"
        " char buf[4] = \"abcd\"; return buf[i];"
    )
    assert stats.paths_completed >= 2


def test_bounds_error_reported_for_symbolic_index():
    engine, stats = run_sym(
        "int i = argv[1][0]; char buf[4]; return buf[i];"
    )
    assert stats.errors_found >= 1
    bounds_cases = [c for c in engine.tests.cases if c.kind == "bounds"]
    assert bounds_cases
    # the offending input byte must actually be >= 4
    model = bounds_cases[0].model_dict()
    assert model.get("arg1_b0", 0) >= 4 or bounds_cases[0].argv[1][:1] >= b"\x04"


def test_bounds_constrained_path_continues():
    engine, stats = run_sym(
        "int i = argv[1][0]; char buf[4] = \"wxyz\"; if (i < 4) return buf[i]; return 0;"
    )
    # constrained i<4 makes the load safe; both sides complete
    assert stats.paths_completed >= 2
    assert all(c.kind == "path" for c in engine.tests.cases)


def test_assert_violation_generates_error_case():
    engine, stats = run_sym("assert(argv[1][0] != 'Z'); return 0;")
    assert stats.errors_found == 1
    err = [c for c in engine.tests.cases if c.kind == "assert"][0]
    assert err.argv[1] == b"Z"
    # and the passing continuation still completes
    assert stats.paths_completed >= 1


def test_assert_always_true_no_error():
    engine, stats = run_sym("char c = argv[1][0]; assert(c >= 0); return 0;")
    assert stats.errors_found == 0


def test_halt_mid_program():
    engine, stats = run_sym("if (argv[1][0] == 'q') halt(3); return 0;")
    assert stats.paths_completed == 2


def test_step_budget_stops():
    engine, stats = run_sym("for (int i = 0; argv[1][i]; i++) putchar('.'); return 0;",
                            arg_len=3, max_steps=3)
    assert stats.timed_out
    assert stats.blocks_executed <= 4


def test_recursive_function_executes():
    src = """
    int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }
    int main(int argc, char argv[][]) { return fact(4); }
    """
    engine, stats = run_sym("", src=src)
    assert stats.paths_completed == 1


def test_global_mutation_across_calls():
    src = """
    int hits = 0;
    void mark() { hits = hits + 1; }
    int main(int argc, char argv[][]) {
        if (argv[1][0] == 'a') mark();
        mark();
        return hits;
    }
    """
    engine, stats = run_sym("", src=src)
    assert stats.paths_completed == 2


def test_coverage_tracked():
    engine, stats = run_sym("if (argv[1][0]) putchar('x'); return 0;")
    assert engine.coverage.blocks_covered >= 3
    assert 0 < engine.coverage.statement_coverage() <= 1.0


def test_output_accumulates_symbolically():
    engine, stats = run_sym("putchar(argv[1][0]); return 0;")
    # generated path test's argv replayed through output: covered in
    # test_integration_soundness; here just check tests exist per path
    assert stats.tests_generated == stats.states_terminated

"""Differential tests for the block-lowering tier (``repro.lang.compile``).

The tier's one law: a compiled straight-line prefix is *observationally
identical* to the interpreter — same stores, same output, same forks, same
test suites — because it bails to the interpreter at the first operand it
cannot retire concretely.  Everything here checks that law from a different
angle: hypothesis-generated arithmetic programs, hand-built symbolic
bailout boundaries, deterministic test generation, and a 2-worker run.
"""

from collections import Counter

from hypothesis import given, settings

from repro.engine.executor import EngineConfig
from repro.env.argv import ArgvSpec
from repro.env.runner import run_symbolic, run_symbolic_module
from repro.lang import compile_program
from repro.lang.cfg import ICall
from repro.lang.compile import compile_block
from repro.lang.lower import straightline_prefix
from repro.parallel import ParallelConfig, run_parallel

from minic_gen import minic_programs

# Force compilation on the first visit: the production default (threshold 8)
# is a heat heuristic, not a semantics knob, and tests want the compiled
# path exercised unconditionally.
LOWER_NOW = {"lowering_enabled": True, "lowering_threshold": 0}


def case_key(case):
    return (case.kind, case.argv, case.model, case.line, case.multiplicity, case.stdin)


def suite_multiset(result):
    return Counter(case_key(c) for c in result.tests.cases)


def run_module(source: str, lowered: bool, n_args: int = 1, arg_len: int = 2):
    module = compile_program(source)
    config = EngineConfig(
        merging="none",
        strategy="dfs",
        similarity="never",
        keep_terminal_states=True,
        lowering_enabled=lowered,
        lowering_threshold=0,
    )
    return run_symbolic_module(module, ArgvSpec(n_args=n_args, arg_len=arg_len), config)


def concrete_output(result) -> list[tuple[int, ...]]:
    outs = []
    for state in result.engine.terminal_states:
        assert all(e.kind == "const" for e in state.output)
        outs.append(tuple(e.value for e in state.output))
    return sorted(outs)


# -- hypothesis: compiled-vs-interpreted on straight-line arithmetic ----------

@settings(max_examples=30, deadline=None)
@given(minic_programs())
def test_compiled_matches_interpreted_on_straightline(source):
    lowered = run_module(source, lowered=True)
    interp = run_module(source, lowered=False)
    assert concrete_output(lowered) == concrete_output(interp)
    assert lowered.stats.instructions_executed == interp.stats.instructions_executed
    assert lowered.paths == interp.paths
    # The tier actually engaged: a concrete arithmetic program must retire
    # at least its assignment prefix through compiled code.
    assert lowered.stats.compiled_steps > 0
    assert interp.stats.compiled_steps == 0


# -- symbolic bailout boundaries ----------------------------------------------

_BAILOUT_SRC = """
int main(int argc, char argv[][]) {
  int a = 7 * 3;
  int c = argv[1][0];
  int d = c + a;
  if (d > 100) putchar('A');
  else putchar('B');
  return 0;
}
"""


def test_symbolic_operand_bails_to_interpreter():
    lowered = run_module(_BAILOUT_SRC, lowered=True)
    interp = run_module(_BAILOUT_SRC, lowered=False)
    # `a` retires compiled, the load of the symbolic argv byte retires
    # compiled (it only moves the Expr), `d = c + a` needs c's int and bails.
    assert lowered.stats.compiled_bailouts >= 1
    assert lowered.stats.compiled_steps >= 1
    assert lowered.stats.instructions_executed == interp.stats.instructions_executed
    assert lowered.paths == interp.paths
    assert lowered.stats.forks == interp.stats.forks
    assert suite_multiset(lowered) == suite_multiset(interp)


def test_prefix_stops_at_call():
    module = compile_program(
        "int main(int argc, char argv[][]) {\n"
        "  int a = 1 + 2;\n"
        "  int b = a * 3;\n"
        "  print_int(b);\n"
        "  int z = b - 1;\n"
        "  return z;\n"
        "}\n"
    )
    fn = module.functions["main"]
    entry = fn.blocks[fn.entry]
    limit = straightline_prefix(entry)
    # The prefix ends strictly before the ICall; nothing after it compiles
    # even though `z` is straight-line again.
    assert 0 < limit < len(entry.instrs)
    assert not any(isinstance(i, ICall) for i in entry.instrs[:limit])
    assert isinstance(entry.instrs[limit], ICall)
    compiled = compile_block(entry)
    assert compiled is not None
    assert 0 < compiled.prefix_len <= limit
    assert "def _run(state):" in compiled.source


def test_call_first_block_compiles_to_none():
    # The then-branch block starts directly with the ICall: nothing to
    # compile, so the tier must decline rather than emit an empty prefix.
    module = compile_program(
        "int main(int argc, char argv[][]) {\n"
        "  if (argc > 1) { print_int(1); }\n"
        "  return 0;\n"
        "}\n"
    )
    fn = module.functions["main"]
    call_first = [
        b
        for b in fn.blocks.values()
        if b.instrs and isinstance(b.instrs[0], ICall)
    ]
    assert call_first, "expected a block starting with the print_int call"
    for block in call_first:
        assert straightline_prefix(block) == 0
        assert compile_block(block) is None


# -- deterministic test generation interaction --------------------------------

def test_testgen_deterministic_unaffected_by_lowering():
    on = run_symbolic("wc", **LOWER_NOW)
    off = run_symbolic("wc", lowering_enabled=False)
    assert suite_multiset(on) == suite_multiset(off)
    assert on.paths == off.paths
    assert on.coverage_blocks == off.coverage_blocks
    assert on.stats.instructions_executed == off.stats.instructions_executed


# -- parallel smoke -----------------------------------------------------------

def test_two_worker_multiset_with_lowering():
    seq = run_parallel("uniq", workers=1, **LOWER_NOW)
    par = run_parallel(
        "uniq", parallel=ParallelConfig(workers=2, backend="inline"), **LOWER_NOW
    )
    par.check_ledger()
    assert par.paths == seq.paths
    assert suite_multiset(par) == suite_multiset(seq)
    assert par.covered == seq.covered

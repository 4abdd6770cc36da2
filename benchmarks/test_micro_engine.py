"""Micro-benchmarks of the engine: stepping, merging, QCE analysis."""

from repro.engine import Engine, EngineConfig
from repro.env import ArgvSpec
from repro.lang import compile_program
from repro.programs.registry import get_program
from repro.qce import QceAnalysis, QceParams


def test_engine_step_throughput(benchmark):
    module = get_program("wc").compile()
    spec = ArgvSpec(n_args=2, arg_len=2)

    def run():
        engine = Engine(module, spec, EngineConfig(merging="none", similarity="never",
                                                   strategy="dfs", generate_tests=False,
                                                   max_steps=800))
        stats = engine.run()
        return stats.blocks_executed

    assert benchmark(run) > 0


def test_qce_analysis_cost(benchmark):
    module = get_program("tsort").compile()

    def run():
        return QceAnalysis(module, QceParams())

    analysis = benchmark(run)
    assert analysis.functions["main"].qt


def test_merging_run_end_to_end(benchmark):
    module = get_program("echo").compile()
    spec = ArgvSpec(n_args=2, arg_len=2)

    def run():
        engine = Engine(module, spec, EngineConfig(merging="static", similarity="qce",
                                                   strategy="topological",
                                                   generate_tests=False))
        return engine.run()

    stats = benchmark(run)
    assert stats.merges > 0


def test_tsort_worklist_indexes_answer_by_lookup(benchmark):
    """bench/'s ``merge_search`` program one size down (tsort dsm-qce 2x2).

    Both worklist questions are lookups: "is there a similar state?" asks
    ``mergeable`` only about residents filed under the newcomer's
    hot-value signature (or wild ones), and "which state next?" rescores
    one heap entry per location, not one per state.  Counts are
    deterministic; scanning each location bucket took 665 ``mergeable``
    calls for the same 7 merges, a per-state heap 695 rescores.
    """
    module = get_program("tsort").compile()
    spec = ArgvSpec(n_args=2, arg_len=2, stdin_len=get_program("tsort").default_stdin)
    calls = []

    def run():
        engine = Engine(module, spec, EngineConfig(merging="dynamic", similarity="qce",
                                                   strategy="coverage", seed=0))
        mergeable = engine.similarity.mergeable

        def counted(*args):
            calls.append(1)
            return mergeable(*args)

        engine.similarity.mergeable = counted
        return engine.run()

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    assert (stats.merges, stats.paths_completed, stats.tests_generated) == (7, 27, 15)
    assert stats.sched_picks == 1707
    assert len(calls) <= 4 * stats.merges
    assert stats.sched_rescores <= 150


# A purely concrete loop, so the lowering tier compiles every block once
# it turns hot.
_STEP_LOOP_SRC = """
int main(int argc, char argv[][]) {
  int i; int j; int acc;
  acc = 0;
  for (i = 0; i < 2000; i = i + 1) {
    j = i * 7 + 3;
    acc = acc + (j & 63) - (j % 5) + (j / 9);
  }
  return acc;
}
"""


def test_step_loop_lowered_and_interpreted_execute_the_same():
    """Count gate (no wall time) for the stepping tiers: compiled and
    interpreted stepping execute the same instructions, and only the
    lowered arm compiles anything."""
    from repro.env.runner import run_symbolic_module

    module = compile_program(_STEP_LOOP_SRC)
    spec = ArgvSpec(n_args=1, arg_len=2)

    def run(lowered):
        config = EngineConfig(merging="none", strategy="dfs", generate_tests=False,
                              lowering_enabled=lowered)
        return run_symbolic_module(module, spec, config).stats

    lowered, interp = run(True), run(False)
    assert lowered.instructions_executed == interp.instructions_executed == 6005
    assert lowered.compiled_steps > 0 and lowered.blocks_compiled > 0
    assert interp.compiled_steps == 0 and interp.blocks_compiled == 0

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

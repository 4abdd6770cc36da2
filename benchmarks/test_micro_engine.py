"""Micro-benchmarks of the engine: stepping, merging, QCE analysis."""

from repro.engine import Engine, EngineConfig
from repro.engine import state as state_mod
from repro.env import ArgvSpec
from repro.lang import compile_program
from repro.programs.registry import get_program
from repro.qce import QceAnalysis, QceParams, qce


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


def test_qce_analysis_cost(monkeypatch):
    """Count gate (no wall time) for QCE on bench/'s ``merge_search``
    program: each function's unrolled graph is built once, its successor
    keys are derived once per node (the recursion derived them 198 654
    times for these 3 872 edges), and a block's taint transfer runs once
    per distinct (block, taint-in) pair across all (start, var) fixpoints."""
    module = get_program("tsort").compile()
    graphs, succ_keys, transfers = [], [], []
    analyzer = qce._FunctionAnalyzer
    unrolled_graph, succ_key, site_taint = (
        qce._UnrolledGraph, analyzer._succ_key, analyzer._block_site_taint
    )

    def counted_graph(*args):
        graphs.append(unrolled_graph(*args))
        return graphs[-1]

    def counted_succ_key(self, *args):
        succ_keys.append(1)
        return succ_key(self, *args)

    def counted_site_taint(self, label, tainted_in):
        transfers.append((self.fn.name, label, tainted_in))
        return site_taint(self, label, tainted_in)

    monkeypatch.setattr(qce, "_UnrolledGraph", counted_graph)
    monkeypatch.setattr(analyzer, "_succ_key", counted_succ_key)
    monkeypatch.setattr(analyzer, "_block_site_taint", counted_site_taint)
    analysis = QceAnalysis(module, QceParams())

    assert analysis.functions["main"].qt
    assert len(graphs) == len(module.functions)  # one build per function
    edges = sum(len(deps) for graph in graphs for deps in graph.deps)
    assert edges == 3872
    assert len(succ_keys) <= 2 * edges
    assert len(transfers) == len(set(transfers))


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


class CountingDict(dict):
    """A dict that counts its writes and deletions."""

    updates = 0

    def __setitem__(self, key, value):
        self.updates += 1
        super().__setitem__(key, value)

    def __delitem__(self, key):
        self.updates += 1
        super().__delitem__(key)


def test_tsort_worklist_indexes_answer_by_lookup(benchmark, monkeypatch):
    """bench/'s ``merge_search`` program one size down (tsort dsm-qce 2x2).

    Both worklist questions are lookups: "is there a similar state?" asks
    ``mergeable`` only about residents filed under the newcomer's
    hot-value signature (or wild ones), and "which state next?" rescores
    one heap entry per location, not one per state.  Counts are
    deterministic; scanning each location bucket took 665 ``mergeable``
    calls for the same 7 merges, a per-state heap 695 rescores.

    A move pays for what moved: the structural shape is re-sorted only
    after a first name, a call or a return (162 frame and 34 region
    recomputations in 1 733 moves, where re-sorting on every move took
    one per frame per move), and DSM's hash multiset changes by at most
    the two entries a move swaps, plus a whole history for each state a
    seed, fork or merge files and for each it unfiles.
    """
    module = get_program("tsort").compile()
    spec = ArgvSpec(n_args=2, arg_len=2, stdin_len=get_program("tsort").default_stdin)
    calls = []
    recomputed = {"frame_names": 0, "region_geometry": 0}
    for name in recomputed:
        def counted_recompute(*args, name=name, compute=getattr(state_mod, name)):
            recomputed[name] += 1
            return compute(*args)

        monkeypatch.setattr(state_mod, name, counted_recompute)
    engines = []

    def run():
        engine = Engine(module, spec, EngineConfig(merging="dynamic", similarity="qce",
                                                   strategy="coverage", seed=0))
        mergeable = engine.similarity.mergeable

        def counted(*args):
            calls.append(1)
            return mergeable(*args)

        engine.similarity.mergeable = counted
        engine.strategy.hash_counts = CountingDict()
        engines.append(engine)
        return engine.run()

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    assert (stats.merges, stats.paths_completed, stats.tests_generated) == (7, 27, 15)
    assert stats.sched_picks == 1707
    assert len(calls) <= 4 * stats.merges
    assert stats.sched_rescores <= 150
    moves = stats.blocks_executed
    assert moves == 1733
    assert recomputed == {"frame_names": 162, "region_geometry": 34}
    updates = engines[0].strategy.hash_counts.updates
    filed = 1 + stats.forks + stats.merges  # seed, fork clones, merged states
    assert updates <= 2 * moves + 2 * engines[0].config.dsm_delta * filed
    assert updates == 3856


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

"""Cross-cutting soundness: merging preserves the explored path space.

These are the most important tests in the suite: for a spread of corpus
programs and merge configurations they assert that

1. exact-path instrumentation under merging counts exactly the paths the
   unmerged engine enumerates,
2. statement coverage is identical,
3. every generated test replays concretely without internal errors, and
4. replayed outputs match the symbolic outputs under the test's model.
"""

import pytest

from repro.engine import Engine, EngineConfig
from repro.env import ArgvSpec
from repro.expr.evaluate import evaluate
from repro.lang import run_concrete
from repro.programs.registry import get_program
from repro.solver.portfolio import complete_model

PROGRAMS = ["echo", "cat", "cut", "nice", "pr", "sleep", "test", "fold"]
MERGE_MODES = [
    ("static", "qce", "topological"),
    ("static", "always", "topological"),
    ("dynamic", "qce", "coverage"),
]


def explore(program, merging, similarity, strategy, **kwargs):
    info = get_program(program)
    spec = ArgvSpec(n_args=info.default_n, arg_len=info.default_l)
    engine = Engine(
        info.compile(),
        spec,
        EngineConfig(merging=merging, similarity=similarity, strategy=strategy, **kwargs),
    )
    stats = engine.run()
    assert not stats.timed_out, f"{program} should explore exhaustively in tests"
    return engine, stats


@pytest.mark.parametrize("program", PROGRAMS)
@pytest.mark.parametrize("merging,similarity,strategy", MERGE_MODES)
def test_merged_exploration_counts_same_paths(program, merging, similarity, strategy):
    _, plain = explore(program, "none", "never", "dfs", generate_tests=False)
    _, merged = explore(
        program, merging, similarity, strategy,
        track_exact_paths=True, generate_tests=False,
    )
    assert merged.exact_paths == plain.paths_completed, (
        f"{program} {merging}/{similarity}: merged run represents "
        f"{merged.exact_paths} paths, plain enumerates {plain.paths_completed}"
    )


@pytest.mark.parametrize("program", PROGRAMS)
def test_merged_coverage_equals_plain(program):
    plain_engine, _ = explore(program, "none", "never", "dfs", generate_tests=False)
    merged_engine, _ = explore(program, "static", "qce", "topological",
                               generate_tests=False)
    assert plain_engine.coverage.covered == merged_engine.coverage.covered


@pytest.mark.parametrize("program", ["echo", "nice", "cut", "test"])
def test_generated_tests_replay_cleanly(program):
    engine, stats = explore(program, "static", "qce", "topological")
    info = get_program(program)
    module = info.compile()
    assert engine.tests.cases
    for case in engine.tests.cases:
        result = run_concrete(module, list(case.argv))
        assert result.exit_code is not None


@pytest.mark.parametrize("program", ["echo", "pr", "cat"])
@pytest.mark.parametrize("merging,similarity,strategy",
                         [("none", "never", "dfs"), ("static", "qce", "topological")])
def test_symbolic_output_matches_replay(program, merging, similarity, strategy):
    """For each terminal state: concretize its symbolic output and exit code
    under a model of its pc and compare byte-for-byte with the concrete
    interpreter — the strongest end-to-end check merging can face."""
    info = get_program(program)
    spec = ArgvSpec(n_args=info.default_n, arg_len=info.default_l)
    module = info.compile()
    engine = Engine(module, spec,
                    EngineConfig(merging=merging, similarity=similarity,
                                 strategy=strategy, generate_tests=False,
                                 keep_terminal_states=True))
    engine.run()
    checked = 0
    for state in engine.terminal_states:
        result = engine.solver.check(list(state.pc))
        assert result.is_sat, "terminal pc must be satisfiable"
        model = complete_model(result.model, spec.input_variables())
        argv = spec.decode(model)
        replay = run_concrete(module, argv)
        symbolic_output = bytes(evaluate(b, model) & 0xFF for b in state.output)
        assert symbolic_output == replay.output, (
            f"{program}: symbolic output {symbolic_output!r} != "
            f"concrete {replay.output!r} for argv {argv}"
        )
        exit_code = evaluate(state.exit_code, model)
        assert exit_code == replay.exit_code & 0xFFFFFFFF
        checked += 1
    assert checked > 0

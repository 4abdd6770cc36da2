"""Dynamic state merging (Algorithm 2) mechanics."""

from repro.engine import Engine, EngineConfig
from repro.env import ArgvSpec
from repro.lang import compile_program
from repro.programs.registry import get_program
from repro.search.dsm import DsmStrategy

MAIN = "int main(int argc, char argv[][]) { %s }"

# A program with an expensive 'then' side and a cheap 'else' side joining
# later — the paper's Figure 2 shape.
FIG2 = """
int work(char s[]) {
    int h = 0;
    for (int i = 0; s[i]; i++) h = h + s[i];
    return h;
}
int main(int argc, char argv[][]) {
    int h = 0;
    if (argv[1][0] == 'l') h = work(argv[2]);
    putchar('d');
    if (argv[2][0]) putchar('x');
    return h;
}
"""


def dsm_engine(src=None, program=None, **kwargs):
    if program is not None:
        info = get_program(program)
        module = info.compile()
        spec = ArgvSpec(n_args=info.default_n, arg_len=info.default_l)
    else:
        module = compile_program(src)
        spec = ArgvSpec(n_args=2, arg_len=2)
    config = EngineConfig(merging="dynamic", similarity="qce", strategy="coverage",
                          generate_tests=False, **kwargs)
    return Engine(module, spec, config)


def test_history_is_bounded_by_delta():
    engine = dsm_engine(program="echo", dsm_delta=3)
    engine.run()
    # Terminal states are gone; check the invariant held during the run by
    # re-running with a probe on live worklist states.
    engine2 = dsm_engine(program="echo", dsm_delta=3)
    engine2._add_state(engine2.make_initial_state(), try_merge=False)
    for _ in range(30):
        if not engine2.worklist:
            break
        state = engine2._pick_next()
        for succ in engine2.step(state):
            if not succ.halted:
                engine2._add_state(succ, try_merge=True)
        assert all(0 < len(s.history) <= 3 for s in engine2.worklist)


def test_hash_index_consistency():
    engine = dsm_engine(program="cat")
    strategy = engine.strategy
    assert isinstance(strategy, DsmStrategy)
    engine.run()
    # after a full run the worklist is empty and the index must be too
    assert not engine.worklist
    assert not strategy.hash_counts
    assert not strategy.own_counts
    assert not strategy.forwarding and not strategy.by_current_hash


def test_forwarding_set_detection():
    engine = dsm_engine(program="echo")
    stats = engine.run()
    # echo merges under DSM, and merges should involve fast-forwarded states
    assert stats.merges > 0
    assert stats.dsm_fastforward_picks >= 0  # may be zero on tiny runs


def test_dsm_merges_figure2_shape():
    engine = dsm_engine(src=FIG2)
    stats = engine.run()
    assert stats.merges > 0, "states should merge after the join point"


def test_dsm_does_not_lose_paths():
    plain = dsm_engine(program="pr")
    plain.config.merging = "none"
    engine_dsm = dsm_engine(program="pr", track_exact_paths=True)
    stats_dsm = engine_dsm.run()

    from repro.engine import Engine as E, EngineConfig as C
    info = get_program("pr")
    plain_engine = E(info.compile(), ArgvSpec(n_args=info.default_n, arg_len=info.default_l),
                     C(merging="none", similarity="never", strategy="dfs",
                       generate_tests=False))
    plain_stats = plain_engine.run()
    assert stats_dsm.exact_paths == plain_stats.paths_completed


def test_ff_merge_accounting():
    engine = dsm_engine(program="cat")
    stats = engine.run()
    assert stats.dsm_ff_merges <= max(stats.merges, stats.dsm_fastforward_states)

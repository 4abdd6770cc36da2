"""Similarity relations: Eq. 1 semantics and state hashing."""

from repro.engine.similarity import (
    LiveVarSimilarity,
    MergeAlways,
    MergeNever,
    QceSimilarity,
    _compatible,
    _h,
)
from repro.engine.state import Frame, SymState
from repro.expr import ops
from repro.lang import compile_program
from repro.qce import QceAnalysis, QceParams

SYM = ops.bv_var("simx", 8)


def test_compatible_rule():
    assert _compatible(ops.bv(5, 8), ops.bv(5, 8))        # equal concretes
    assert _compatible(SYM, ops.bv(5, 8))                  # symbolic lhs
    assert _compatible(ops.bv(5, 8), ops.add(SYM, SYM))    # symbolic rhs
    assert not _compatible(ops.bv(5, 8), ops.bv(6, 8))     # differing concretes


def test_h_maps_symbolic_to_sentinel():
    assert _h(SYM) == _h(ops.add(SYM, ops.bv(1, 8)))
    assert _h(ops.bv(5, 8)) != _h(ops.bv(6, 8))
    assert _h(ops.bv(5, 8)) != _h(SYM)


def mk(sid, store):
    s = SymState(sid)
    s.frames = [Frame("main", "entry", 0, dict(store), {}, None, 1)]
    return s


def test_merge_never_and_always():
    a, b = mk(1, {"v": ops.bv(1, 8)}), mk(2, {"v": ops.bv(2, 8)})
    assert not MergeNever().mergeable(a, b)
    assert MergeAlways().mergeable(a, b)
    assert MergeAlways().state_hash(a) == MergeAlways().state_hash(b)
    assert MergeNever().state_hash(a) != MergeNever().state_hash(b)


def qce_setup(alpha):
    module = compile_program(
        "int main(int argc, char argv[][]) {"
        " int a = argc; int b = 0;"
        " if (argc > 3) putchar('s');"
        " if (a > 1) putchar('p'); if (a > 2) putchar('q');"
        " putchar(b); return 0; }",  # b never feeds a query site: cold
        include_stdlib=False,
    )
    qce = QceAnalysis(module, QceParams(alpha=alpha))
    return module, QceSimilarity(qce)


def make_pair(module, a_vals, b_vals, block=None):
    fn = module.function("main")
    label = block or fn.reverse_postorder()[1]
    s1 = SymState(1)
    s1.frames = [Frame("main", label, 0, dict(a_vals), {}, None, 1)]
    s2 = SymState(2)
    s2.frames = [Frame("main", label, 0, dict(b_vals), {}, None, 1)]
    return s1, s2


def test_qce_blocks_hot_concrete_difference():
    module, sim = qce_setup(alpha=0.05)
    base = {"argc": ops.bv(4, 32), "b": ops.bv(0, 32)}
    s1, s2 = make_pair(module, {**base, "a": ops.bv(1, 32)}, {**base, "a": ops.bv(2, 32)})
    assert not sim.mergeable(s1, s2), "a is hot and concretely different"


def test_qce_allows_symbolic_hot_variable():
    module, sim = qce_setup(alpha=0.05)
    sym = ops.zext(SYM, 32)
    base = {"argc": ops.bv(4, 32), "b": ops.bv(0, 32)}
    s1, s2 = make_pair(module, {**base, "a": sym}, {**base, "a": ops.bv(2, 32)})
    assert sim.mergeable(s1, s2), "Eq. 1: symbolic in one state suffices"


def test_qce_allows_cold_concrete_difference():
    module, sim = qce_setup(alpha=0.05)
    base = {"argc": ops.bv(4, 32), "a": ops.bv(1, 32)}
    s1, s2 = make_pair(module, {**base, "b": ops.bv(0, 32)}, {**base, "b": ops.bv(1, 32)})
    assert sim.mergeable(s1, s2), "b is cold; differing concretes may merge"


def test_qce_alpha_inf_merges_anything():
    module, sim = qce_setup(alpha=float("inf"))
    base = {"argc": ops.bv(4, 32), "b": ops.bv(0, 32)}
    s1, s2 = make_pair(module, {**base, "a": ops.bv(1, 32)}, {**base, "a": ops.bv(2, 32)})
    assert sim.mergeable(s1, s2)


def test_qce_hash_equal_for_mergeable_concrete_states():
    module, sim = qce_setup(alpha=0.05)
    base = {"argc": ops.bv(4, 32), "a": ops.bv(1, 32)}
    s1, s2 = make_pair(module, {**base, "b": ops.bv(0, 32)}, {**base, "b": ops.bv(1, 32)})
    assert sim.state_hash(s1) == sim.state_hash(s2)


def test_qce_hash_differs_for_hot_difference():
    module, sim = qce_setup(alpha=0.05)
    base = {"argc": ops.bv(4, 32), "b": ops.bv(0, 32)}
    s1, s2 = make_pair(module, {**base, "a": ops.bv(1, 32)}, {**base, "a": ops.bv(2, 32)})
    assert sim.state_hash(s1) != sim.state_hash(s2)


def test_live_similarity_requires_identical_live_values():
    def live_sets(state):
        return [frozenset({"v"})]

    sim = LiveVarSimilarity(live_sets)
    a = mk(1, {"v": ops.bv(1, 8), "w": ops.bv(5, 8)})
    b = mk(2, {"v": ops.bv(1, 8), "w": ops.bv(9, 8)})
    c = mk(3, {"v": ops.bv(2, 8), "w": ops.bv(5, 8)})
    assert sim.mergeable(a, b)       # only dead w differs
    assert not sim.mergeable(a, c)   # live v differs
    assert sim.state_hash(a) == sim.state_hash(b)


# ---------------------------------------------------------------------------
# Memoisation inside QceSimilarity is unobservable
# ---------------------------------------------------------------------------


def frontier(program="uniq", blocks=300):
    """A live DSM engine stopped mid-run, and same-location state pairs."""
    from repro.engine import Engine, EngineConfig
    from repro.env import ArgvSpec
    from repro.programs.registry import get_program

    info = get_program(program)
    engine = Engine(
        info.compile(),
        ArgvSpec(n_args=info.default_n, arg_len=info.default_l, stdin_len=info.default_stdin),
        EngineConfig(merging="dynamic", similarity="qce", strategy="coverage",
                     generate_tests=False),
    )
    engine.seed_states([engine.make_initial_state()])
    engine.explore(interrupt=lambda e: e.stats.blocks_executed >= blocks)
    pairs = []
    for bucket in engine._loc_index.values():
        here = [s for filed in bucket.values() for s in filed.values()]
        pairs += [(a, b) for a in here for b in here if a is not b]
    assert len(engine.worklist) > 10 and len(pairs) > 10
    return engine, pairs


def answers(sim, engine, pairs):
    return (
        [sim.state_hash(s) for s in engine.worklist],
        [sim.mergeable(a, b) for a, b in pairs],
    )


def test_qce_memos_do_not_change_answers(monkeypatch):
    engine, pairs = frontier()
    sim = QceSimilarity(engine.qce)
    cold = answers(sim, engine, pairs)
    assert sim._cells_memo and sim._hot_sets
    assert answers(sim, engine, pairs) == cold            # warm tables
    assert any(cold[1]) and not all(cold[1])

    monkeypatch.setattr(QceSimilarity, "CELLS_MEMO_MAX", 1)  # every entry evicted
    tight = QceSimilarity(engine.qce)
    assert answers(tight, engine, pairs) == cold
    assert len(tight._cells_memo) == 1

    # The context a bucket scan hoists is the one mergeable resolves itself.
    hoisted = [sim.mergeable(a, b, sim.location_context(a)) for a, b in pairs]
    assert hoisted == cold[1]


def test_cells_memo_stays_out_of_regions_and_snapshots():
    engine, _ = frontier()
    state = engine.worklist[0]
    before = state.snapshot()
    regions = dict(state.regions)
    sim = QceSimilarity(engine.qce)
    sim.state_hash(state)
    assert sim._cells_memo
    assert state.snapshot() == before
    assert state.regions == regions


DEPTH_SRC = """
int f(int a, int b) {
  if (a > 1) putchar('x'); if (b > 2) putchar('y'); if (b > 3) putchar('z');
  return a; }
int main(int argc, char argv[][]) {
  int r = f(argc, argc);
  if (argv[1][0] == 'a') putchar('a'); if (argv[1][1] == 'b') putchar('b');
  if (argv[1][0] == 'c') putchar('c'); if (argv[1][1] == 'd') putchar('d');
  return r; }
"""


def test_hot_sets_are_keyed_by_the_whole_stack():
    module = compile_program(DEPTH_SRC, include_stdlib=False)
    qce = QceAnalysis(module, QceParams(alpha=0.3))
    sim = QceSimilarity(qce)
    f, main = module.function("f"), module.function("main")
    alone = SymState(1)
    alone.frames = [Frame("f", f.entry, 0, {}, {}, None, 1)]
    nested = SymState(2)
    nested.frames = [
        Frame("main", main.entry, 1, {}, {}, "r", 1),
        Frame("f", f.entry, 0, {}, {}, None, 2),
    ]
    # Same top frame location; main's Qt below it raises the threshold.
    assert sim.location_context(alone) == (("b",),)
    assert sim.location_context(nested)[-1] == ()
    for state in (alone, nested):
        assert sim.location_context(state) == tuple(
            tuple(sorted(qce.hot_variables(fr.func, fr.block, sim.qt_global(state))))
            for fr in state.frames
        )
    assert len(sim._hot_sets) == 2


def test_hot_variables_resolved_once_per_stack_location(monkeypatch):
    from repro.env.runner import run_symbolic

    calls = {"hot": 0, "lookups": 0}
    real_hot = QceAnalysis.hot_variables
    real_context = QceSimilarity.location_context

    def hot_variables(self, func, block, qt_global):
        calls["hot"] += 1
        return real_hot(self, func, block, qt_global)

    def location_context(self, state):
        calls["lookups"] += 1
        return real_context(self, state)

    monkeypatch.setattr(QceAnalysis, "hot_variables", hot_variables)
    monkeypatch.setattr(QceSimilarity, "location_context", location_context)
    result = run_symbolic("tsort", merging="dynamic", similarity="qce", strategy="coverage")
    stacks = result.engine.similarity._hot_sets
    # One resolution per frame of each distinct stack, however often asked.
    assert calls["hot"] == sum(len(stack) for stack in stacks)
    assert calls["lookups"] > 10 * calls["hot"]

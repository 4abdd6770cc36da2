"""The full QCE variant (§3.3 Eq. 7) with ite-cost estimation."""

import pytest

from repro.engine import Engine, EngineConfig, QceFullSimilarity
from repro.engine.state import Frame, SymState
from repro.env import ArgvSpec
from repro.expr import ops
from repro.lang import compile_program
from repro.qce import QceAnalysis, QceParams

SYM = ops.bv_var("qfx", 32)


def setup(alpha=0.05, zeta=2.0):
    module = compile_program(
        "int main(int argc, char argv[][]) {"
        " int a = argc; int b = 0;"
        " if (argc > 3) putchar('s');"
        " if (a > 1) putchar('p'); if (a > 2) putchar('q');"
        " putchar(b); return 0; }",
        include_stdlib=False,
    )
    qce = QceAnalysis(module, QceParams(alpha=alpha))
    return module, QceFullSimilarity(qce, zeta=zeta)


def make_pair(module, a_vals, b_vals):
    fn = module.function("main")
    label = fn.reverse_postorder()[1]
    s1, s2 = SymState(1), SymState(2)
    s1.frames = [Frame("main", label, 0, dict(a_vals), {}, None, 1)]
    s2.frames = [Frame("main", label, 0, dict(b_vals), {}, None, 1)]
    return s1, s2


def test_zeta_validation():
    module, _ = setup()
    qce = QceAnalysis(module, QceParams())
    with pytest.raises(ValueError):
        QceFullSimilarity(qce, zeta=0.5)


def test_symbolic_hot_difference_blocked_by_ite_cost():
    """Eq. 1 would merge (symbolic in one side); Eq. 7 may refuse because
    the resulting ite lands in many future queries."""
    module, full = setup(alpha=0.05, zeta=10.0)
    base = {"argc": ops.bv(4, 32), "b": ops.bv(0, 32)}
    s1, s2 = make_pair(module, {**base, "a": SYM}, {**base, "a": ops.bv(2, 32)})
    assert not full.mergeable(s1, s2)


def test_zeta_one_reduces_to_qadd_only():
    """zeta = 1 cancels the Qite term: symbolic differences become free."""
    module, full = setup(alpha=0.05, zeta=1.0)
    base = {"argc": ops.bv(4, 32), "b": ops.bv(0, 32)}
    s1, s2 = make_pair(module, {**base, "a": SYM}, {**base, "a": ops.bv(2, 32)})
    assert full.mergeable(s1, s2)


def test_concrete_hot_difference_still_blocked():
    module, full = setup(alpha=0.05)
    base = {"argc": ops.bv(4, 32), "b": ops.bv(0, 32)}
    s1, s2 = make_pair(module, {**base, "a": ops.bv(1, 32)}, {**base, "a": ops.bv(2, 32)})
    assert not full.mergeable(s1, s2)


def test_cold_difference_merges():
    module, full = setup(alpha=0.05)
    base = {"argc": ops.bv(4, 32), "a": ops.bv(1, 32)}
    s1, s2 = make_pair(module, {**base, "b": ops.bv(0, 32)}, {**base, "b": ops.bv(5, 32)})
    assert full.mergeable(s1, s2)


def test_alpha_inf_merges_everything():
    module, full = setup(alpha=float("inf"), zeta=5.0)
    base = {"argc": ops.bv(4, 32), "b": ops.bv(0, 32)}
    s1, s2 = make_pair(module, {**base, "a": SYM}, {**base, "a": ops.bv(2, 32)})
    assert full.mergeable(s1, s2)


def test_engine_integration_soundness():
    """qce-full merging still represents exactly the plain path space."""
    from repro.programs.registry import get_program

    info = get_program("echo")
    spec = ArgvSpec(n_args=info.default_n, arg_len=info.default_l)
    plain = Engine(info.compile(), spec,
                   EngineConfig(merging="none", similarity="never", strategy="dfs",
                                generate_tests=False))
    plain_stats = plain.run()
    full = Engine(info.compile(), spec,
                  EngineConfig(merging="static", similarity="qce-full",
                               strategy="topological", track_exact_paths=True,
                               generate_tests=False))
    full_stats = full.run()
    assert full_stats.exact_paths == plain_stats.paths_completed


def test_full_never_merges_more_than_eq1():
    """Eq. 7 is strictly more conservative than Eq. 1 for zeta > 1 under
    equal alpha on symbolic differences."""
    from repro.programs.registry import get_program

    info = get_program("rev")
    spec = ArgvSpec(n_args=info.default_n, arg_len=info.default_l)
    eq1 = Engine(info.compile(), spec,
                 EngineConfig(merging="static", similarity="qce",
                              strategy="topological", generate_tests=False))
    eq1_stats = eq1.run()
    eq7 = Engine(info.compile(), spec,
                 EngineConfig(merging="static", similarity="qce-full",
                              strategy="topological", generate_tests=False))
    eq7_stats = eq7.run()
    assert eq7_stats.merges <= eq1_stats.merges

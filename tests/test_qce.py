"""QCE unit tests: query counts, hot sets, loops, interprocedural flow,
and the exactness law of the build-once unrolled graph."""

import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import compile_program
from repro.lang.cfg import TBr, TJmp
from repro.memo import clear_memos
from repro.programs.registry import all_programs, get_program
from repro.qce import QceAnalysis, QceParams, analyze_module
from repro.qce import qce

from minic_gen import minic_programs

MAIN = "int main(int argc, char argv[][]) { %s }"


def analyze(body, stdlib=False, **params):
    module = compile_program(MAIN % body, include_stdlib=stdlib)
    return module, QceAnalysis(module, QceParams(**params))


def test_straightline_no_queries():
    module, qce = analyze("int x = 1; return x;")
    fn = module.function("main")
    assert qce.qt_local("main", fn.entry) == 0.0


def test_single_branch_counts_one():
    module, qce = analyze("if (argc > 1) return 1; return 0;", beta=0.5)
    fn = module.function("main")
    assert qce.qt_local("main", fn.entry) == 1.0


def test_sequential_branches_discounted_by_beta():
    module, qce = analyze(
        "if (argc > 1) putchar('a'); if (argc > 2) putchar('b'); return 0;", beta=0.5
    )
    fn = module.function("main")
    # q(entry) = 1 + beta*q(next) + beta*q(next) with q(next) = 1: 1 + 2*0.5
    assert math.isclose(qce.qt_local("main", fn.entry), 2.0)


def test_loop_multiplies_by_trip_count():
    module, qce = analyze(
        "int s = 0; for (int i = 0; i < 4; i++) if (argc > i) s++; return s;", beta=1.0
    )
    fn = module.function("main")
    # With beta=1 and a recognized trip count of 4, the inner branch and the
    # header condition are each counted per iteration.
    assert qce.qt_local("main", fn.entry) >= 8.0


def test_qadd_tracks_dependence():
    module, qce = analyze("int a = argc; int b = 1; if (a > 1) return 1; return b;")
    fn = module.function("main")
    entry = fn.entry
    # At block entry the incoming a is dead (redefined first), but the
    # parameter argc feeds the branch; b never reaches a query site.
    assert qce.qadd_local("main", entry, "argc") > 0.0
    assert qce.qadd_local("main", entry, "b") == 0.0


def test_qadd_killed_by_reassignment():
    # The value of `i` at entry dies at `i = 0`, so no future query depends
    # on it (the paper's echo inner-counter argument).
    module, qce = analyze("int i = argc; i = 0; if (i < argc) return 1; return 0;")
    fn = module.function("main")
    assert qce.qadd_local("main", fn.entry, "i") == 0.0


def test_memory_access_counts_as_query_site():
    # `i` is live across the if-join, and the only query after the join is
    # the symbolic-index load — so that site alone must make Qadd(join, i)
    # positive (paper footnote 1).
    module, qce = analyze(
        "int i = argc; if (argc > 2) i = 0; return argv[1][i];"
    )
    fn = module.function("main")
    join_blocks = [label for label in fn.blocks
                   if qce.qadd_local("main", label, "i") > 0.0]
    assert join_blocks, "the load's index dependence on i was not counted"


def test_hot_variables_threshold():
    # Query hotness at the post-definition join where both a and b are live:
    # a feeds three future branches, b only one.
    module, qce = analyze(
        "int a = argc; int b = argc + 1; if (argc > 9) putchar('s');"
        " if (a > 1) putchar('p'); if (a > 2) putchar('q'); if (a > 3) putchar('x');"
        " if (b > 1) putchar('y'); return 0;",
        alpha=0.5,
    )
    fn = module.function("main")
    candidates = [label for label in fn.blocks
                  if qce.qadd_local("main", label, "a") > 0.0
                  and qce.qadd_local("main", label, "b") > 0.0]
    assert candidates
    label = max(candidates, key=lambda l: qce.qadd_local("main", l, "a"))
    qt = qce.qt_local("main", label)
    hot = qce.hot_variables("main", label, qt)
    assert "a" in hot
    assert "b" not in hot


def test_alpha_zero_everything_hot():
    module, qce = analyze(
        "int a = argc; if (argc > 5) putchar('x'); if (a > 1) return 1; return 0;",
        alpha=0.0,
    )
    fn = module.function("main")
    hot_blocks = [label for label in fn.blocks
                  if "a" in qce.hot_variables("main", label, qce.qt_local("main", label))]
    assert hot_blocks  # a is hot wherever its live value feeds the branch


def test_alpha_infinite_nothing_hot():
    module, qce = analyze(
        "int a = argc; if (argc > 5) putchar('x'); if (a > 1) return 1; return 0;",
        alpha=math.inf,
    )
    fn = module.function("main")
    for label in fn.blocks:
        assert qce.hot_variables("main", label, qce.qt_local("main", label)) == frozenset()


def test_interprocedural_callee_counts():
    src = (
        "int check(int v) { if (v > 1) return 1; if (v > 2) return 2; return 0; }\n"
        + MAIN % "return check(argc);"
    )
    module = compile_program(src, include_stdlib=False)
    qce = QceAnalysis(module, QceParams(beta=0.5))
    main_fn = module.function("main")
    # main has no branches of its own; all of its Qt comes from the callee.
    assert qce.qt_local("main", main_fn.entry) > 0.0
    # and argc's Qadd flows through the parameter mapping into check's v.
    assert qce.qadd_local("main", main_fn.entry, "argc") > 0.0


def test_recursion_bounded():
    src = (
        "int f(int v) { if (v <= 0) return 0; return f(v - 1); }\n"
        + MAIN % "return f(argc);"
    )
    module = compile_program(src, include_stdlib=False)
    qce = QceAnalysis(module, QceParams())  # must terminate
    assert qce.qt_local("main", module.function("main").entry) >= 0.0


def test_analyze_module_memoized():
    """One analysis per (module, params), dropped by ``clear_memos()``."""
    module = compile_program(MAIN % "if (argc > 1) return 1; return 0;", include_stdlib=False)
    first = analyze_module(module, QceParams())
    assert analyze_module(module, QceParams()) is first
    assert analyze_module(module, QceParams(alpha=0.9)) is not first
    clear_memos()
    assert analyze_module(module, QceParams()) is not first


def test_qadd_never_exceeds_site_budget():
    """Qadd(l, v) <= Qt(l) whenever all sites count equally."""
    module, qce = analyze(
        "int a = argc; for (int i = 0; i < 3; i++) if (a > i) putchar('x'); return 0;"
    )
    for label in module.function("main").blocks:
        qt = qce.qt_local("main", label)
        for var, qadd in qce.qadd_map("main", label).items():
            assert qadd <= qt + 1e-9, (label, var, qadd, qt)


# -- exactness law: the build-once graph equals the recursion, bit for bit ----


def _recursive_q_values(self, block_contrib, starts=None):
    """Oracle: the memoized recursion over the virtually-unrolled CFG,
    re-deriving every successor key on every visit (memo per call)."""
    beta = self.params.beta
    memo = {}

    def succ_key(src, dst, ctx):
        ctx_map = dict(ctx)
        dst_loops = self.enclosing[dst]
        for header in list(ctx_map):
            if header not in dst_loops:
                del ctx_map[header]
        if dst in self.trips:
            if dst in dict(ctx) and dst in self.enclosing[src]:
                remaining = dict(ctx)[dst]
                if remaining <= 0:
                    return None
                ctx_map[dst] = remaining - 1
            else:
                ctx_map[dst] = max(0, self.trips[dst] - 1)
        return (dst, tuple(sorted(ctx_map.items())))

    def deps_of(key):
        label, ctx = key
        term = self.fn.blocks[label].term
        out = []
        if isinstance(term, TBr):
            for succ in (term.then_label, term.else_label):
                dep = succ_key(label, succ, ctx)
                if dep is not None:
                    out.append((beta, dep))
        elif isinstance(term, TJmp):
            dep = succ_key(label, term.label, ctx)
            if dep is not None:
                out.append((1.0, dep))
        return out

    def evaluate(start_key):
        gray = set()
        stack = [(start_key, False)]
        while stack:
            key, expanded = stack.pop()
            if key in memo:
                continue
            if expanded:
                total = block_contrib[key[0]]
                for weight, dep in deps_of(key):
                    total += weight * memo.get(dep, 0.0)
                memo[key] = total
                gray.discard(key)
                continue
            gray.add(key)
            stack.append((key, True))
            for _, dep in deps_of(key):
                if dep not in memo and dep not in gray:
                    stack.append((dep, False))
        return memo[start_key]

    result = {}
    for label in starts if starts is not None else self.fn.blocks:
        ctx = tuple(sorted((h, max(0, self.trips.get(h, self.params.kappa) - 1))
                           for h in self.enclosing[label]))
        result[label] = evaluate((label, ctx))
    return result


class _OracleAnalyzer(qce._FunctionAnalyzer):
    q_values = _recursive_q_values

    def _block_taint(self, label, tainted_in):
        return self._block_site_taint(label, tainted_in)  # no memo


def _tables(analysis):
    return {name: (f.qt, f.qadd, f.variables) for name, f in analysis.functions.items()}


def _oracle_tables(module, params):
    with mock.patch.object(qce, "_FunctionAnalyzer", _OracleAnalyzer):
        return _tables(QceAnalysis(module, params))


LAW_GRID = [QceParams(), QceParams(beta=0.5, kappa=3), QceParams(beta=0.9, kappa=20)]
# The oracle is slow at kappa 20 (tr alone takes about 6 s), so that grid
# point runs on the deepest unrolling that stays cheap (factor), bench/'s
# QCE program (tsort) and wc's nested loops; the generated programs below
# cover it on nested loops and argc bounds.
_KAPPA20_CORPUS = ("factor", "tsort", "wc")


@pytest.mark.parametrize("params", LAW_GRID, ids=lambda p: f"beta{p.beta}-kappa{p.kappa}")
def test_tables_equal_the_recursion_on_the_corpus(params):
    programs = (map(get_program, _KAPPA20_CORPUS) if params.kappa == 20
                else all_programs())
    for info in programs:
        module = info.compile()
        assert _tables(QceAnalysis(module, params)) == _oracle_tables(module, params), info.name


@settings(max_examples=40, deadline=None)
@given(minic_programs(control=True), st.sampled_from(LAW_GRID))
def test_tables_equal_the_recursion_on_generated_programs(source, params):
    module = compile_program(source)
    assert _tables(QceAnalysis(module, params)) == _oracle_tables(module, params)

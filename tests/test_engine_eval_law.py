"""Exactness law of the symbolic interpreter's expression builders
(``repro.lang.compile.compile_builder``, behind ``SymState.eval_expr``).

The reference is ``repro.expr.subst.substitute`` under the state's
bindings, what ``eval_expr`` computed before it had builders; it is
kept here as :func:`oracle`.  A builder must equal it:

* as an object (``is``), and in every intern lookup on the way: the same
  lookups of ``Expr._make``, hits included, in the same order, with the
  same misses.  Checked on every IR expression of the corpus and of
  generated control-flow programs, under random stores of constants,
  input variables and ``ite``-merged values;
* in its fallback: an unbound name or a value of another sort raises the
  oracle's error (type and message), and a value that is its own VAR
  leaf comes back as that object;
* over whole runs: corpus x {plain, ssm-qce, dsm-qce} explores what an
  engine evaluating through the oracle explores (the tests field by
  field, coverage, paths, every counter but the timings) and interns as
  many nodes.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Engine, EngineConfig
from repro.engine.state import Frame, SymState
from repro.expr import nodes as N
from repro.expr import ops
from repro.expr.nodes import Expr
from repro.expr.sorts import BOOL
from repro.expr.subst import substitute
from repro.experiments.harness import MODES
from repro.lang import compile_program
from repro.lang.cfg import MemRef
from repro.lang.compile import BUILDERS, compile_builder
from repro.memo import clear_memos
from repro.processes import can_fork, process_context
from repro.programs.registry import PROGRAMS, get_program

from minic_gen import minic_programs


def oracle(state: SymState, expr: Expr) -> Expr:
    """``eval_expr`` by substitution: the builders' reference."""
    names = expr.variables
    if not names:
        return expr
    return substitute(expr, {name: state.lookup(name) for name in names})


# -- the IR expressions a module evaluates ---------------------------------------


def ir_expressions(module) -> list[Expr]:
    """Every distinct expression an instruction or terminator holds."""
    seen: dict[int, Expr] = {}
    for fn in module.functions.values():
        for block in fn.blocks.values():
            for node in [*block.instrs, block.term]:
                for field in dataclasses.fields(node):
                    value = getattr(node, field.name)
                    for item in value if isinstance(value, tuple) else (value,):
                        if isinstance(item, MemRef):
                            item = item.row
                        if isinstance(item, Expr):
                            seen.setdefault(item.eid, item)
    return list(seen.values())


CORPUS_EXPRS = [
    e for name in PROGRAMS for e in ir_expressions(get_program(name).compile())
]


# -- stores -------------------------------------------------------------------


def value_of_sort(rng: random.Random, sort) -> Expr:
    """A constant, an input variable, or an ``ite``-merged value of ``sort``."""
    if sort is BOOL:
        const = ops.bool_const(rng.random() < 0.5)
        sym = ops.bool_var(f"in_b{rng.randrange(3)}")
    else:
        const = ops.bv(rng.randrange(1 << sort.width), sort.width)
        sym = ops.bv_var(f"in{rng.randrange(3)}_{sort.width}", sort.width)
    pick = rng.randrange(4)
    if pick == 0:
        return const
    if pick == 1:
        return sym
    guard = ops.ult(ops.bv_var("in_guard", 8), ops.bv(rng.randrange(1, 256), 8))
    other = const if pick == 2 else value_of_sort(rng, sort)
    return ops.ite(guard, sym, other) if rng.random() < 0.5 else ops.ite(guard, other, sym)


def state_with(bindings: dict[str, Expr]) -> SymState:
    state = SymState(7)
    store = {n: v for n, v in bindings.items() if not n.startswith("g$")}
    state.frames = [Frame("main", "b0", 0, store, {}, None, 1)]
    state.globals_store = {n: v for n, v in bindings.items() if n.startswith("g$")}
    return state


def leaves(expr: Expr) -> dict[str, Expr]:
    return {n.name: n for n in expr.iter_nodes() if n.kind == N.VAR}


def random_state(rng: random.Random, expr: Expr) -> SymState:
    """Random values for ``expr``'s names; now and then a name's own leaf,
    which leaves the nodes above it unchanged when their other operands
    are too (``substitute``'s short-circuit)."""
    return state_with({
        name: leaf if rng.random() < 0.15 else value_of_sort(rng, leaf.sort)
        for name, leaf in sorted(leaves(expr).items())
    })


# -- recording intern lookups ---------------------------------------------------------

_MAKE = N.Expr._make


class Interning:
    """Every ``Expr._make`` lookup one call makes, in order, hits included.

    A node the call interned afresh is named by its position among the
    call's misses, any other by its eid, so two calls that start from
    the same intern table compare equal exactly when they look up the
    same keys in the same order.  :meth:`unwind` takes the call's fresh
    nodes out of the table again, so the other arm starts from where
    this one did.
    """

    def __init__(self) -> None:
        self.lookups: list[tuple] = []
        self.fresh: list[Expr] = []
        self._index: dict[int, int] = {}

    def name(self, node: Expr) -> tuple:
        index = self._index.get(id(node))
        return ("fresh", index) if index is not None else ("old", node.eid)

    def _make(self, kind, sort, children=(), value=None, name=None, params=()):
        miss = (kind, sort, children, value, name, params) not in N._intern_table
        node = _MAKE(kind, sort, children, value, name, params)
        self.lookups.append(
            (kind, sort, tuple(self.name(c) for c in children), value, name, params, miss)
        )
        if miss:
            self._index[id(node)] = len(self.fresh)
            self.fresh.append(node)
        return node

    def call(self, fn, *args) -> tuple:
        """``fn(*args)`` recorded: ``("value", its name)`` or the error."""
        N.Expr._make = staticmethod(self._make)
        try:
            return ("value", self.name(fn(*args)))
        except (KeyError, TypeError) as exc:
            return ("raises", type(exc), str(exc))
        finally:
            N.Expr._make = staticmethod(_MAKE)

    def unwind(self) -> None:
        for n in self.fresh:
            del N._intern_table[(n.kind, n.sort, n.children, n.value, n.name, n.params)]


def assert_exact(expr: Expr, state: SymState) -> None:
    """The builder returns and interns what the oracle does, from one table."""
    builder = compile_builder(expr)
    ref = Interning()
    want = ref.call(oracle, state, expr)
    ref.unwind()
    got = Interning()
    assert got.call(builder, state) == want, expr
    assert got.lookups == ref.lookups, expr
    if want[0] == "value":
        assert state.eval_expr(expr) is oracle(state, expr)


# -- the law on expressions -----------------------------------------------------------


def test_corpus_holds_expressions_of_every_shape():
    kinds = {n.kind for e in CORPUS_EXPRS for n in e.iter_nodes()}
    assert len(CORPUS_EXPRS) > 1000
    assert {N.ITE, N.ZEXT, N.EXTRACT, N.AND, N.OR, N.NOT} <= kinds
    assert any(n.startswith("g$") for e in CORPUS_EXPRS for n in e.variables)


@pytest.mark.parametrize("seed", range(3))
def test_builders_equal_substitute_on_corpus_expressions(seed):
    rng = random.Random(seed)
    for expr in CORPUS_EXPRS:
        if expr.variables:
            assert_exact(expr, random_state(rng, expr))


@settings(max_examples=40, deadline=None)
@given(minic_programs(control=True), st.integers(0, 2**32))
def test_builders_equal_substitute_on_generated_programs(source, seed):
    rng = random.Random(seed)
    for expr in ir_expressions(compile_program(source)):
        if expr.variables:
            assert_exact(expr, random_state(rng, expr))


def test_shared_and_constant_subterms():
    x, y = ops.bv_var("x", 8), ops.bv_var("g$y", 8)
    shared = ops.add(x, y)
    expr = ops.ite(
        ops.ult(shared, ops.bv(3, 8)), ops.mul(shared, ops.bv(5, 8)), ops.zext(shared, 8)
    )
    for x_value, y_value in [(ops.bv(1, 8), ops.bv(2, 8)), (x, y),
                             (ops.bv(0, 8), ops.bv_var("in", 8))]:
        assert_exact(expr, state_with({"x": x_value, "g$y": y_value}))
    assert compile_builder(x)(state_with({"x": x})) is x
    # Kinds the corpus does not lower to: each passes its params.
    wide = ops.concat(ops.sext(ops.extract(x, 6, 2), 11), ops.lshr(y, x))
    for x_value in (ops.bv(0x5A, 8), ops.bv_var("in", 8), x):
        assert_exact(wide, state_with({"x": x_value, "g$y": ops.bv(9, 8)}))


# -- the fallback -------------------------------------------------------------------


def _other_sort(sort):
    return ops.bv_var("wrong", 8) if sort is BOOL else ops.bv_var("wrong", sort.width + 1)


@pytest.mark.parametrize("seed", range(2))
def test_fallback_raises_and_returns_what_substitute_does(seed):
    rng = random.Random(seed)
    checked = {"unbound": 0, "sort": 0, "leaf": 0}
    for expr in CORPUS_EXPRS[seed::5]:
        vars_ = leaves(expr)
        if not vars_:
            continue
        state = random_state(rng, expr)
        name = rng.choice(sorted(vars_))
        case = rng.choice(sorted(checked))
        if case == "unbound":
            store = state.globals_store if name.startswith("g$") else state.top.store
            del store[name]
        else:
            state.assign(name, vars_[name] if case == "leaf" else _other_sort(vars_[name].sort))
        assert_exact(expr, state)
        checked[case] += 1
    assert min(checked.values()) > 50


def test_fallback_errors_are_the_lookup_and_sort_errors():
    x = ops.bv_var("x", 8)
    expr = ops.add(x, ops.bv(1, 8))
    with pytest.raises(KeyError, match="unbound variable 'x' in state 7"):
        compile_builder(expr)(state_with({}))
    with pytest.raises(TypeError, match="x has sort BV8, replacement BV16"):
        compile_builder(expr)(state_with({"x": ops.bv(1, 16)}))
    with pytest.raises(TypeError, match="x has sort BV8, replacement Bool"):
        compile_builder(x)(state_with({"x": ops.TRUE}))


# -- whole runs -----------------------------------------------------------------------

WHOLE_RUN_STEPS = 250


def _runs(arm: str) -> list[tuple]:
    """Every corpus program x mode, explored in this (forked) process."""
    if arm == "oracle":
        SymState.eval_expr = oracle
    out = []
    for mode in ("plain", "ssm-qce", "dsm-qce"):
        for name in PROGRAMS:
            clear_memos()
            info = get_program(name)
            engine = Engine(info.compile(), info.spec(1, 2),
                            EngineConfig(max_steps=WHOLE_RUN_STEPS, **MODES[mode]), program=name)
            engine.testgen_helper = False
            before = len(N._intern_table)
            stats = engine.run()
            out.append((
                name, mode,
                [dataclasses.astuple(case) for case in engine.tests.cases],
                sorted(engine.coverage.covered),
                stats.paths_completed,
                {k: v for k, v in stats.snapshot().items() if not isinstance(v, float)},
                len(N._intern_table) - before,
                len(BUILDERS) > 0,
            ))
    return out


@pytest.mark.skipif(not can_fork(), reason="both arms must start from one intern table")
def test_whole_runs_equal_an_engine_evaluating_by_substitute():
    # Each arm runs in a fork of this process, so both start from the same
    # intern table and the node counts compare.
    with process_context().Pool(2) as pool:
        built, substituted = pool.map(_runs, ["builders", "oracle"])
    assert len(built) == 3 * len(PROGRAMS)
    for b, s in zip(built, substituted):
        assert b[:7] == s[:7], (b[:2], [i for i in range(2, 7) if b[i] != s[i]])
    # Each arm evaluated the way it says.
    assert any(b[7] for b in built) and not any(s[7] for s in substituted)

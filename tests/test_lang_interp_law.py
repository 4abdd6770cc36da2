"""Exactness law of the compiled concrete interpreter (``repro.lang.interp``).

The interpreter runs one generated Python function per IR block; its
reference semantics are ``repro.expr.evaluate``'s.  :class:`Oracle` below
is the evaluate-driven interpreter it replaced — an ``isinstance``
dispatch over every instruction, every expression walked by
``evaluate`` — kept here as the law's oracle.  The compiled interpreter
must equal it, as a :class:`RunResult` (exit code, output, steps,
coverage) or as the raised error (type, message, line, steps, output,
partial coverage), on:

* every test the corpus emits in plain mode at 2x2;
* generated control-flow programs (``minic_gen``) on random concrete argv;
* hand-built modules for what the lowering never emits (wide ``putc``
  values, a read at another width than declared, unknown arrays, ...)
  and for its rare corners (a read of an unbound name in an operand the
  evaluator skips, cells holding values wider than their loads);

each one also at ``max_steps`` equal to its step count and one less.
Emitted expression code must equal ``evaluate`` on generated expressions
of every kind, at widths 1, 8 and 32, unbound variables included.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.env.runner import run_symbolic
from repro.expr import nodes as N
from repro.expr import ops
from repro.expr.evaluate import EvalError, evaluate
from repro.expr.nodes import Expr
from repro.expr.sorts import BOOL, BVSort, to_unsigned
from repro.lang import compile_program
from repro.lang.cfg import (
    Block,
    Function,
    IAssert,
    IAssign,
    ICall,
    ILoad,
    IPutc,
    IStore,
    MemRef,
    Module,
    TBr,
    THalt,
    TJmp,
    TRet,
)
from repro.lang.compile import INT_HELPERS
from repro.lang.interp import (
    AssertionFailure,
    InterpError,
    Interpreter,
    OutOfBounds,
    RunResult,
    _BlockCodegen,
    _Env,
)
from repro.lang.types import CHAR, INT, Array2DType, ArrayType
from repro.programs.registry import PROGRAMS

from minic_gen import minic_programs

# -- the oracle: the evaluate-driven interpreter ----------------------------------


class _OracleHalt(Exception):
    def __init__(self, code: int):
        self.code = code


@dataclass
class _OracleRegion:
    cells: list[int]
    cols: int | None  # geometry for 2-D regions
    element_width: int


class Oracle:
    """Executes a module concretely, one ``evaluate`` call per expression."""

    def __init__(self, module: Module, max_steps: int = 2_000_000):
        self.module = module
        self.max_steps = max_steps
        self.regions: dict[int, _OracleRegion] = {}
        self.region_counter = 0
        self.globals_store: dict[str, int] = {}
        self.global_arrays: dict[str, int] = {}
        self.output = bytearray()
        self.steps = 0
        self.coverage: set[tuple[str, str]] = set()
        self._init_globals()

    def _alloc(self, cells: list[int], cols: int | None, width: int) -> int:
        self.region_counter += 1
        self.regions[self.region_counter] = _OracleRegion(cells, cols, width)
        return self.region_counter

    def _init_globals(self) -> None:
        for name, (gtype, init) in self.module.globals.items():
            if isinstance(gtype, ArrayType):
                cells = [0] * (gtype.size or 0)
                self._fill(cells, init)
                self.global_arrays[name] = self._alloc(cells, None, gtype.element.width)
            elif isinstance(gtype, Array2DType):
                size = (gtype.rows or 0) * (gtype.cols or 0)
                self.global_arrays[name] = self._alloc([0] * size, gtype.cols, gtype.element.width)
            else:
                self.globals_store[name] = to_unsigned(int(init or 0), gtype.width)

    @staticmethod
    def _fill(cells: list[int], init: object) -> None:
        if init is None:
            return
        values = list(init)
        for i, v in enumerate(values[: len(cells)]):
            cells[i] = v & 0xFF if isinstance(init, (bytes, bytearray)) else v

    def run_main(self, argv: list[bytes], arg_cols: int | None = None,
                 stdin: bytes = b"") -> RunResult:
        if stdin:
            region_id = self.global_arrays.get("g$__stdin")
            if region_id is None:
                raise InterpError("program compiled without the stdio prelude")
            region = self.regions[region_id]
            data = stdin[: len(region.cells)]
            for i, b in enumerate(data):
                region.cells[i] = b
            self.globals_store["g$__stdin_len"] = len(data)
        main = self.module.function("main")
        cols = arg_cols or (max((len(a) for a in argv), default=0) + 1)
        cells: list[int] = []
        for arg in argv:
            row = list(arg[: cols - 1]) + [0] * (cols - min(len(arg), cols - 1))
            cells.extend(row[:cols])
        argv_region = self._alloc(cells, cols, 8)
        args: list = []
        for _, ptype in main.params:
            if isinstance(ptype, Array2DType):
                args.append(("region", argv_region))
            else:
                args.append(("scalar", len(argv)))
        try:
            code = self._call(main, args)
        except _OracleHalt as h:
            code = h.code
        return RunResult(code or 0, bytes(self.output), self.steps, self.coverage)

    def _call(self, fn: Function, args: list) -> int:
        env = _OracleEnv(self.globals_store)
        arrays: dict[str, int] = dict(self.global_arrays)
        for (pname, ptype), arg in zip(fn.params, args):
            kind, value = arg
            if kind == "scalar":
                env[pname] = to_unsigned(value, ptype.width)
            else:
                arrays[pname] = value
        param_names = {p for p, _ in fn.params}
        for vname, vtype in fn.var_types.items():
            if vname in param_names:
                continue
            if isinstance(vtype, ArrayType):
                cells = [0] * (vtype.size or 0)
                self._fill(cells, getattr(fn, "array_inits", {}).get(vname))
                arrays[vname] = self._alloc(cells, None, vtype.element.width)
            elif isinstance(vtype, Array2DType):
                size = (vtype.rows or 0) * (vtype.cols or 0)
                arrays[vname] = self._alloc([0] * size, vtype.cols, vtype.element.width)

        label = fn.entry
        while True:
            self.steps += 1
            if self.steps > self.max_steps:
                raise InterpError(f"step limit exceeded in {fn.name}")
            self.coverage.add((fn.name, label))
            block = fn.blocks[label]
            for instr in block.instrs:
                if isinstance(instr, IAssign):
                    value = evaluate(instr.expr, env)
                    if instr.dst.startswith("g$"):
                        self.globals_store[instr.dst] = value
                    else:
                        env[instr.dst] = value
                elif isinstance(instr, ILoad):
                    env[instr.dst] = self._load(instr.ref, instr.index, arrays, env, instr.line)
                elif isinstance(instr, IStore):
                    self._store(instr, arrays, env)
                elif isinstance(instr, ICall):
                    callee = self.module.function(instr.func)
                    call_args: list = []
                    for arg, (_, ptype) in zip(instr.args, callee.params):
                        if isinstance(arg, MemRef):
                            call_args.append(("region", self._ref_region(arg, arrays, env)))
                        else:
                            call_args.append(("scalar", evaluate(arg, env)))
                    result = self._call(callee, call_args)
                    if instr.dst is not None:
                        env[instr.dst] = to_unsigned(result, callee.return_type.width)
                elif isinstance(instr, IPutc):
                    self.output.append(evaluate(instr.value, env) & 0xFF)
                elif isinstance(instr, IAssert):
                    if not evaluate(instr.cond, env):
                        raise AssertionFailure(instr.line)
                else:
                    raise InterpError(f"unknown instruction {instr!r}")
            term = block.term
            if isinstance(term, TJmp):
                label = term.label
            elif isinstance(term, TBr):
                label = term.then_label if evaluate(term.cond, env) else term.else_label
            elif isinstance(term, TRet):
                return evaluate(term.value, env) if term.value is not None else 0
            elif isinstance(term, THalt):
                raise _OracleHalt(evaluate(term.code, env) if term.code is not None else 0)
            else:
                raise InterpError(f"block {label} has no terminator")

    def _ref_region(self, ref: MemRef, arrays: dict[str, int], env: dict[str, int]) -> int:
        region_id = arrays.get(ref.array)
        if region_id is None:
            raise InterpError(f"unknown array {ref.array!r}")
        if ref.row is None:
            return region_id
        region = self.regions[region_id]
        if region.cols is None:
            raise InterpError(f"{ref.array!r} is not 2-D")
        row = evaluate(ref.row, env)
        start = row * region.cols
        if not (0 <= start < len(region.cells)):
            raise OutOfBounds(ref.array, row, len(region.cells) // region.cols, 0)
        proxy = _OracleRowProxy(region.cells, start, region.cols)
        return self._alloc(proxy, None, region.element_width)  # type: ignore[arg-type]

    def _flat_index(self, ref: MemRef, index: int, arrays, env, line: int):
        region_id = arrays.get(ref.array)
        if region_id is None:
            raise InterpError(f"unknown array {ref.array!r} at line {line}")
        region = self.regions[region_id]
        flat = index
        if ref.row is not None:
            if region.cols is None:
                raise InterpError(f"{ref.array!r} is not 2-D at line {line}")
            row = evaluate(ref.row, env)
            flat = row * region.cols + index
            if index >= region.cols or index < 0:
                raise OutOfBounds(ref.array, index, region.cols, line)
        if not (0 <= flat < len(region.cells)):
            size = len(region.cells)
            raise OutOfBounds(ref.array, flat, size, line)
        return region, flat

    def _load(self, ref: MemRef, index_expr, arrays, env, line: int) -> int:
        index = evaluate(index_expr, env)
        region, flat = self._flat_index(ref, index, arrays, env, line)
        return region.cells[flat]

    def _store(self, instr: IStore, arrays, env) -> None:
        index = evaluate(instr.index, env)
        region, flat = self._flat_index(instr.ref, index, arrays, env, instr.line)
        value = evaluate(instr.value, env)
        mask = (1 << region.element_width) - 1
        region.cells[flat] = value & mask


class _OracleEnv(dict):
    __slots__ = ("globals",)

    def __init__(self, globals_store: dict[str, int]):
        super().__init__()
        self.globals = globals_store

    def __missing__(self, name: str) -> int:
        return self.globals[name]


class _OracleRowProxy:
    __slots__ = ("backing", "start", "length")

    def __init__(self, backing: list[int], start: int, length: int):
        self.backing = backing
        self.start = start
        self.length = length

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, i: int) -> int:
        if not (0 <= i < self.length):
            raise IndexError(i)
        return self.backing[self.start + i]

    def __setitem__(self, i: int, value: int) -> None:
        if not (0 <= i < self.length):
            raise IndexError(i)
        self.backing[self.start + i] = value


# -- the law ----------------------------------------------------------------------


def outcome(interp_cls, module, argv, stdin=b"", max_steps=20_000):
    interp = interp_cls(module, max_steps)
    try:
        result = interp.run_main(list(argv), stdin=stdin)
    except Exception as exc:  # the error is the outcome under comparison
        return (type(exc), str(exc), getattr(exc, "line", None), interp.steps,
                bytes(interp.output), frozenset(interp.coverage))
    return (result.exit_code, result.output, result.steps, frozenset(result.coverage))


def assert_exact(module, argv, stdin=b""):
    """Compiled == oracle, and again at the step budget's edge."""
    want = outcome(Oracle, module, argv, stdin)
    assert outcome(Interpreter, module, argv, stdin) == want
    steps = want[2] if isinstance(want[0], int) else want[3]
    for budget in (steps, steps - 1):
        assert outcome(Interpreter, module, argv, stdin, budget) == \
            outcome(Oracle, module, argv, stdin, budget)
    return want


# seq and factor parse numbers (mul/div chains): at 2x2 a plain run does
# not end in a unit-test budget, and at 1x1 it still reaches every block
# kind they have.
CORPUS_DIMS = {"factor": (1, 1), "seq": (1, 1)}


@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_compiled_equals_oracle_on_corpus_tests(program):
    n, length = CORPUS_DIMS.get(program, (2, 2))
    # link's 2x2 path space is thousands of paths; a block budget keeps
    # the run to its first few hundred tests.
    result = run_symbolic(program, n_args=n, arg_len=length, max_steps=5000)
    module = result.engine.module
    assert result.tests.cases
    for case in result.tests.cases:
        assert_exact(module, case.argv, case.stdin)


@settings(max_examples=60, deadline=None)
@given(minic_programs(control=True), st.lists(st.binary(max_size=3), max_size=3))
def test_compiled_equals_oracle_on_generated_programs(source, args):
    assert_exact(compile_program(source), [b"prog", *args])


_CORNERS = {
    # An unbound name in an operand evaluate skips: an ite arm, the right
    # side of && and ||.  Where nothing skips it, both raise EvalError.
    "lazy_operands": """
int main(int argc, char argv[][]) {
  if (argc > 2) { int x = 1; }
  int a = argc > 2 ? x : 7;
  if (argc > 2 && x > 0) a = a + 1;
  if (argc < 3 || x > 0) a = a + 2;
  return a + (argc > 3 ? x : 0);
}
""",
    # Cells wider than their loads: negative and oversized initializers,
    # and an int array read and written through a char parameter.
    "wide_cells": """
int first(char s[]) { s[1] = s[0] + 1; return s[0]; }
int main(int argc, char argv[][]) {
  int a[2] = {-1, 300};
  char b[2] = {300, -2};
  int buf[2];
  buf[0] = 1000 + argc;
  putchar(b[0]); putchar(b[1]);
  return a[0] + a[1] + first(buf) + buf[1];
}
""",
    # A callee's global writes are seen after the call, through every
    # local the block held; recursion; halt from a callee; a row passed
    # by reference, in and out of bounds.
    "calls": """
int g = 1;
char msg[3] = "hi";
void bump(int by) { g = g + by; msg[0] = msg[0] + 1; }
int fact(int n) { if (n < 2) return 1; return n * fact(n - 1); }
int len(char s[]) { int n = 0; while (s[n] != 0) n++; return n; }
void stop(int code) { halt(code); }
int main(int argc, char argv[][]) {
  g = 5;
  bump(argc);
  putchar(msg[0]);
  int r = g * 100 + fact(argc + 2) + len(argv[argc - 1]);
  if (argc > 3) stop(r);
  return r + len(argv[argc]);
}
""",
    "assert": """
int main(int argc, char argv[][]) {
  int s = 0;
  for (int i = 0; i < argc; i++) s = s + argv[i][0];
  assert(s % 3 != 0);
  return s;
}
""",
    "spin": "int main(int argc, char argv[][]) { while (argc > 0) { argc = argc + 0; } return 0; }",
}


@pytest.mark.parametrize("argv", [[b"p"], [b"p", b"ab"], [b"p", b"x", b"yz"],
                                  [b"p", b"a", b"b", b"c"]])
@pytest.mark.parametrize("name", sorted(_CORNERS))
def test_compiled_equals_oracle_on_corner_programs(name, argv):
    assert_exact(compile_program(_CORNERS[name]), argv)


def test_lazy_operands_step_around_an_unbound_name():
    source = """
int main(int argc, char argv[][]) {
  if (argc > 2) { int x = 1; }
  int a = argc > 2 ? x : 7;
  return argc == 2 ? x : a;
}
"""
    module = compile_program(source)
    assert assert_exact(module, [b"p"])[0] == 7
    assert assert_exact(module, [b"p", b"", b""])[0] == 1
    assert assert_exact(module, [b"p", b""])[:2] == (EvalError, "unbound variable 'x'")


def _module(*blocks, var_types=None, globals_=None) -> Module:
    main = Function("main", INT, (), dict(var_types or {}),
                    {b.label: b for b in blocks}, blocks[0].label)
    return Module({"main": main}, dict(globals_ or {}))


def _x32():
    return ops.bv_var("x", 32)


HAND_BUILT = {
    # putc truncates what it prints to a byte.
    "wide_putc": _module(Block("e", [IPutc(ops.bv(300, 32), 1)], TRet(ops.bv(0, 32)))),
    # A read at another width than the declaration truncates to the read.
    "narrow_read": _module(
        Block("e", [IAssign("x", ops.bv(300, 32), 1)],
              TRet(ops.zext(ops.bv_var("x", 8), 32))),
        var_types={"x": INT}),
    # Undeclared scalars, a boolean among them, are stored as computed.
    "undeclared": _module(
        Block("e", [IAssign("b", ops.ult(ops.bv(1, 8), ops.bv(2, 8)), 1),
                    IAssign("y", ops.bv(7, 16), 2)],
              TBr(ops.bool_var("b"), "t", "f")),
        Block("t", [], TRet(ops.zext(ops.bv_var("y", 16), 32))),
        Block("f", [], TRet(ops.bv(1, 32)))),
    "unknown_array": _module(
        Block("e", [ILoad("x", MemRef("nope"), ops.bv(0, 32), 3)], TRet(_x32())),
        var_types={"x": INT}),
    "not_2d": _module(
        Block("e", [ILoad("x", MemRef("a", ops.bv(0, 32)), ops.bv(0, 32), 4)], TRet(_x32())),
        var_types={"x": INT, "a": ArrayType(INT, 2)}),
    "no_terminator": _module(Block("e", [IAssign("x", ops.bv(1, 32), 1)]), var_types={"x": INT}),
    "global_store": _module(
        Block("e", [IStore(MemRef("g$a"), ops.bv(1, 32), ops.bv(0x1FF, 32), 2),
                    ILoad("x", MemRef("g$a"), ops.bv(1, 32), 3),
                    IAssert(ops.eq(_x32(), ops.bv(0xFF, 32)), 4),
                    IAssert(ops.eq(_x32(), ops.bv(0, 32)), 5)],
              TRet(_x32())),
        var_types={"x": INT}, globals_={"g$a": (ArrayType(CHAR, 2), None)}),
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_compiled_equals_oracle_on_hand_built_modules(name):
    assert_exact(HAND_BUILT[name], [b"p"])


# -- emitted expression code == evaluate -------------------------------------------

_STRICT_BV = (N.ADD, N.SUB, N.MUL, N.UDIV, N.UREM, N.SDIV, N.SREM,
              N.BVAND, N.BVOR, N.BVXOR, N.SHL, N.LSHR, N.ASHR)
_CMP = (N.EQ, N.ULT, N.ULE, N.SLT, N.SLE)
_NAMES = ("a", "b")


def _const(width):
    mask = (1 << width) - 1
    smin = 1 << (width - 1)
    return st.one_of(st.sampled_from([0, 1, mask, smin, smin - 1, width]),
                     st.integers(0, mask)).map(lambda v: ops.bv(v, width))


@st.composite
def exprs(draw, width, depth=3):
    """Raw nodes (no smart-constructor folding) of sort ``width`` (0 = bool)."""
    if depth == 0 or draw(st.integers(0, 4)) == 0:
        if width == 0:
            return draw(st.sampled_from([ops.bool_var("p"), ops.TRUE, ops.FALSE]))
        if draw(st.booleans()):
            return ops.bv_var(f"{draw(st.sampled_from(_NAMES))}{width}", width)
        return draw(_const(width))
    sub = lambda w: exprs(w, depth - 1)  # noqa: E731
    if width == 0:
        kind = draw(st.sampled_from((N.NOT, N.AND, N.OR, N.XOR, N.ITE) + _CMP))
        if kind == N.NOT:
            return Expr._make(kind, BOOL, (draw(sub(0)),))
        if kind == N.ITE:
            return Expr._make(kind, BOOL, (draw(sub(0)), draw(sub(0)), draw(sub(0))))
        if kind in _CMP:
            w = draw(st.sampled_from((1, 8, 32)))
            return Expr._make(kind, BOOL, (draw(sub(w)), draw(sub(w))))
        return Expr._make(kind, BOOL, (draw(sub(0)), draw(sub(0))))
    sort = BVSort(width)
    kinds = list(_STRICT_BV) + [N.NEG, N.BVNOT, N.ITE, N.EXTRACT]
    if width > 1:
        kinds += [N.ZEXT, N.SEXT, N.CONCAT]
    kind = draw(st.sampled_from(kinds))
    if kind in (N.NEG, N.BVNOT):
        return Expr._make(kind, sort, (draw(sub(width)),))
    if kind == N.ITE:
        return Expr._make(kind, sort, (draw(sub(0)), draw(sub(width)), draw(sub(width))))
    if kind in (N.ZEXT, N.SEXT):
        inner = draw(st.sampled_from([w for w in (1, 8, 16) if w < width] or [1]))
        return Expr._make(kind, sort, (draw(sub(inner)),), params=(width,))
    if kind == N.EXTRACT:
        inner = draw(st.sampled_from([w for w in (8, 32) if w >= width]))
        lo = draw(st.integers(0, inner - width))
        return Expr._make(kind, sort, (draw(sub(inner)),), params=(lo + width - 1, lo))
    if kind == N.CONCAT:
        hi = draw(st.integers(1, width - 1))
        return Expr._make(kind, sort, (draw(sub(hi)), draw(sub(width - hi))))
    return Expr._make(kind, sort, (draw(sub(width)), draw(sub(width))))


def compiled_expr(e):
    """``e`` through the interpreter's emitter, as a function of an env."""
    fn = Function("f", None, (), {}, {}, "e")
    gen = _BlockCodegen(Module({}, {}), fn)
    text = gen.expr_int(e)
    source = "\n".join(["def f(env):", *gen.lines, f"    return {text}"])
    namespace = dict(INT_HELPERS)
    exec(compile(source, "<expr>", "exec"), namespace)
    return namespace["f"]


def _value(run):
    try:
        return run()
    except EvalError as exc:
        return ("unbound", str(exc))


_ASSIGNMENTS = st.dictionaries(
    st.sampled_from([f"{n}{w}" for n in _NAMES for w in (1, 8, 16, 32)] + ["p"]),
    st.one_of(st.integers(-(1 << 33), 1 << 33), st.sampled_from([0, 1, -1, 1 << 31, 255])),
)


@pytest.mark.parametrize("width", [0, 1, 8, 32])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_emitted_expression_code_equals_evaluate(width, data):
    e = data.draw(exprs(width))
    assignment = data.draw(_ASSIGNMENTS)
    run = compiled_expr(e)
    assert _value(lambda: run(_Env(assignment))) == _value(lambda: evaluate(e, assignment))


@pytest.mark.parametrize("kind", [N.UDIV, N.UREM, N.SDIV, N.SREM, N.SHL, N.LSHR, N.ASHR])
@pytest.mark.parametrize("width", [1, 8, 32])
def test_edge_operands_equal_evaluate(kind, width):
    """Division by zero, shifts by >= width and the signed minimum, with
    constant and variable right operands."""
    mask, smin = (1 << width) - 1, 1 << (width - 1)
    x = ops.bv_var(f"a{width}", width)
    y = ops.bv_var(f"b{width}", width)
    values = sorted(v for v in {0, 1, mask, smin, smin - 1, width, width + 1} if v <= mask)
    for a in values:
        for b in values:
            assignment = {f"a{width}": a, f"b{width}": b}
            for rhs in (y, ops.bv(b, width)):
                e = Expr._make(kind, BVSort(width), (x, rhs))
                assert compiled_expr(e)(_Env(assignment)) == evaluate(e, assignment), (a, b)

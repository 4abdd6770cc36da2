"""Generated-code tiers over the CFG IR: the one IR→int emitter, the
lowering tier that compiles hot straight-line prefixes for the engine, and
the expression builders its interpreter evaluates every expression with.

:class:`_Codegen` turns an IR expression into Python expression text that
computes its int value.  Two tiers emit through it and differ only in its
VAR leaf (:meth:`_Codegen.var_int`): this module's lowering tier reads the
engine's Expr store and bails when an operand is not concrete, and the
concrete interpreter (``repro.lang.interp``) reads a frame's ints.

The expression builders.  ``SymState.eval_expr`` runs each IR expression
through a generated function of its own (:func:`compile_builder`, memoised
per expression in :data:`BUILDERS`): it reads the expression's variables
straight from the frame's store and the global store, then rebuilds every
node that holds one with the smart constructor ``repro.expr.subst.rebuild``
would call, one statement per DAG node.  It is ``substitute``'s walk with
the walking done once, at compile time — no mapping dict, no per-node set
intersection, cache probe or child tuple — and it keeps the walk's order
and its short-circuit (all children unchanged: the node itself), so it
returns the same interned object and interns the same nodes in the same
order.  ``substitute`` stays the reference (``tests/test_engine_eval_law.py``).

The lowering tier.  The interpreter in ``repro.engine.executor`` dispatches
every instruction through ``isinstance`` chains and evaluates every
expression through its builder, one smart-constructor call (and intern
lookup) per rebuilt node.  On concrete-dominated blocks (string scanning
loops, counters) almost all of that work collapses to a few integer
operations.  This module compiles the longest *straight-line prefix* of a
block — ``IAssign``/``ILoad``/``IStore``/``IPutc``/``IAssert``, stopping
at the first ``ICall`` or unsupported expression — into one generated
Python function that executes the prefix with native ints while every
touched operand is concrete.

Exactness contract (the only law that matters here):

* Expressions in the IR are built by the smart constructors in
  ``repro.expr.ops``, which fold all-constant operands with arithmetic
  identical to ``repro.expr.evaluate``.  The generated code reproduces that
  arithmetic on raw ints and re-interns results through ``ops.bv`` /
  ``ops.bool_const``, so a compiled step produces the *same interned Expr
  object* the interpreter's builder would.
* The compiled function mutates state only for instructions it fully
  retires.  At the first symbolic operand, unbound name, missing region,
  out-of-bounds concrete index, or failed/symbolic assertion it *bails*:
  it returns the number of instructions completed and the engine re-enters
  the interpreter at exactly that instruction, which then reproduces the
  slow-path behaviour (solver queries, error reports, KeyErrors) verbatim.

The closure protocol: ``CompiledBlock.run(state) -> ran`` where ``ran`` is
the count of fully executed instructions (``0 <= ran <= prefix_len``).  The
caller sets ``frame.idx = ran`` and accounts ``ran`` executed instructions
before falling through to the interpreter loop.  It must only be invoked
when ``frame.idx == 0`` (resumed frames re-enter mid-block and take the
interpreter path).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..expr import nodes as N
from ..expr import ops
from ..expr.nodes import Expr
from ..expr.sorts import ashr_int, sdiv_int, srem_int
from ..expr.subst import REBUILD, rebuild, substitute
from ..memo import BoundedMemo
from .cfg import Block, IAssert, IAssign, ILoad, IPutc, IStore
from .lower import straightline_prefix

__all__ = ["BUILDERS", "CompiledBlock", "compile_block", "compile_builder"]

_GLOBAL_KEY_DEPTH = 0  # matches engine.state.GLOBAL_DEPTH


class _Unsupported(Exception):
    """Raised during codegen when an instruction cannot be compiled."""


def _udiv(a: int, b: int, mask: int) -> int:
    return mask if b == 0 else a // b


def _urem(a: int, b: int) -> int:
    return a if b == 0 else a % b


# Names the emitted expression text calls; every generated namespace has them.
INT_HELPERS = {
    # The evaluator's own signed semantics (repro.expr.sorts).
    "_sdiv": sdiv_int,
    "_srem": srem_int,
    "_ashr": ashr_int,
    # Unsigned division by a non-constant divisor, whose operands must both
    # be computed, left to right, before the zero test.
    "_udiv": _udiv,
    "_urem": _urem,
}

_COMPARE = {N.XOR: "!=", N.EQ: "==", N.ULT: "<", N.ULE: "<="}
_ARITH = {N.ADD: "+", N.SUB: "-", N.MUL: "*"}
_BITWISE = {N.BVAND: "&", N.BVOR: "|", N.BVXOR: "^"}
_SIGNED = {N.SDIV: "_sdiv", N.SREM: "_srem", N.ASHR: "_ashr"}


@dataclass(frozen=True)
class CompiledBlock:
    """A compiled straight-line prefix of one CFG block."""

    run: object  # callable: (SymState) -> int (instructions retired)
    prefix_len: int
    source: str  # generated code, kept for debugging and tests


class _Codegen:
    """The IR→int emitter: statement lines plus expression text.

    Subclasses supply the VAR leaf, :meth:`var_int`, which may emit
    statements of its own (they run before the expression that uses it).
    """

    def __init__(self) -> None:
        self.lines: list[str] = []
        self._tmp = 0

    def tmp(self) -> str:
        self._tmp += 1
        return f"t{self._tmp}"

    def emit(self, line: str) -> None:
        self.lines.append("    " + line)

    def var_int(self, e) -> str:
        """Python expression for the int value of the VAR node ``e``."""
        raise NotImplementedError

    def expr_int(self, e) -> str:
        """Python expression text computing ``e``'s int value.

        Matches ``repro.expr.evaluate`` node for node, and in its order:
        operands left to right; an ``ite`` arm, the right operand of
        ``and``/``or`` and the shifted operand of ``shl``/``lshr`` only
        when the evaluator reaches them (Python's own lazy conditionals).
        So the only reads a VAR leaf can fail on happen exactly where the
        evaluator's would.  Booleans are 0/1; bitvectors unsigned.
        """
        kind = e.kind
        if kind == N.CONST:
            return str(e.value)
        if kind == N.VAR:
            return self.var_int(e)
        c = e.children
        a = [self.expr_int(child) for child in c]
        if kind == N.ITE:
            return f"({a[1]} if {a[0]} else {a[2]})"
        if kind == N.NOT:
            return f"(0 if {a[0]} else 1)"
        if kind == N.AND:
            return f"(1 if {a[0]} and {a[1]} else 0)"
        if kind == N.OR:
            return f"(1 if {a[0]} or {a[1]} else 0)"
        if kind in _COMPARE:
            return f"(1 if {a[0]} {_COMPARE[kind]} {a[1]} else 0)"
        if kind in (N.SLT, N.SLE):
            # Flipping the sign bit maps two's-complement order to unsigned.
            h = 1 << (c[0].width - 1)
            op = "<" if kind == N.SLT else "<="
            return f"(1 if ({a[0]} ^ {h}) {op} ({a[1]} ^ {h}) else 0)"
        if kind == N.ZEXT:
            return a[0]
        w = e.width
        mask = (1 << w) - 1
        if kind == N.SEXT:
            h = 1 << (c[0].width - 1)
            return f"((({a[0]} ^ {h}) - {h}) & {mask})"
        if kind == N.EXTRACT:
            hi, lo = e.params
            return f"(({a[0]} >> {lo}) & {(1 << (hi - lo + 1)) - 1})"
        if kind == N.CONCAT:
            return f"(({a[0]} << {c[1].width}) | {a[1]})"
        if kind in _ARITH:
            return f"(({a[0]} {_ARITH[kind]} {a[1]}) & {mask})"
        if kind == N.NEG:
            return f"(-{a[0]} & {mask})"
        if kind == N.BVNOT:
            return f"(~{a[0]} & {mask})"
        if kind in _BITWISE:
            return f"({a[0]} {_BITWISE[kind]} {a[1]})"
        if kind in (N.UDIV, N.UREM):
            if c[1].kind == N.CONST and c[1].value:
                return f"({a[0]} {'//' if kind == N.UDIV else '%'} {a[1]})"
            if kind == N.UDIV:
                return f"_udiv({a[0]}, {a[1]}, {mask})"
            return f"_urem({a[0]}, {a[1]})"
        if kind in _SIGNED:
            return f"{_SIGNED[kind]}({a[0]}, {a[1]}, {w})"
        if kind in (N.SHL, N.LSHR):
            # The amount is computed once, first; the operand only below w.
            amount = self.tmp()
            if kind == N.SHL:
                shifted = f"(({a[0]} << {amount}) & {mask})"
            else:
                shifted = f"({a[0]} >> {amount})"
            return f"(0 if ({amount} := {a[1]}) >= {w} else {shifted})"
        raise _Unsupported(kind)


class _PrefixCodegen(_Codegen):
    """Emits the body of one compiled-prefix function (the lowering tier)."""

    def __init__(self) -> None:
        super().__init__()
        self.consts: list[object] = []  # Expr objects referenced as K[j]
        # Program-var name -> python local holding its concrete int value.
        self.known_int: dict[str, str] = {}
        # Program-var name -> python local holding its Expr object (maybe
        # symbolic).  Invalidation mirrors the store: reassignment replaces.
        self.known_expr: dict[str, str] = {}
        self.bail = 0  # current instruction index; bails return this

    def const_ref(self, obj: object) -> str:
        self.consts.append(obj)
        return f"K[{len(self.consts) - 1}]"

    # -- operand access --------------------------------------------------------

    def fetch_expr(self, name: str) -> str:
        """Local holding the Expr bound to ``name`` (bails when unbound)."""
        loc = self.known_expr.get(name)
        if loc is not None:
            return loc
        loc = self.tmp()
        src = "g" if name.startswith("g$") else "store"
        self.emit(f"{loc} = {src}.get({name!r})")
        self.emit(f"if {loc} is None: return {self.bail}")
        self.known_expr[name] = loc
        return loc

    def var_int(self, e) -> str:
        """Local holding the concrete int value of ``e`` (bails if symbolic)."""
        name = e.name
        loc = self.known_int.get(name)
        if loc is not None:
            return loc
        eloc = self.fetch_expr(name)
        self.emit(f"if {eloc}.kind != 'const': return {self.bail}")
        loc = self.tmp()
        self.emit(f"{loc} = {eloc}.value")
        self.known_int[name] = loc
        return loc

    def set_var(self, name: str, expr_loc: str, int_loc: str | None) -> None:
        """Record that ``name`` now holds the value in ``expr_loc``."""
        self.known_expr[name] = expr_loc
        if int_loc is not None:
            self.known_int[name] = int_loc
        else:
            self.known_int.pop(name, None)

    def int_local(self, e) -> str:
        """A local holding ``e``'s int value, computed once."""
        loc = self.tmp()
        self.emit(f"{loc} = {self.expr_int(e)}")
        return loc

    def value_expr(self, e) -> tuple[str, str | None]:
        """Compile a value position to ``(expr_loc, int_loc | None)``.

        CONST and VAR pass the Expr object through untouched — exactly what
        ``eval_expr`` does — so copies of *symbolic* values
        stay compiled.  Anything else is computed concretely and re-interned.
        """
        if e.kind == N.CONST:
            loc = self.const_ref(e)
            return loc, str(e.value)
        if e.kind == N.VAR:
            eloc = self.fetch_expr(e.name)
            return eloc, self.known_int.get(e.name)
        val = self.int_local(e)
        loc = self.tmp()
        if e.is_bv():
            self.emit(f"{loc} = _bv({val}, {e.width})")
        else:
            self.emit(f"{loc} = _TRUE if {val} else _FALSE")
        return loc, val

    # -- memory addressing -----------------------------------------------------

    def region_and_flat(self, ref, index_expr) -> tuple[str, str, str]:
        """Compile binding + flat-index; returns (key_src, region_loc, flat_loc).

        Reproduces state.resolve_binding / state.flat_index on the concrete
        path and bails wherever the interpreter would take a slow path or
        raise.  Index arithmetic uses width 32 (``flat_index`` builds the
        row term with ``ops.bv(cols, 32)``, so any other width raises in the
        interpreter — we refuse to compile those).
        """
        if ref.array.startswith("g$"):
            key_src = self.const_ref((_GLOBAL_KEY_DEPTH, "global", ref.array))
            binding_row = None  # global bindings never carry a row view
        else:
            b = self.tmp()
            self.emit(f"{b} = arrays.get({ref.array!r})")
            self.emit(f"if {b} is None: return {self.bail}")
            key_src = f"{b}.key"
            binding_row = b
        rg = self.tmp()
        self.emit(f"{rg} = regions.get({key_src})")
        self.emit(f"if {rg} is None: return {self.bail}")
        idx = self.int_local(index_expr)
        if ref.row is not None:
            # Instruction-level row wins over any binding row (flat_index).
            if ref.row.width != 32 or index_expr.width != 32:
                raise _Unsupported("row math needs width-32 operands")
            row = self.expr_int(ref.row)
            self.emit(f"if {rg}.cols is None: return {self.bail}")
            flat = self.tmp()
            self.emit(f"{flat} = ({row} * {rg}.cols + {idx}) & 4294967295")
        elif binding_row is None:
            flat = idx
        else:
            # The binding itself may be a 2-D row view (argv rows).
            br, flat = self.tmp(), self.tmp()
            self.emit(f"{br} = {binding_row}.row")
            if index_expr.width != 32:
                self.emit(f"if {br} is not None: return {self.bail}")
                self.emit(f"{flat} = {idx}")
            else:
                self.emit(f"if {br} is None:")
                self.emit(f"    {flat} = {idx}")
                self.emit(
                    f"elif {br}.kind != 'const' or {br}.width != 32 "
                    f"or {rg}.cols is None: return {self.bail}"
                )
                self.emit("else:")
                self.emit(f"    {flat} = ({br}.value * {rg}.cols + {idx}) & 4294967295")
        self.emit(f"if {flat} >= len({rg}.cells): return {self.bail}")
        return key_src, rg, flat

    # -- instruction compilation -----------------------------------------------

    def assign_stmt(self, name: str, expr_loc: str) -> str:
        dst = "g" if name.startswith("g$") else "store"
        return f"{dst}[{name!r}] = {expr_loc}"

    def compile_instr(self, instr) -> None:
        if isinstance(instr, IAssign):
            eloc, iloc = self.value_expr(instr.expr)
            self.emit(self.assign_stmt(instr.dst, eloc))
            self.set_var(instr.dst, eloc, iloc)
        elif isinstance(instr, IPutc):
            eloc, _ = self.value_expr(instr.value)
            self.emit(f"state.output = state.output + ({eloc},)")
        elif isinstance(instr, IAssert):
            cond = instr.cond
            if cond.kind == N.CONST:
                if not cond.value:
                    self.emit(f"return {self.bail}")
                return
            self.emit(f"if not {self.expr_int(cond)}: return {self.bail}")
        elif isinstance(instr, ILoad):
            _, rg, flat = self.region_and_flat(instr.ref, instr.index)
            cell = self.tmp()
            self.emit(f"{cell} = {rg}.cells[{flat}]")
            self.emit(self.assign_stmt(instr.dst, cell))
            self.set_var(instr.dst, cell, None)
        elif isinstance(instr, IStore):
            # Value first (operand bails must precede the region write), then
            # address; the write itself is the only mutation.
            eloc, _ = self.value_expr(instr.value)
            key_src, rg, flat = self.region_and_flat(instr.ref, instr.index)
            self.emit(f"regions[{key_src}] = {rg}.with_cell({flat}, {eloc})")
        else:  # pragma: no cover - straightline_prefix filters these
            raise _Unsupported(type(instr).__name__)


def compile_block(block: Block) -> CompiledBlock | None:
    """Compile ``block``'s straight-line prefix; None when nothing compiles."""
    limit = straightline_prefix(block)
    gen = _PrefixCodegen()
    prefix_len = 0
    for i in range(limit):
        gen.bail = i
        mark = (len(gen.lines), len(gen.consts), gen._tmp)
        known = (dict(gen.known_int), dict(gen.known_expr))
        try:
            gen.compile_instr(block.instrs[i])
        except _Unsupported:
            del gen.lines[mark[0] :]
            del gen.consts[mark[1] :]
            gen._tmp = mark[2]
            gen.known_int, gen.known_expr = known
            break
        prefix_len = i + 1
    if prefix_len == 0:
        return None
    header = [
        "def _run(state):",
        "    frame = state.frames[-1]",
        "    store = frame.store",
        "    g = state.globals_store",
        "    arrays = frame.arrays",
        "    regions = state.regions",
    ]
    source = "\n".join(header + gen.lines + [f"    return {prefix_len}"])
    namespace = {
        "K": tuple(gen.consts),
        "_bv": ops.bv,
        "_TRUE": ops.TRUE,
        "_FALSE": ops.FALSE,
        **INT_HELPERS,
    }
    exec(compile(source, f"<compiled block {block.label}>", "exec"), namespace)
    return CompiledBlock(run=namespace["_run"], prefix_len=prefix_len, source=source)


# -- the symbolic interpreter's expression builders --------------------------------


def _substituted(state, expr):
    """``expr`` under ``state``'s bindings by ``repro.expr.subst.substitute``.

    The builders' path wherever a leaf is not what they were compiled for:
    an unbound name raises ``state.lookup``'s ``KeyError`` and a value of
    another sort ``substitute``'s ``TypeError``, verbatim.
    """
    return substitute(expr, {name: state.lookup(name) for name in expr.variables})


# What a builder calls: each kind's smart constructor, named ``_<kind>``.
_BUILDER_GLOBALS = {
    **{f"_{kind}": ctor for kind, (ctor, _) in REBUILD.items()},
    "_rebuild": rebuild,
    "_substituted": _substituted,
}

# IR expression eid -> its builder; the builder's globals pin the expression.
BUILDERS = BoundedMemo(1 << 14, process_wide=True)


class _BuilderCodegen:
    """Emits one IR expression's builder: ``(SymState) -> Expr``.

    It is ``substitute``'s walk unrolled over one DAG.  A prologue reads
    every VAR leaf from the top frame's store or the global store and
    checks its sort; then one statement per node that holds a variable, in
    ``_walk``'s post-order (children left to right, a shared node once),
    keeps the node itself when every rebuilt child ``is`` the old one and
    otherwise calls the smart constructor ``rebuild`` would.  So it
    returns the object ``substitute`` returns and interns the same fresh
    nodes in the same order; a leaf it cannot take (unbound, another sort)
    sends the whole expression to :func:`_substituted` before anything is
    built.
    """

    def __init__(self, expr: Expr) -> None:
        self.expr = expr
        self.namespace = dict(_BUILDER_GLOBALS)
        self.reads: list[str] = []
        self.lines: list[str] = []
        self.value: dict[int, str] = {}  # node eid -> local holding its new value
        self.refs: dict[int, str] = {}  # object id -> global naming it

    def ref(self, obj) -> str:
        """A global of the builder naming ``obj`` (an Expr or a sort)."""
        name = self.refs.get(id(obj))
        if name is None:
            name = self.refs[id(obj)] = f"k{len(self.refs)}"
            self.namespace[name] = obj
        return name

    def visit(self, e: Expr) -> str:
        """Text of ``e``'s new value: a global if it holds no variable."""
        if not e.variables:
            return self.ref(e)
        loc = self.value.get(e.eid)
        if loc is not None:
            return loc
        loc = self.value[e.eid] = f"t{len(self.value)}"
        if e.kind == N.VAR:
            src = "g" if e.name.startswith("g$") else "store"
            self.reads.append(f"    {loc} = {src}.get({e.name!r})")
            self.reads.append(
                f"    if {loc} is None or {loc}.sort is not {self.ref(e.sort)}: "
                f"return _substituted(state, {self.ref(self.expr)})"
            )
            return loc
        args = [self.visit(c) for c in e.children]
        same = " and ".join(
            f"{a} is {self.ref(c)}" for a, c in zip(args, e.children) if c.variables
        )
        if e.kind in REBUILD:
            params = [str(p) for p in e.params[: REBUILD[e.kind][1]]]
            call = f"_{e.kind}({', '.join(args + params)})"
        else:  # rebuild's own error for a kind it cannot rebuild
            call = f"_rebuild({e.kind!r}, ({', '.join(args)},), {e.params!r})"
        self.lines.append(f"    {loc} = {self.ref(e)} if {same} else {call}")
        return loc

    def function(self):
        result = self.visit(self.expr)
        header = ["def _build(state):"]
        names = self.expr.variables
        if not all(name.startswith("g$") for name in names):
            header.append("    store = state.frames[-1].store")
        if any(name.startswith("g$") for name in names):
            header.append("    g = state.globals_store")
        source = "\n".join(header + self.reads + self.lines + [f"    return {result}"])
        exec(compile(source, "<expression builder>", "exec"), self.namespace)
        return self.namespace["_build"]


def compile_builder(expr: Expr):
    """``expr``'s builder (memoised in :data:`BUILDERS`): called with a
    state, it returns what :func:`_substituted` would, as the same object."""
    builder = _BuilderCodegen(expr).function()
    BUILDERS.put(expr.eid, builder)
    return builder

"""Lowering tier: compile hot straight-line CFG prefixes to Python closures.

The interpreter in ``repro.engine.executor`` dispatches every instruction
through ``isinstance`` chains and evaluates every expression by building a
substitution dict and re-interning each node.  On concrete-dominated blocks
(string scanning loops, counters) almost all of that work collapses to a few
integer operations.  This module compiles the longest *straight-line prefix*
of a block — ``IAssign``/``ILoad``/``IStore``/``IPutc``/``IAssert``, stopping
at the first ``ICall`` or unsupported expression — into one generated Python
function that executes the prefix with native ints while every touched
operand is concrete.

Exactness contract (the only law that matters here):

* Expressions in the IR are built by the smart constructors in
  ``repro.expr.ops``, which fold all-constant operands with arithmetic
  identical to ``repro.expr.evaluate``.  The generated code reproduces that
  arithmetic on raw ints and re-interns results through ``ops.bv`` /
  ``ops.bool_const``, so a compiled step produces the *same interned Expr
  object* the interpreter's substitute-and-fold would.
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
from ..expr.sorts import ashr_int, sdiv_int, srem_int
from .cfg import Block, IAssert, IAssign, ILoad, IPutc, IStore
from .lower import straightline_prefix

__all__ = ["CompiledBlock", "compile_block"]

_GLOBAL_KEY_DEPTH = 0  # matches engine.state.GLOBAL_DEPTH


class _Unsupported(Exception):
    """Raised during codegen when an instruction cannot be compiled."""


@dataclass(frozen=True)
class CompiledBlock:
    """A compiled straight-line prefix of one CFG block."""

    run: object  # callable: (SymState) -> int (instructions retired)
    prefix_len: int
    source: str  # generated code, kept for debugging and tests


class _Codegen:
    """Emits the body of one compiled-prefix function."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.consts: list[object] = []  # Expr objects referenced as K[j]
        self._tmp = 0
        # Program-var name -> python local holding its concrete int value.
        self.known_int: dict[str, str] = {}
        # Program-var name -> python local holding its Expr object (maybe
        # symbolic).  Invalidation mirrors the store: reassignment replaces.
        self.known_expr: dict[str, str] = {}
        self.bail = 0  # current instruction index; bails return this

    def tmp(self) -> str:
        self._tmp += 1
        return f"t{self._tmp}"

    def emit(self, line: str) -> None:
        self.lines.append("    " + line)

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

    def var_int(self, name: str) -> str:
        """Local holding the concrete int value of ``name`` (bails if symbolic)."""
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

    # -- expression compilation ------------------------------------------------

    def expr_int(self, e, cache: dict[int, str]) -> str:
        """Compile ``e`` to a python expression/local yielding its int value.

        Matches evaluate._eval_node; every VAR leaf is guarded concrete.
        ``cache`` dedupes DAG-shared nodes within one instruction.
        """
        kind = e.kind
        if kind == N.CONST:
            return str(e.value)
        if kind == N.VAR:
            return self.var_int(e.name)
        hit = cache.get(e.eid)
        if hit is not None:
            return hit
        c = e.children
        if kind == N.ITE:
            # Both branches are side-effect-free int expressions, so the
            # non-short-circuit evaluate() semantics are preserved.
            cond = self.expr_int(c[0], cache)
            tv = self.expr_int(c[1], cache)
            fv = self.expr_int(c[2], cache)
            s = f"({tv} if {cond} else {fv})"
        elif kind == N.NOT:
            s = f"(0 if {self.expr_int(c[0], cache)} else 1)"
        elif kind in (N.AND, N.OR, N.XOR, N.EQ, N.ULT, N.ULE):
            a = self.expr_int(c[0], cache)
            b = self.expr_int(c[1], cache)
            if kind == N.AND:
                s = f"(1 if ({a} and {b}) else 0)"
            elif kind == N.OR:
                s = f"(1 if ({a} or {b}) else 0)"
            elif kind == N.XOR:
                s = f"(1 if {a} != {b} else 0)"
            elif kind == N.EQ:
                s = f"(1 if {a} == {b} else 0)"
            elif kind == N.ULT:
                s = f"(1 if {a} < {b} else 0)"
            else:
                s = f"(1 if {a} <= {b} else 0)"
        elif kind in (N.SLT, N.SLE):
            w = c[0].width
            half, full = 1 << (w - 1), 1 << w
            a = self.expr_int(c[0], cache)
            b = self.expr_int(c[1], cache)
            sa, sb = self.tmp(), self.tmp()
            self.emit(f"{sa} = {a} - {full} if {a} >= {half} else {a}")
            self.emit(f"{sb} = {b} - {full} if {b} >= {half} else {b}")
            op = "<" if kind == N.SLT else "<="
            s = f"(1 if {sa} {op} {sb} else 0)"
        elif kind == N.ZEXT:
            s = self.expr_int(c[0], cache)
        elif kind == N.SEXT:
            cw, w = c[0].width, e.width
            a = self.expr_int(c[0], cache)
            s = f"({a} + {(1 << w) - (1 << cw)} if {a} >= {1 << (cw - 1)} else {a})"
        elif kind == N.EXTRACT:
            hi, lo = e.params
            a = self.expr_int(c[0], cache)
            s = f"(({a} >> {lo}) & {(1 << (hi - lo + 1)) - 1})"
        elif kind == N.CONCAT:
            a = self.expr_int(c[0], cache)
            b = self.expr_int(c[1], cache)
            s = f"(({a} << {c[1].width}) | {b})"
        elif kind == N.NEG:
            s = f"((-{self.expr_int(c[0], cache)}) & {(1 << e.width) - 1})"
        elif kind == N.BVNOT:
            s = f"((~{self.expr_int(c[0], cache)}) & {(1 << e.width) - 1})"
        elif kind in (N.ADD, N.SUB, N.MUL, N.BVAND, N.BVOR, N.BVXOR):
            a = self.expr_int(c[0], cache)
            b = self.expr_int(c[1], cache)
            mask = (1 << e.width) - 1
            if kind == N.ADD:
                s = f"(({a} + {b}) & {mask})"
            elif kind == N.SUB:
                s = f"(({a} - {b}) & {mask})"
            elif kind == N.MUL:
                s = f"(({a} * {b}) & {mask})"
            elif kind == N.BVAND:
                s = f"({a} & {b})"
            elif kind == N.BVOR:
                s = f"({a} | {b})"
            else:
                s = f"({a} ^ {b})"
        elif kind in (N.UDIV, N.UREM):
            a = self.expr_int(c[0], cache)
            b = self.expr_int(c[1], cache)
            if kind == N.UDIV:
                s = f"({(1 << e.width) - 1} if {b} == 0 else {a} // {b})"
            else:
                s = f"({a} if {b} == 0 else {a} % {b})"
        elif kind in (N.SDIV, N.SREM, N.ASHR):
            a = self.expr_int(c[0], cache)
            b = self.expr_int(c[1], cache)
            fn = {N.SDIV: "_sdiv", N.SREM: "_srem", N.ASHR: "_ashr"}[kind]
            s = f"{fn}({a}, {b}, {e.width})"
        elif kind in (N.SHL, N.LSHR):
            w = e.width
            a = self.expr_int(c[0], cache)
            b = self.expr_int(c[1], cache)
            if kind == N.SHL:
                s = f"(0 if {b} >= {w} else ({a} << {b}) & {(1 << w) - 1})"
            else:
                s = f"(0 if {b} >= {w} else {a} >> {b})"
        else:
            raise _Unsupported(kind)
        loc = self.tmp()
        self.emit(f"{loc} = {s}")
        cache[e.eid] = loc
        return loc

    def value_expr(self, e) -> tuple[str, str | None]:
        """Compile a value position to ``(expr_loc, int_loc | None)``.

        CONST and VAR pass the Expr object through untouched — exactly what
        ``eval_expr``'s substitution does — so copies of *symbolic* values
        stay compiled.  Anything else is computed concretely and re-interned.
        """
        if e.kind == N.CONST:
            loc = self.const_ref(e)
            return loc, str(e.value)
        if e.kind == N.VAR:
            eloc = self.fetch_expr(e.name)
            return eloc, self.known_int.get(e.name)
        val = self.expr_int(e, {})
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
        cache: dict[int, str] = {}
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
        idx = self.expr_int(index_expr, cache)
        if ref.row is not None:
            # Instruction-level row wins over any binding row (flat_index).
            if ref.row.width != 32 or index_expr.width != 32:
                raise _Unsupported("row math needs width-32 operands")
            row = self.expr_int(ref.row, cache)
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
            val = self.expr_int(cond, {})
            self.emit(f"if not {val}: return {self.bail}")
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
    gen = _Codegen()
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
        # The evaluator's own signed semantics (repro.expr.sorts).
        "_sdiv": sdiv_int,
        "_srem": srem_int,
        "_ashr": ashr_int,
    }
    exec(compile(source, f"<compiled block {block.label}>", "exec"), namespace)
    return CompiledBlock(run=namespace["_run"], prefix_len=prefix_len, source=source)

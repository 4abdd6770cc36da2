"""Concrete interpreter for the CFG IR, run as generated Python code.

This is the ground truth the symbolic engine is differentially tested
against, and the replay harness for generated test cases (:func:`replay`):
running a test input through the interpreter must follow exactly the path
whose path condition produced it.

Compile contract.  On its first call, each function of a module becomes
one generated Python function per IR block, ``b<i>(I, env, arrays)``.  It
runs the block's instructions and its terminator on native ints and
returns the next block's label (a ``str``), the function's return value
(an ``int``), or raises ``_Halt``.  Its expressions come from the one
IR→int emitter, ``repro.lang.compile._Codegen.expr_int``; this module
supplies that emitter's VAR leaf, a read of the frame's ``env``.  The
reference semantics are ``repro.expr.evaluate``'s, node for node and in
its order, so a read of an unbound name raises its ``EvalError`` exactly
where the evaluator would.  The tests keep an evaluate-driven interpreter
as the oracle this one must equal (result, or error type, line and
partial coverage).  The loop around the blocks keeps, per block entered:
``steps`` against ``max_steps``, then ``coverage``.

Scalars are held normalized to their declared width: a write that may
not fit is masked (loads, and results of a different width), and a read
whose width differs from the declaration masks again.  That is exactly
what masking at every read would give.  Compiled functions are memoised
per module in a process-wide :class:`repro.memo.BoundedMemo` whose entry
pins its module; ``repro.memo.clear_memos()`` drops them.

The contract covers modules as the lowering emits them: a call passes one
argument per parameter, regions to array parameters and ints to scalar
ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from ..expr import EvalError
from ..expr.sorts import to_unsigned
from ..memo import BoundedMemo
from .cfg import (
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
from .compile import INT_HELPERS, _Codegen
from .types import Array2DType, ArrayType, ScalarType


class InterpError(Exception):
    """Runtime error in the interpreted program (bad index, step limit, ...)."""


class AssertionFailure(InterpError):
    def __init__(self, line: int):
        super().__init__(f"assertion failed at line {line}")
        self.line = line


class OutOfBounds(InterpError):
    def __init__(self, array: str, index: int, size: int, line: int):
        super().__init__(f"index {index} out of bounds for {array}[{size}] at line {line}")
        self.array = array
        self.index = index
        self.line = line


class _Halt(Exception):
    def __init__(self, code: int):
        self.code = code


@dataclass(slots=True)
class Region:
    """An array's cells: 1-D (``cols`` None) or row-major 2-D.  ``mask``
    truncates a stored value to the element width."""

    cells: list[int]  # or a _RowProxy: a row of a 2-D region, by reference
    cols: int | None
    mask: int


@dataclass
class RunResult:
    exit_code: int
    output: bytes
    steps: int
    coverage: set[tuple[str, str]] = field(default_factory=set)


class Replay(NamedTuple):
    """What one concrete run of a test case did."""

    outcome: str  # 'path' (ran to completion), 'assert', 'bounds' or 'error'
    line: int | None  # the stopping error's line, for 'assert' and 'bounds'
    coverage: set[tuple[str, str]]  # blocks entered, up to the stop
    exit_code: int | None  # for 'path'


class Interpreter:
    """Executes a module concretely.

    Args:
        module: the compiled program.
        max_steps: basic-block execution budget (guards infinite loops).
    """

    def __init__(self, module: Module, max_steps: int = 2_000_000):
        self.module = module
        self.max_steps = max_steps
        self.code = module_code(module)
        self.globals_store: dict[str, int] = dict(self.code.scalars)
        self.global_arrays: dict[str, Region] = {
            name: Region(list(cells), cols, mask)
            for name, cells, cols, mask in self.code.arrays
        }
        self.output = bytearray()
        self.steps = 0
        self.coverage: set[tuple[str, str]] = set()

    # -- program entry ------------------------------------------------------------

    def run_main(
        self, argv: list[bytes], arg_cols: int | None = None, stdin: bytes = b""
    ) -> RunResult:
        """Run ``main(argc, argv)`` with concrete arguments.

        ``argv`` includes the program name at index 0.  Strings are
        zero-terminated into a rows × cols region (cols defaults to the
        longest string + 1).  ``stdin`` fills the stdio prelude's
        ``__stdin`` buffer (truncated to its capacity).
        """
        if stdin:
            region = self.global_arrays.get("g$__stdin")
            if region is None:
                raise InterpError("program compiled without the stdio prelude")
            data = stdin[: len(region.cells)]
            region.cells[: len(data)] = data
            self.globals_store["g$__stdin_len"] = len(data)
        main = self.module.function("main")
        cols = arg_cols or (max((len(a) for a in argv), default=0) + 1)
        cells: list[int] = []
        for arg in argv:
            row = list(arg[: cols - 1]) + [0] * (cols - min(len(arg), cols - 1))
            cells.extend(row[:cols])
        argv_region = Region(cells, cols, 0xFF)
        args = tuple(
            argv_region if isinstance(ptype, Array2DType) else len(argv)
            for _, ptype in main.params
        )
        try:
            code = self.call("main", args)
        except _Halt as h:
            code = h.code
        return RunResult(code or 0, bytes(self.output), self.steps, self.coverage)

    # -- execution ---------------------------------------------------------------

    def call(self, name: str, args: tuple) -> int:
        """Run function ``name`` on ``args`` (an int per scalar parameter,
        a :class:`Region` per array parameter); returns its return value."""
        fn = self.code[name]
        env = _Env(self.globals_store)
        arrays: dict[str, Region] = {}
        for (pname, mask), arg in zip(fn.params, args):
            if mask is None:
                arrays[pname] = arg
            else:
                env[pname] = arg & mask
        for vname, cells, cols, mask in fn.local_arrays:
            arrays[vname] = Region(cells.copy(), cols, mask)
        blocks = fn.blocks
        cover = self.coverage.add
        max_steps = self.max_steps
        label = fn.entry
        while True:
            self.steps += 1
            if self.steps > max_steps:
                raise InterpError(f"step limit exceeded in {name}")
            key, run = blocks[label]
            cover(key)
            label = run(self, env, arrays)
            if label.__class__ is not str:
                return label


class _Env(dict):
    """A frame's locals, layered live over the interpreter's globals.

    Globals sit under their ``g$`` names, which no local can take, so a
    read that misses the locals is a global read — of the one shared
    dict, which keeps a callee's global writes visible to its callers.  A
    name bound in neither is unbound, as the evaluator reports it.
    """

    __slots__ = ("globals",)

    def __init__(self, globals_store: dict[str, int]):
        super().__init__()
        self.globals = globals_store

    def __missing__(self, name: str) -> int:
        try:
            return self.globals[name]
        except KeyError:
            raise EvalError(f"unbound variable {name!r}") from None


class _RowProxy:
    """A mutable window into a 2-D region's backing list (row-by-reference)."""

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


def _row_view(region: Region, row: int, name: str) -> Region:
    """Row ``row`` of a 2-D region, passed by reference."""
    cols = region.cols
    start = row * cols
    if not (0 <= start < len(region.cells)):
        raise OutOfBounds(name, row, len(region.cells) // cols, 0)
    return Region(_RowProxy(region.cells, start, cols), None, region.mask)


# -- compilation --------------------------------------------------------------------


def _array_cells(atype, init: object) -> tuple[list[int], int | None, int]:
    """A fresh array's ``(cells, cols, mask)``, its initializer applied."""
    mask = (1 << atype.element.width) - 1
    if isinstance(atype, Array2DType):
        return [0] * ((atype.rows or 0) * (atype.cols or 0)), atype.cols, mask
    cells = [0] * (atype.size or 0)
    if init is not None:
        raw = isinstance(init, (bytes, bytearray))
        for i, v in enumerate(list(init)[: len(cells)]):
            cells[i] = v & 0xFF if raw else v
    return cells, None, mask


def _is_array(t) -> bool:
    return isinstance(t, (ArrayType, Array2DType))


class _Compiled(NamedTuple):
    """One function's generated code and frame layout."""

    entry: str
    blocks: dict  # label -> ((function, label), block function)
    params: tuple  # (name, scalar mask | None for an array)
    local_arrays: tuple  # (name, cells, cols, mask)


class _BlockCodegen(_Codegen):
    """Emits a function's blocks; VAR leaves read the frame's ``env``."""

    def __init__(self, module: Module, fn: Function):
        super().__init__()
        self.module = module
        self.global_arrays = {n for n, (t, _) in module.globals.items() if _is_array(t)}
        self.local_arrays = {n for n, t in fn.var_types.items() if _is_array(t)}
        self.widths = {
            n: t.width
            for n, t in [*((n, t) for n, (t, _) in module.globals.items()), *fn.var_types.items()]
            if isinstance(t, ScalarType)
        }
        self.known: dict[str, str] = {}  # name -> local holding its current int

    def var_int(self, e) -> str:
        value = self.known.get(e.name) or f"env[{e.name!r}]"
        if not e.is_bv():
            return f"(1 if {value} else 0)"
        if self.widths.get(e.name) != e.width:
            return f"({value} & {(1 << e.width) - 1})"
        return value

    def bind(self, frame: str, name: str, value: str, bits: int | None) -> None:
        """``frame[name] = value``, an int known to fit ``bits`` (None: unknown)."""
        width = self.widths.get(name)
        if width is not None and (bits is None or bits > width):
            value = f"({value} & {(1 << width) - 1})"
        loc = self.tmp()
        self.emit(f"{frame}[{name!r}] = {loc} = {value}")
        self.known[name] = loc

    @staticmethod
    def raising(exc: str, message: str) -> str:
        return f"raise {exc}({message!r})"

    def region(self, name: str, where: str) -> str:
        """A local holding the region array ``name`` is bound to."""
        loc = self.tmp()
        if name in self.global_arrays:
            self.emit(f"{loc} = I.global_arrays[{name!r}]")
        elif name in self.local_arrays:
            self.emit(f"{loc} = arrays[{name!r}]")
        else:
            self.emit(self.raising("_InterpError", f"unknown array {name!r}{where}"))
        return loc

    def element(self, ref: MemRef, index, line: int) -> tuple[str, str, str]:
        """Locate ``ref[index]``, raising as the reference does; returns the
        (region, cells, flat index) locals."""
        i = self.tmp()
        self.emit(f"{i} = {self.expr_int(index)}")
        region = self.region(ref.array, f" at line {line}")
        flat = i
        if ref.row is not None:
            cols, flat = self.tmp(), self.tmp()
            self.emit(f"{cols} = {region}.cols")
            not_2d = self.raising("_InterpError", f"{ref.array!r} is not 2-D at line {line}")
            self.emit(f"if {cols} is None: {not_2d}")
            self.emit(f"{flat} = {self.expr_int(ref.row)} * {cols} + {i}")
            self.emit(f"if {i} >= {cols}: raise _OutOfBounds({ref.array!r}, {i}, {cols}, {line})")
        cells = self.tmp()
        self.emit(f"{cells} = {region}.cells")
        self.emit(
            f"if {flat} >= len({cells}): "
            f"raise _OutOfBounds({ref.array!r}, {flat}, len({cells}), {line})"
        )
        return region, cells, flat

    def argument(self, arg) -> str:
        """A local holding one call argument: a region or an int."""
        if not isinstance(arg, MemRef):
            loc = self.tmp()
            self.emit(f"{loc} = {self.expr_int(arg)}")
            return loc
        region = self.region(arg.array, "")
        if arg.row is None:
            return region
        not_2d = self.raising("_InterpError", f"{arg.array!r} is not 2-D")
        self.emit(f"if {region}.cols is None: {not_2d}")
        view = self.tmp()
        self.emit(f"{view} = _row_view({region}, {self.expr_int(arg.row)}, {arg.array!r})")
        return view

    def instr(self, instr) -> None:
        if isinstance(instr, IAssign):
            e = instr.expr
            frame = "env.globals" if instr.dst.startswith("g$") else "env"
            self.bind(frame, instr.dst, self.expr_int(e), e.width if e.is_bv() else 1)
        elif isinstance(instr, ILoad):
            _, cells, flat = self.element(instr.ref, instr.index, instr.line)
            self.bind("env", instr.dst, f"{cells}[{flat}]", None)
        elif isinstance(instr, IStore):
            region, cells, flat = self.element(instr.ref, instr.index, instr.line)
            self.emit(f"{cells}[{flat}] = {self.expr_int(instr.value)} & {region}.mask")
        elif isinstance(instr, ICall):
            callee = self.module.functions.get(instr.func)
            if callee is None:
                self.emit(f"I.module.function({instr.func!r})")  # raises its KeyError
                return
            args = [self.argument(a) for a, _ in zip(instr.args, callee.params)]
            result = self.tmp()
            self.emit(f"{result} = I.call({instr.func!r}, ({''.join(a + ', ' for a in args)}))")
            # The callee may have written any global.
            self.known = {n: v for n, v in self.known.items() if not n.startswith("g$")}
            if instr.dst is not None:
                width = callee.return_type.width
                self.bind("env", instr.dst, f"({result} & {(1 << width) - 1})", width)
        elif isinstance(instr, IPutc):
            self.emit(f"I.output.append({self.expr_int(instr.value)} & 255)")
        elif isinstance(instr, IAssert):
            self.emit(f"if not {self.expr_int(instr.cond)}: raise _AssertionFailure({instr.line})")
        else:
            self.emit(self.raising("_InterpError", f"unknown instruction {instr!r}"))

    def block(self, name: str, block) -> list[str]:
        """Source of one block's function."""
        self.lines = []
        self.known = {}
        for instr in block.instrs:
            self.instr(instr)
        term = block.term
        if isinstance(term, TJmp):
            self.emit(f"return {term.label!r}")
        elif isinstance(term, TBr):
            cond = self.expr_int(term.cond)
            self.emit(f"return {term.then_label!r} if {cond} else {term.else_label!r}")
        elif isinstance(term, TRet):
            self.emit(f"return {self.expr_int(term.value) if term.value is not None else 0}")
        elif isinstance(term, THalt):
            self.emit(f"raise _Halt({self.expr_int(term.code) if term.code is not None else 0})")
        else:
            self.emit(self.raising("_InterpError", f"block {block.label} has no terminator"))
        return [f"def {name}(I, env, arrays):", *self.lines]


_NAMESPACE = {
    **INT_HELPERS,
    "_InterpError": InterpError,
    "_OutOfBounds": OutOfBounds,
    "_AssertionFailure": AssertionFailure,
    "_Halt": _Halt,
    "_row_view": _row_view,
}


def _compile_function(module: Module, fn: Function) -> _Compiled:
    gen = _BlockCodegen(module, fn)
    source: list[str] = []
    for i, block in enumerate(fn.blocks.values()):
        source += gen.block(f"b{i}", block)
    namespace = dict(_NAMESPACE)
    exec(compile("\n".join(source), f"<interp {fn.name}>", "exec"), namespace)
    blocks = {
        label: ((fn.name, label), namespace[f"b{i}"]) for i, label in enumerate(fn.blocks)
    }
    params = tuple(
        (name, None if _is_array(t) else (1 << t.width) - 1) for name, t in fn.params
    )
    inits = getattr(fn, "array_inits", {})
    param_names = {name for name, _ in fn.params}
    local_arrays = tuple(
        (name, *_array_cells(t, inits.get(name)))
        for name, t in fn.var_types.items()
        if _is_array(t) and name not in param_names
    )
    return _Compiled(fn.entry, blocks, params, local_arrays)


class _ModuleCode(dict):
    """A module's compiled functions by name, each compiled on first use,
    and its globals' initial values."""

    def __init__(self, module: Module):
        super().__init__()
        self.module = module
        self.scalars: dict[str, int] = {}
        self.arrays: list[tuple] = []
        for name, (gtype, init) in module.globals.items():
            if _is_array(gtype):
                self.arrays.append((name, *_array_cells(gtype, init)))
            else:
                self.scalars[name] = to_unsigned(int(init or 0), gtype.width)

    def __missing__(self, name: str) -> _Compiled:
        compiled = self[name] = _compile_function(self.module, self.module.function(name))
        return compiled


# id(module) -> (module, its _ModuleCode).  An entry holds its module, so the
# id cannot be reused while it is keyed.
_MODULE_CODE = BoundedMemo(64, process_wide=True)


def module_code(module: Module) -> _ModuleCode:
    """The module's compiled code (memoised; functions compile lazily)."""
    entry = _MODULE_CODE.get(id(module))
    if entry is None:
        entry = (module, _ModuleCode(module))
        _MODULE_CODE.put(id(module), entry)
    return entry[1]


def run_concrete(
    module: Module, argv: list[bytes], max_steps: int = 2_000_000, stdin: bytes = b""
) -> RunResult:
    """Convenience one-shot concrete execution of ``main``."""
    return Interpreter(module, max_steps).run_main(argv, stdin=stdin)


def replay(module: Module, case, max_steps: int = 2_000_000) -> Replay:
    """Run a generated test case (``argv``, ``stdin``) concretely.

    The replay law's one function: a ``path`` test must come back
    ``'path'``; an ``assert``/``bounds`` test with that outcome at its
    recorded line.  Errors outside the program's semantics (an unbound
    name, a missing function) propagate.
    """
    interp = Interpreter(module, max_steps)
    try:
        result = interp.run_main(list(case.argv), stdin=case.stdin)
    except AssertionFailure as exc:
        return Replay("assert", exc.line, interp.coverage, None)
    except OutOfBounds as exc:
        return Replay("bounds", exc.line, interp.coverage, None)
    except InterpError:
        return Replay("error", None, interp.coverage, None)
    return Replay("path", None, result.coverage, result.exit_code)

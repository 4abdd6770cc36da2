"""Concrete reference interpreter for the CFG IR.

This is the ground truth the symbolic engine is differentially tested
against, and the replay harness for generated test cases: running a test
input through the interpreter must follow exactly the path whose path
condition produced it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..expr.evaluate import evaluate
from ..expr.sorts import to_unsigned
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
from .types import Array2DType, ArrayType


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


@dataclass
class Region:
    cells: list[int]
    cols: int | None  # geometry for 2-D regions
    element_width: int


@dataclass
class RunResult:
    exit_code: int
    output: bytes
    steps: int
    coverage: set[tuple[str, str]] = field(default_factory=set)


class Interpreter:
    """Executes a module concretely.

    Args:
        module: the compiled program.
        max_steps: basic-block execution budget (guards infinite loops).
    """

    def __init__(self, module: Module, max_steps: int = 2_000_000):
        self.module = module
        self.max_steps = max_steps
        self.regions: dict[int, Region] = {}
        self.region_counter = 0
        self.globals_store: dict[str, int] = {}
        self.global_arrays: dict[str, int] = {}
        self.output = bytearray()
        self.steps = 0
        self.coverage: set[tuple[str, str]] = set()
        self._init_globals()

    def _alloc(self, cells: list[int], cols: int | None, width: int) -> int:
        self.region_counter += 1
        self.regions[self.region_counter] = Region(cells, cols, width)
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
        values = list(init) if not isinstance(init, (bytes, bytearray)) else list(init)
        for i, v in enumerate(values[: len(cells)]):
            cells[i] = v & 0xFF if isinstance(init, (bytes, bytearray)) else v

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
        except _Halt as h:
            code = h.code
        return RunResult(code or 0, bytes(self.output), self.steps, self.coverage)

    # -- execution ---------------------------------------------------------------

    def _call(self, fn: Function, args: list) -> int:
        env = _Env(self.globals_store)
        arrays: dict[str, int] = dict(self.global_arrays)
        for (pname, ptype), arg in zip(fn.params, args):
            kind, value = arg
            if kind == "scalar":
                env[pname] = to_unsigned(value, ptype.width)
            else:
                arrays[pname] = value
        # Allocate local arrays (parameters already bound by reference).
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
                raise _Halt(evaluate(term.code, env) if term.code is not None else 0)
            else:
                raise InterpError(f"block {label} has no terminator")

    # -- memory ----------------------------------------------------------------------

    def _ref_region(self, ref: MemRef, arrays: dict[str, int], env: dict[str, int]) -> int:
        region_id = arrays.get(ref.array)
        if region_id is None:
            raise InterpError(f"unknown array {ref.array!r}")
        if ref.row is None:
            return region_id
        # A row view materializes as a fresh alias region? No: rows are only
        # passed by reference, so build a slice-backed region sharing cells.
        region = self.regions[region_id]
        if region.cols is None:
            raise InterpError(f"{ref.array!r} is not 2-D")
        row = evaluate(ref.row, env)
        start = row * region.cols
        if not (0 <= start < len(region.cells)):
            raise OutOfBounds(ref.array, row, len(region.cells) // region.cols, 0)
        view = region.cells[start : start + region.cols]
        # Copy-in/copy-out would break aliasing; instead allocate a view
        # region that shares the same list object via slice assignment on
        # write.  Simpler and correct for the corpus: rows passed by
        # reference are only read OR written through one name at a time, so
        # we pass a shared mutable slice proxy.
        proxy = _RowProxy(region.cells, start, region.cols)
        return self._alloc(proxy, None, region.element_width)  # type: ignore[arg-type]

    def _flat_index(self, ref: MemRef, index: int, arrays, env, line: int) -> tuple[Region, int]:
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


class _Env(dict):
    """A frame's locals, layered live over the interpreter's globals.

    Globals sit under their ``g$`` names, which no local can take, so a
    read that misses the locals is a global read — of the one shared
    dict, which keeps a callee's global writes visible to its callers.
    """

    __slots__ = ("globals",)

    def __init__(self, globals_store: dict[str, int]):
        super().__init__()
        self.globals = globals_store

    def __missing__(self, name: str) -> int:
        return self.globals[name]


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


def run_concrete(
    module: Module, argv: list[bytes], max_steps: int = 2_000_000, stdin: bytes = b""
) -> RunResult:
    """Convenience one-shot concrete execution of ``main``."""
    return Interpreter(module, max_steps).run_main(argv, stdin=stdin)

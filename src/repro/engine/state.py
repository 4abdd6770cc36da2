"""Symbolic execution states.

A state is the paper's ``(l, pc, s)`` triple, generalized to a call stack:
every frame carries its own symbolic store; memory lives in *regions* keyed
by ``(depth, function, variable)`` so that two states with identical stack
shapes address identical region keys — which is what makes merging possible
without renaming.  Regions hold immutable cell tuples; writes replace the
region, so cloning a state is a few shallow dict copies.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import codec
from ..expr import ops
from ..expr.nodes import Expr
from ..lang.compile import BUILDERS, compile_builder

RegionKey = tuple[int, str, str]  # (frame depth, function, array name)

GLOBAL_DEPTH = 0


@dataclass(frozen=True)
class Region:
    """An immutable array region: flat cells + 2-D geometry if applicable."""

    cells: tuple[Expr, ...]
    cols: int | None
    width: int

    @property
    def size(self) -> int:
        return len(self.cells)

    def with_cell(self, index: int, value: Expr) -> "Region":
        cells = list(self.cells)
        cells[index] = value
        return Region(tuple(cells), self.cols, self.width)


@dataclass(frozen=True)
class ArrayBinding:
    """What a frame's array name denotes: a region, optionally one row of it."""

    key: RegionKey
    row: Expr | None = None  # row index expression for 2-D row views

    def binding_fingerprint(self) -> tuple:
        return (self.key, self.row.eid if self.row is not None else None)


class Frame:
    """One activation record."""

    __slots__ = ("func", "block", "idx", "store", "arrays", "ret_dst", "depth", "_names")

    def __init__(
        self,
        func: str,
        block: str,
        idx: int,
        store: dict[str, Expr],
        arrays: dict[str, ArrayBinding],
        ret_dst: str | None,
        depth: int,
    ):
        self.func = func
        self.block = block
        self.idx = idx
        self.store = store
        self.arrays = arrays
        self.ret_dst = ret_dst
        self.depth = depth
        # (frame_names(self), its hash, name count): names are only ever
        # added, so the entry holds while the count does.
        self._names: tuple | None = None

    def clone(self) -> "Frame":
        other = Frame(
            self.func,
            self.block,
            self.idx,
            dict(self.store),
            dict(self.arrays),
            self.ret_dst,
            self.depth,
        )
        other._names = self._names
        return other

    def loc(self) -> tuple[str, str, int]:
        return (self.func, self.block, self.idx)

    def names(self) -> tuple:
        """``(frame_names(self), its hash, name count)``, recomputed only
        after a first assignment or a first binding in this frame."""
        cached = self._names
        count = len(self.store) + len(self.arrays)
        if cached is None or cached[2] != count:
            names = frame_names(self)
            cached = self._names = (names, hash(names), count)
        return cached


def frame_names(frame: Frame) -> tuple:
    """A frame's sorted store names and sorted array bindings."""
    return (
        tuple(sorted(frame.store)),
        tuple(sorted([(n, b.binding_fingerprint()) for n, b in frame.arrays.items()])),
    )


def region_geometry(regions: dict[RegionKey, Region]) -> tuple:
    """Every region's key, cell count, columns and width, sorted by key."""
    return tuple(sorted([(k, len(r.cells), r.cols, r.width) for k, r in regions.items()]))


class SymState:
    """A symbolic execution state (worklist element of Algorithm 1).

    Two rules about how a state grows let its structural shape
    (:meth:`shape_fingerprint`) stay cached instead of being re-sorted on
    every move: a frame's store and array names are only ever *added*
    (never deleted, and a name's binding never replaced), and a region's
    geometry (cell count, columns, width) never changes under its key —
    writes and merges replace cells only, and keys come and go only with
    the frames that own them, at a call or a return.
    """

    __slots__ = (
        "sid",
        "frames",
        "globals_store",
        "regions",
        "pc",
        "output",
        "multiplicity",
        "steps",
        "history",
        "exact_pcs",
        "halted",
        "exit_code",
        "error",
        "generation",
        "_geometry",
    )

    def __init__(self, sid: int):
        self.sid = sid
        self.frames: list[Frame] = []
        self.globals_store: dict[str, Expr] = {}
        self.regions: dict[RegionKey, Region] = {}
        self.pc: tuple[Expr, ...] = ()
        self.output: tuple[Expr, ...] = ()
        self.multiplicity: int = 1
        self.steps: int = 0
        # DSM predecessor trace: most recent (loc_key, similarity_hash) pairs.
        self.history: tuple[tuple[tuple, int], ...] = ()
        # Exact single-path constituents (Fig. 3 instrumentation), or None.
        self.exact_pcs: tuple[tuple[Expr, ...], ...] | None = None
        self.halted = False
        self.exit_code: Expr | None = None
        self.error: str | None = None
        self.generation = 0
        # (region_geometry(regions), its hash, region count, the frames'
        # (depth, func)): region keys change only with the frames that own
        # them, so the entry holds while the count and the stack do.
        self._geometry: tuple | None = None

    # -- structure -----------------------------------------------------------

    @property
    def top(self) -> Frame:
        return self.frames[-1]

    def loc_key(self) -> tuple:
        """Full-stack location identity; merge candidates must agree on it."""
        return tuple(
            (f.func, f.block, f.idx, f.ret_dst) for f in self.frames
        )

    def shape_fingerprint(self) -> tuple:
        """Location + store names + array bindings + region geometry.

        Two states with equal fingerprints are structurally mergeable (the
        value-level similarity check is separate).
        """
        return self._shape(0)

    def shape_hash(self) -> int:
        """``hash`` of the shape, built from the cached parts' hashes."""
        return hash(self._shape(1))

    def _shape(self, part: int) -> tuple:
        # part 0: the cached values, part 1: their hashes.  DSM asks for
        # every move of every state, so only a call, a return or a first
        # name re-sorts anything.
        frames = self.frames
        geometry = self._geometry
        stack = tuple([(f.depth, f.func) for f in frames])
        if geometry is None or geometry[2] != len(self.regions) or geometry[3] != stack:
            value = region_geometry(self.regions)
            geometry = self._geometry = (value, hash(value), len(self.regions), stack)
        return (
            tuple([(f.func, f.block, f.idx, f.ret_dst, f.names()[part]) for f in frames]),
            geometry[part],
            len(self.output),
        )

    def clone(self, new_sid: int) -> "SymState":
        other = SymState(new_sid)
        other.frames = [f.clone() for f in self.frames]
        other.globals_store = dict(self.globals_store)
        other.regions = dict(self.regions)
        other.pc = self.pc
        other.output = self.output
        other.multiplicity = self.multiplicity
        other.steps = self.steps
        other.history = self.history
        other.exact_pcs = self.exact_pcs
        other.halted = self.halted
        other.exit_code = self.exit_code
        other.error = self.error
        other.generation = self.generation
        other._geometry = self._geometry
        return other

    # -- variable access -------------------------------------------------------

    def lookup(self, name: str) -> Expr:
        if name.startswith("g$"):
            value = self.globals_store.get(name)
        else:
            value = self.top.store.get(name)
        if value is None:
            raise KeyError(f"unbound variable {name!r} in state {self.sid}")
        return value

    def assign(self, name: str, value: Expr) -> None:
        if name.startswith("g$"):
            self.globals_store[name] = value
        else:
            self.top.store[name] = value

    def eval_expr(self, expr: Expr) -> Expr:
        """Evaluate an IR expression to a symbolic value in the current frame.

        Runs ``expr``'s builder (``repro.lang.compile.compile_builder``,
        compiled on the expression's first evaluation): it reads the
        store directly and calls the smart constructors ``substitute``
        would, so the value is the same interned object substituting the
        bindings gives, and an unbound name raises the same ``KeyError``.
        """
        if not expr.variables:
            return expr
        builder = BUILDERS.get(expr.eid)
        if builder is None:
            builder = compile_builder(expr)
        return builder(self)

    # -- path condition ----------------------------------------------------------

    def add_constraint(self, cond: Expr) -> None:
        if not cond.is_true():
            self.pc = self.pc + (cond,)

    def pc_expr(self) -> Expr:
        return ops.and_all(self.pc)

    # -- memory -----------------------------------------------------------------

    def region_of(self, binding: ArrayBinding) -> Region:
        region = self.regions.get(binding.key)
        if region is None:
            raise KeyError(f"dangling region {binding.key} in state {self.sid}")
        return region

    def resolve_binding(self, array_name: str) -> ArrayBinding:
        if array_name.startswith("g$"):
            return ArrayBinding((GLOBAL_DEPTH, "global", array_name))
        binding = self.top.arrays.get(array_name)
        if binding is None:
            raise KeyError(f"unknown array {array_name!r} in {self.top.func}")
        return binding

    def flat_index(self, binding: ArrayBinding, row: Expr | None, index: Expr) -> Expr:
        """Flat cell index of ``[row][index]`` through a binding.

        The binding's own row view composes with the instruction-level row
        (bindings created from ``argv[i]`` have a row; a further ``[j]``
        indexes within that row).
        """
        region = self.region_of(binding)
        effective_row = row if row is not None else binding.row
        if effective_row is None:
            return index
        if region.cols is None:
            raise KeyError(f"region {binding.key} is not 2-D")
        cols = ops.bv(region.cols, 32)
        return ops.add(ops.mul(effective_row, cols), index)

    def read_cells(self, binding: ArrayBinding, flat: Expr) -> Expr:
        """Read a cell; symbolic indices produce an ite chain over all cells."""
        region = self.region_of(binding)
        if flat.is_const():
            i = flat.value
            if 0 <= i < region.size:
                return region.cells[i]
            raise IndexError(f"constant index {i} out of bounds for {binding.key}")
        value = region.cells[-1]
        for i in range(region.size - 2, -1, -1):
            value = ops.ite(ops.eq(flat, ops.bv(i, flat.width)), region.cells[i], value)
        return value

    def write_cells(self, binding: ArrayBinding, flat: Expr, value: Expr) -> None:
        region = self.region_of(binding)
        if flat.is_const():
            i = flat.value
            if not (0 <= i < region.size):
                raise IndexError(f"constant index {i} out of bounds for {binding.key}")
            self.regions[binding.key] = region.with_cell(i, value)
            return
        cells = [
            ops.ite(ops.eq(flat, ops.bv(i, flat.width)), value, cell)
            for i, cell in enumerate(region.cells)
        ]
        self.regions[binding.key] = Region(tuple(cells), region.cols, region.width)

    def gc_frame_regions(self, depth: int, func: str) -> None:
        """Drop regions owned by a popped frame."""
        dead = [k for k in self.regions if k[0] == depth and k[1] == func]
        for k in dead:
            del self.regions[k]

    # -- snapshots ------------------------------------------------------------------
    #
    # A snapshot is a restartable *path prefix*: everything another process
    # needs to resume exploring this state's subtree — frames, stores,
    # regions, path condition, output — as one :mod:`repro.codec` payload of
    # the shape ``SNAPSHOT``.  Process-local fields are deliberately dropped:
    # ``sid`` is reassigned by the restoring engine and the DSM ``history``
    # is cleared, because its similarity hashes embed interned-expression
    # ids that mean nothing in another process (merging restarts cleanly
    # within the new partition).

    def snapshot(self) -> bytes:
        """Serialize into bytes that :meth:`from_snapshot` can resume from."""
        return codec.dumps((
            [
                (f.func, f.block, f.idx, f.ret_dst, f.depth, f.store,
                 {name: (b.key, b.row) for name, b in f.arrays.items()})
                for f in self.frames
            ],
            self.globals_store,
            [(key, r.cols, r.width, r.cells) for key, r in self.regions.items()],
            self.pc,
            self.output,
            self.exact_pcs,
            self.multiplicity,
            self.steps,
            self.halted,
            self.exit_code,
            self.error,
            self.generation,
        ))

    @classmethod
    def from_snapshot(cls, data: bytes, sid: int) -> "SymState":
        """Rebuild a state from :meth:`snapshot` bytes under a fresh sid;
        :class:`repro.codec.DecodeError` if they are not one."""
        (frames, globals_store, regions, pc, output, exact_pcs, multiplicity,
         steps, halted, exit_code, error, generation) = codec.loads(data, SNAPSHOT)
        state = cls(sid)
        state.frames = [
            Frame(func, block, idx, store,
                  {name: ArrayBinding(key, row) for name, (key, row) in arrays.items()},
                  ret_dst, depth)
            for func, block, idx, ret_dst, depth, store, arrays in frames
        ]
        state.globals_store = globals_store
        state.regions = {
            key: Region(cells, cols, width) for key, cols, width, cells in regions
        }
        state.pc = pc
        state.output = output
        state.exact_pcs = exact_pcs
        state.multiplicity = multiplicity
        state.steps = steps
        state.halted = halted
        state.exit_code = exit_code
        state.error = error
        state.generation = generation
        return state

    def __repr__(self) -> str:
        loc = ",".join(f"{f.func}:{f.block}:{f.idx}" for f in self.frames) or "<done>"
        return f"SymState(#{self.sid} at {loc}, |pc|={len(self.pc)}, m={self.multiplicity})"


# The payload of a snapshot: frames (function, block, instruction index,
# return destination, depth, scalar store, array bindings as (region key,
# row)), the global store, regions (key, columns, element width, cells),
# pc, output, exact pcs, multiplicity, steps, halted, exit code, error,
# generation.
SNAPSHOT = tuple[
    list[tuple[str, str, int, str | None, int, dict[str, Expr],
               dict[str, tuple[RegionKey, Expr | None]]]],
    dict[str, Expr],
    list[tuple[RegionKey, int | None, int, tuple[Expr, ...]]],
    tuple[Expr, ...],
    tuple[Expr, ...],
    tuple[tuple[Expr, ...], ...] | None,
    int,
    int,
    bool,
    Expr | None,
    str | None,
    int,
]

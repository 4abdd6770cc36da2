"""Hash-consed immutable expression nodes.

Every expression is interned: constructing the same (kind, sort, children,
payload) twice yields the *same* Python object, so structural equality is
identity and hashing is O(1).  All construction goes through the smart
constructors in :mod:`repro.expr.ops`, which fold constants and apply local
simplifications before interning.
"""

from __future__ import annotations

import itertools
import zlib
from typing import Iterator

from .sorts import BOOL, BVSort, Sort

# Expression kinds.  Grouped for documentation; values are the tags stored on
# nodes and switched on throughout the solver and engine.
CONST = "const"
VAR = "var"

# Bitvector arithmetic (operands and result share a width).
ADD = "add"
SUB = "sub"
MUL = "mul"
UDIV = "udiv"
UREM = "urem"
SDIV = "sdiv"
SREM = "srem"
NEG = "neg"

# Bitvector bitwise / shifts.
BVAND = "bvand"
BVOR = "bvor"
BVXOR = "bvxor"
BVNOT = "bvnot"
SHL = "shl"
LSHR = "lshr"
ASHR = "ashr"

# Width adjustment.
ZEXT = "zext"
SEXT = "sext"
EXTRACT = "extract"
CONCAT = "concat"

# Predicates over bitvectors (result sort Bool).
EQ = "eq"
ULT = "ult"
ULE = "ule"
SLT = "slt"
SLE = "sle"

# Boolean connectives.
NOT = "not"
AND = "and"
OR = "or"
XOR = "xor"
IMPLIES = "implies"

# Both sorts.
ITE = "ite"

_ARITH_KINDS = frozenset({ADD, SUB, MUL, UDIV, UREM, SDIV, SREM, NEG})
_BITWISE_KINDS = frozenset({BVAND, BVOR, BVXOR, BVNOT, SHL, LSHR, ASHR})
_CMP_KINDS = frozenset({EQ, ULT, ULE, SLT, SLE})
_BOOL_KINDS = frozenset({NOT, AND, OR, XOR, IMPLIES})

_intern_table: dict[tuple, "Expr"] = {}
# eids in interning order.  ``next`` on the counter and ``setdefault`` on the
# table are single C calls, so a frame decoded on a transport reader thread
# interns safely beside the thread that explores.
_eids = itertools.count()

# Deterministic structural keys (``Expr.skey``): a 64-bit FNV-style hash of
# kind/sort/payload/children computed bottom-up at interning time.  Unlike
# ``eid`` (which encodes interning *history*) and the built-in ``hash``
# (salted per process), skey depends only on the expression's structure and
# names — the smart constructors orient commutative operands by it, so the
# DAGs a run builds are identical across processes no matter what else was
# interned first (e.g. warm-start seeding decoding a store's UNSAT cores).
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_M64 = (1 << 64) - 1
_label_codes: dict[str, int] = {}


def _label_code(label: str) -> int:
    code = _label_codes.get(label)
    if code is None:
        code = zlib.crc32(label.encode())
        _label_codes[label] = code
    return code


def _structural_key(
    kind: str,
    sort: Sort,
    children: tuple["Expr", ...],
    value: int | None,
    name: str | None,
    params: tuple[int, ...],
    # Hot path: bind module globals as defaults so the interning loop does
    # no global lookups (measured via benchmarks/test_micro_engine.py).
    _prime: int = _FNV_PRIME,
    _m64: int = _M64,
) -> int:
    h = _FNV_OFFSET
    h = ((h ^ _label_code(kind)) * _prime) & _m64
    h = ((h ^ getattr(sort, "width", 0)) * _prime) & _m64
    if value is not None:
        h = ((h ^ (value + 1)) * _prime) & _m64
    if name is not None:
        h = ((h ^ _label_code(name)) * _prime) & _m64
    for p in params:
        h = ((h ^ (p + 2)) * _prime) & _m64
    for child in children:  # order-sensitive: non-commutative kinds differ
        h = ((h ^ child.skey) * _prime) & _m64
    return h


def interned_count() -> int:
    """Number of distinct live expression nodes (diagnostics)."""
    return len(_intern_table)


class Expr:
    """An immutable, interned expression node.

    Attributes:
        kind: one of the kind tags above.
        sort: the expression's sort (:class:`BoolSort` or :class:`BVSort`).
        children: operand tuple.
        value: integer payload for ``CONST`` (unsigned, normalized to width;
            0/1 for booleans).
        name: variable name for ``VAR``.
        params: extra integer parameters, e.g. ``(hi, lo)`` for ``EXTRACT``.
    """

    __slots__ = (
        "kind",
        "sort",
        "children",
        "value",
        "name",
        "params",
        "eid",
        "skey",
        "_hash",
        "_vars",
        "_depth",
    )

    def __init__(self) -> None:
        raise TypeError("use repro.expr.ops smart constructors, not Expr()")

    # -- construction (module-internal) ------------------------------------

    @staticmethod
    def _make(
        kind: str,
        sort: Sort,
        children: tuple["Expr", ...] = (),
        value: int | None = None,
        name: str | None = None,
        params: tuple[int, ...] = (),
    ) -> "Expr":
        key = (kind, sort, children, value, name, params)
        node = _intern_table.get(key)
        if node is not None:
            return node
        node = object.__new__(Expr)
        node.kind = kind
        node.sort = sort
        node.children = children
        node.value = value
        node.name = name
        node.params = params
        node.eid = next(_eids)
        node.skey = _structural_key(kind, sort, children, value, name, params)
        # Equality is identity, so any per-object constant is a valid hash;
        # reusing the structural key skips building a second key tuple on
        # every intern miss (interning hot path).
        node._hash = node.skey
        node._vars = None
        node._depth = None
        return _intern_table.setdefault(key, node)

    # -- identity-based equality (valid because nodes are interned) --------

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return self is other

    def __ne__(self, other: object) -> bool:
        return self is not other

    # -- accessors ----------------------------------------------------------

    @property
    def width(self) -> int:
        """Bitvector width; raises for boolean expressions."""
        if isinstance(self.sort, BVSort):
            return self.sort.width
        raise TypeError(f"expression {self!r} is boolean, has no width")

    def is_const(self) -> bool:
        return self.kind == CONST

    def is_true(self) -> bool:
        return self.kind == CONST and self.sort is BOOL and self.value == 1

    def is_false(self) -> bool:
        return self.kind == CONST and self.sort is BOOL and self.value == 0

    def is_bool(self) -> bool:
        return self.sort is BOOL

    def is_bv(self) -> bool:
        return isinstance(self.sort, BVSort)

    @property
    def variables(self) -> frozenset[str]:
        """Names of all variables occurring in this expression (cached).

        The common shapes — a constant operand, or one operand's variables
        containing the other's — reuse a child's frozenset instead of
        allocating a fresh one, so most of a run's expressions share a
        handful of variable sets.
        """
        cached = self._vars
        if cached is None:
            if self.kind == VAR:
                cached = frozenset((self.name,))
            elif not self.children:
                cached = frozenset()
            else:
                cached = self.children[0].variables
                for child in self.children[1:]:
                    cv = child.variables
                    if cv is cached or cv <= cached:
                        continue
                    if cached <= cv:
                        cached = cv
                    else:
                        cached = cached | cv
            self._vars = cached
        return cached

    @property
    def depth(self) -> int:
        """Longest path from this node to a leaf (cached)."""
        cached = self._depth
        if cached is None:
            cached = 1 + max((c.depth for c in self.children), default=0)
            self._depth = cached
        return cached

    def is_symbolic(self) -> bool:
        """True iff the expression depends on at least one variable."""
        return bool(self.variables)

    def iter_nodes(self) -> Iterator["Expr"]:
        """Iterate over the DAG's distinct nodes (preorder, deduplicated)."""
        seen: set[int] = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if node.eid in seen:
                continue
            seen.add(node.eid)
            yield node
            stack.extend(node.children)

    def node_count(self) -> int:
        """Number of distinct DAG nodes."""
        return sum(1 for _ in self.iter_nodes())

    def ite_count(self) -> int:
        """Number of distinct ITE nodes in the DAG (QCE cost diagnostics)."""
        return sum(1 for n in self.iter_nodes() if n.kind == ITE)

    # -- printing ------------------------------------------------------------

    def __repr__(self) -> str:
        from .printer import to_str

        return to_str(self, max_depth=6)

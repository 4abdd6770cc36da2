"""Sorts (types) for symbolic expressions.

The expression language is a quantifier-free bitvector + boolean logic,
mirroring the fragment KLEE/STP use.  Arrays are deliberately absent: the
engine's memory model expands symbolic-index accesses into ite-chains over
fixed-size arrays, which keeps the solver scalar (see ``repro.engine.mem``).
"""

from __future__ import annotations


class Sort:
    """Base class for expression sorts."""

    __slots__ = ()

    def is_bool(self) -> bool:
        return isinstance(self, BoolSort)

    def is_bv(self) -> bool:
        return isinstance(self, BVSort)


class BoolSort(Sort):
    """The boolean sort."""

    __slots__ = ()
    _instance: "BoolSort | None" = None

    def __new__(cls) -> "BoolSort":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Bool"


class BVSort(Sort):
    """Fixed-width bitvector sort."""

    __slots__ = ("width",)
    _cache: dict[int, "BVSort"] = {}

    def __new__(cls, width: int) -> "BVSort":
        cached = cls._cache.get(width)
        if cached is not None:
            return cached
        if width <= 0:
            raise ValueError(f"bitvector width must be positive, got {width}")
        inst = super().__new__(cls)
        inst.width = width
        cls._cache[width] = inst
        return inst

    def __repr__(self) -> str:
        return f"BV{self.width}"

    @property
    def mask(self) -> int:
        """All-ones value for this width."""
        return (1 << self.width) - 1

    @property
    def sign_bit(self) -> int:
        """Value of the most significant bit."""
        return 1 << (self.width - 1)


BOOL = BoolSort()
BV8 = BVSort(8)
BV16 = BVSort(16)
BV32 = BVSort(32)
BV64 = BVSort(64)


def to_signed(value: int, width: int) -> int:
    """Interpret an unsigned ``width``-bit value as two's complement."""
    sign = 1 << (width - 1)
    return value - (1 << width) if value & sign else value


def to_unsigned(value: int, width: int) -> int:
    """Normalize a Python int to an unsigned ``width``-bit value."""
    return value & ((1 << width) - 1)


# Signed division, remainder and arithmetic shift on unsigned ``width``-bit
# values — the one definition behind the evaluator, the constant folds in
# :mod:`repro.expr.ops` and the block compiler's generated code (the
# bit-blaster is held to it by the differential tests).


def sdiv_int(a: int, b: int, width: int) -> int:
    """Truncating signed quotient; SMT-LIB: x sdiv 0 = -1 if x >= 0 else 1."""
    sa, sb = to_signed(a, width), to_signed(b, width)
    if sb == 0:
        return (1 << width) - 1 if sa >= 0 else 1
    q = abs(sa) // abs(sb)
    return to_unsigned(-q if (sa < 0) != (sb < 0) else q, width)


def srem_int(a: int, b: int, width: int) -> int:
    """Signed remainder, sign follows the dividend; x srem 0 = x."""
    sa, sb = to_signed(a, width), to_signed(b, width)
    if sb == 0:
        return a
    r = abs(sa) % abs(sb)
    return to_unsigned(-r if sa < 0 else r, width)


def ashr_int(a: int, amount: int, width: int) -> int:
    """Sign-filling right shift; amounts >= width saturate at width - 1."""
    return to_unsigned(to_signed(a, width) >> min(amount, width - 1), width)

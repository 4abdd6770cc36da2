"""Smart constructors for expressions.

These are the only way to build :class:`~repro.expr.nodes.Expr` values.  Each
constructor folds constants and applies cheap local rewrites *before*
interning, so the DAG the solver sees is already normalized:

* constants are always folded,
* commutative operands are ordered canonically (improves sharing),
* comparisons against ite-of-constants are pushed through the ite — the key
  rewrite that lets merged states keep branch conditions cheap when both
  arms are concrete (paper §3.1's ``ite(C, 2, 1) < N + 1`` example),
* double negation and ite-chain collapses are eliminated.
"""

from __future__ import annotations

from . import nodes as N
from .nodes import Expr
from .sorts import BOOL, BVSort, ashr_int, sdiv_int, srem_int, to_signed, to_unsigned

# ---------------------------------------------------------------------------
# Leaves
# ---------------------------------------------------------------------------


def bv(value: int, width: int) -> Expr:
    """A bitvector constant, normalized to ``width`` bits (two's complement)."""
    return Expr._make(N.CONST, BVSort(width), value=to_unsigned(value, width))


def bv_var(name: str, width: int) -> Expr:
    """A bitvector variable."""
    return Expr._make(N.VAR, BVSort(width), name=name)


def bool_const(value: bool) -> Expr:
    return Expr._make(N.CONST, BOOL, value=1 if value else 0)


def bool_var(name: str) -> Expr:
    return Expr._make(N.VAR, BOOL, name=name)


TRUE = bool_const(True)
FALSE = bool_const(False)


def _require_same_width(a: Expr, b: Expr, op: str) -> int:
    if not (a.is_bv() and b.is_bv()) or a.sort is not b.sort:
        raise TypeError(f"{op}: operand sorts differ ({a.sort!r} vs {b.sort!r})")
    return a.width


def _later(a: Expr, b: Expr) -> bool:
    """Canonical commutative operand order: by structural key.

    ``skey`` depends only on structure and names, never on interning
    history, so the orientation — and hence the built DAG and every key
    derived from it (repro.expr.canon) — is identical across processes
    even when something else (warm-start core decoding, test fixtures)
    interned expressions first.  ``eid`` only breaks 64-bit hash ties.
    """
    return a.skey > b.skey or (a.skey == b.skey and a.eid > b.eid)


# ---------------------------------------------------------------------------
# Bitvector arithmetic
# ---------------------------------------------------------------------------


def add(a: Expr, b: Expr) -> Expr:
    w = _require_same_width(a, b, "add")
    if a.is_const() and b.is_const():
        return bv(a.value + b.value, w)
    if a.is_const() and a.value == 0:
        return b
    if b.is_const() and b.value == 0:
        return a
    # Canonical operand order for commutative ops: constants last.
    if a.is_const() or (not b.is_const() and _later(a, b)):
        a, b = b, a
    # (x + c1) + c2  ->  x + (c1 + c2)
    if b.is_const() and a.kind == N.ADD and a.children[1].is_const():
        return add(a.children[0], bv(a.children[1].value + b.value, w))
    return Expr._make(N.ADD, a.sort, (a, b))


def sub(a: Expr, b: Expr) -> Expr:
    w = _require_same_width(a, b, "sub")
    if a.is_const() and b.is_const():
        return bv(a.value - b.value, w)
    if b.is_const() and b.value == 0:
        return a
    if a is b:
        return bv(0, w)
    if b.is_const():
        return add(a, bv(-b.value, w))
    return Expr._make(N.SUB, a.sort, (a, b))


def mul(a: Expr, b: Expr) -> Expr:
    w = _require_same_width(a, b, "mul")
    if a.is_const() and b.is_const():
        return bv(a.value * b.value, w)
    if a.is_const():
        a, b = b, a
    if b.is_const():
        if b.value == 0:
            return bv(0, w)
        if b.value == 1:
            return a
    elif _later(a, b):
        a, b = b, a
    return Expr._make(N.MUL, a.sort, (a, b))


def udiv(a: Expr, b: Expr) -> Expr:
    w = _require_same_width(a, b, "udiv")
    if b.is_const():
        if b.value == 0:
            return bv((1 << w) - 1, w)  # SMT-LIB: x udiv 0 = all-ones
        if b.value == 1:
            return a
        if a.is_const():
            return bv(a.value // b.value, w)
    return Expr._make(N.UDIV, a.sort, (a, b))


def urem(a: Expr, b: Expr) -> Expr:
    w = _require_same_width(a, b, "urem")
    if b.is_const():
        if b.value == 0:
            return a  # SMT-LIB: x urem 0 = x
        if b.value == 1:
            return bv(0, w)
        if a.is_const():
            return bv(a.value % b.value, w)
    return Expr._make(N.UREM, a.sort, (a, b))


def sdiv(a: Expr, b: Expr) -> Expr:
    w = _require_same_width(a, b, "sdiv")
    if a.is_const() and b.is_const():
        return bv(sdiv_int(a.value, b.value, w), w)
    if b.is_const() and to_signed(b.value, w) == 1:
        return a
    return Expr._make(N.SDIV, a.sort, (a, b))


def srem(a: Expr, b: Expr) -> Expr:
    w = _require_same_width(a, b, "srem")
    if a.is_const() and b.is_const():
        return bv(srem_int(a.value, b.value, w), w)
    return Expr._make(N.SREM, a.sort, (a, b))


def neg(a: Expr) -> Expr:
    if a.is_const():
        return bv(-a.value, a.width)
    if a.kind == N.NEG:
        return a.children[0]
    return Expr._make(N.NEG, a.sort, (a,))


# ---------------------------------------------------------------------------
# Bitwise / shifts
# ---------------------------------------------------------------------------


def bvand(a: Expr, b: Expr) -> Expr:
    w = _require_same_width(a, b, "bvand")
    if a.is_const() and b.is_const():
        return bv(a.value & b.value, w)
    if a.is_const():
        a, b = b, a
    if b.is_const():
        if b.value == 0:
            return bv(0, w)
        if b.value == (1 << w) - 1:
            return a
    if a is b:
        return a
    if not b.is_const() and _later(a, b):
        a, b = b, a
    return Expr._make(N.BVAND, a.sort, (a, b))


def bvor(a: Expr, b: Expr) -> Expr:
    w = _require_same_width(a, b, "bvor")
    if a.is_const() and b.is_const():
        return bv(a.value | b.value, w)
    if a.is_const():
        a, b = b, a
    if b.is_const():
        if b.value == 0:
            return a
        if b.value == (1 << w) - 1:
            return bv(b.value, w)
    if a is b:
        return a
    if not b.is_const() and _later(a, b):
        a, b = b, a
    return Expr._make(N.BVOR, a.sort, (a, b))


def bvxor(a: Expr, b: Expr) -> Expr:
    w = _require_same_width(a, b, "bvxor")
    if a.is_const() and b.is_const():
        return bv(a.value ^ b.value, w)
    if a is b:
        return bv(0, w)
    if a.is_const():
        a, b = b, a
    if b.is_const() and b.value == 0:
        return a
    if not b.is_const() and _later(a, b):
        a, b = b, a
    return Expr._make(N.BVXOR, a.sort, (a, b))


def bvnot(a: Expr) -> Expr:
    if a.is_const():
        return bv(~a.value, a.width)
    if a.kind == N.BVNOT:
        return a.children[0]
    return Expr._make(N.BVNOT, a.sort, (a,))


def _shift_amount(b: Expr, w: int) -> int | None:
    """Concrete shift amount, clamped; None if symbolic."""
    return b.value if b.is_const() else None


def shl(a: Expr, b: Expr) -> Expr:
    w = _require_same_width(a, b, "shl")
    amount = _shift_amount(b, w)
    if amount is not None:
        if amount >= w:
            return bv(0, w)
        if amount == 0:
            return a
        if a.is_const():
            return bv(a.value << amount, w)
    return Expr._make(N.SHL, a.sort, (a, b))


def lshr(a: Expr, b: Expr) -> Expr:
    w = _require_same_width(a, b, "lshr")
    amount = _shift_amount(b, w)
    if amount is not None:
        if amount >= w:
            return bv(0, w)
        if amount == 0:
            return a
        if a.is_const():
            return bv(a.value >> amount, w)
    return Expr._make(N.LSHR, a.sort, (a, b))


def ashr(a: Expr, b: Expr) -> Expr:
    w = _require_same_width(a, b, "ashr")
    amount = _shift_amount(b, w)
    if amount is not None:
        if amount == 0:
            return a
        if a.is_const():
            return bv(ashr_int(a.value, amount, w), w)
        if amount >= w:
            amount = w - 1
            b = bv(amount, w)
    return Expr._make(N.ASHR, a.sort, (a, b))


# ---------------------------------------------------------------------------
# Width adjustment
# ---------------------------------------------------------------------------


def zext(a: Expr, new_width: int) -> Expr:
    if new_width < a.width:
        raise ValueError(f"zext to narrower width {new_width} < {a.width}")
    if new_width == a.width:
        return a
    if a.is_const():
        return bv(a.value, new_width)
    return Expr._make(N.ZEXT, BVSort(new_width), (a,), params=(new_width,))


def sext(a: Expr, new_width: int) -> Expr:
    if new_width < a.width:
        raise ValueError(f"sext to narrower width {new_width} < {a.width}")
    if new_width == a.width:
        return a
    if a.is_const():
        return bv(to_signed(a.value, a.width), new_width)
    return Expr._make(N.SEXT, BVSort(new_width), (a,), params=(new_width,))


def extract(a: Expr, hi: int, lo: int) -> Expr:
    if not (0 <= lo <= hi < a.width):
        raise ValueError(f"extract[{hi}:{lo}] out of range for width {a.width}")
    if lo == 0 and hi == a.width - 1:
        return a
    width = hi - lo + 1
    if a.is_const():
        return bv(a.value >> lo, width)
    if a.kind == N.ZEXT and hi < a.children[0].width:
        return extract(a.children[0], hi, lo)
    if a.kind == N.CONCAT:
        # concat(hi_part, lo_part): extract that stays within one part.
        hi_part, lo_part = a.children
        if hi < lo_part.width:
            return extract(lo_part, hi, lo)
        if lo >= lo_part.width:
            return extract(hi_part, hi - lo_part.width, lo - lo_part.width)
    return Expr._make(N.EXTRACT, BVSort(width), (a,), params=(hi, lo))


def concat(hi_part: Expr, lo_part: Expr) -> Expr:
    """Concatenate: result = hi_part : lo_part (hi bits are hi_part)."""
    width = hi_part.width + lo_part.width
    if hi_part.is_const() and lo_part.is_const():
        return bv((hi_part.value << lo_part.width) | lo_part.value, width)
    return Expr._make(N.CONCAT, BVSort(width), (hi_part, lo_part))


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------


def _push_cmp_into_ite(kind: str, a: Expr, b: Expr) -> Expr | None:
    """Rewrite cmp(ite(c, k1, k2), k) into a boolean combination.

    Applied only when all ite leaves reachable through nested ITEs and the
    other operand are constants — exactly the situation created by merging
    states whose differing variables were concrete.  Bounded depth keeps the
    rewrite linear.
    """
    if b.is_const() and a.kind == N.ITE:
        return _cmp_leaves(kind, a, b, False, 0)
    if a.is_const() and b.kind == N.ITE:
        return _cmp_leaves(kind, b, a, True, 0)
    return None


def _cmp_leaves(kind: str, x: Expr, other: Expr, swapped: bool, depth: int) -> Expr | None:
    """``_push_cmp_into_ite``'s walk (module-level: a nested recursive
    closure would leave a reference cycle per comparison built)."""
    if depth > 8:
        return None
    if x.kind == N.ITE:
        cond, then_e, else_e = x.children
        t = _cmp_leaves(kind, then_e, other, swapped, depth + 1)
        if t is None:
            return None
        e = _cmp_leaves(kind, else_e, other, swapped, depth + 1)
        if e is None:
            return None
        return ite(cond, t, e)
    if x.is_const() and other.is_const():
        lhs, rhs = (other, x) if swapped else (x, other)
        return _fold_cmp(kind, lhs, rhs)
    return None


def _fold_cmp(kind: str, a: Expr, b: Expr) -> Expr:
    w = a.width
    if kind == N.EQ:
        return bool_const(a.value == b.value)
    if kind == N.ULT:
        return bool_const(a.value < b.value)
    if kind == N.ULE:
        return bool_const(a.value <= b.value)
    if kind == N.SLT:
        return bool_const(to_signed(a.value, w) < to_signed(b.value, w))
    if kind == N.SLE:
        return bool_const(to_signed(a.value, w) <= to_signed(b.value, w))
    raise AssertionError(kind)


def eq(a: Expr, b: Expr) -> Expr:
    if a.is_bool() or b.is_bool():
        return iff(a, b)
    _require_same_width(a, b, "eq")
    if a is b:
        return TRUE
    if a.is_const() and b.is_const():
        return _fold_cmp(N.EQ, a, b)
    pushed = _push_cmp_into_ite(N.EQ, a, b)
    if pushed is not None:
        return pushed
    # Canonical operand order, constants last (like add/mul): comparing
    # eids of a fresh node and a long-interned constant would make the
    # structure depend on interning history, which must not leak into
    # cross-process keys (repro.expr.canon).
    if a.is_const() or (not b.is_const() and _later(a, b)):
        a, b = b, a
    return Expr._make(N.EQ, BOOL, (a, b))


def ne(a: Expr, b: Expr) -> Expr:
    return not_(eq(a, b))


def ult(a: Expr, b: Expr) -> Expr:
    w = _require_same_width(a, b, "ult")
    if a is b:
        return FALSE
    if a.is_const() and b.is_const():
        return _fold_cmp(N.ULT, a, b)
    if b.is_const() and b.value == 0:
        return FALSE
    if a.is_const() and a.value == (1 << w) - 1:
        return FALSE
    pushed = _push_cmp_into_ite(N.ULT, a, b)
    if pushed is not None:
        return pushed
    return Expr._make(N.ULT, BOOL, (a, b))


def ule(a: Expr, b: Expr) -> Expr:
    w = _require_same_width(a, b, "ule")
    if a is b:
        return TRUE
    if a.is_const() and b.is_const():
        return _fold_cmp(N.ULE, a, b)
    if a.is_const() and a.value == 0:
        return TRUE
    if b.is_const() and b.value == (1 << w) - 1:
        return TRUE
    pushed = _push_cmp_into_ite(N.ULE, a, b)
    if pushed is not None:
        return pushed
    return Expr._make(N.ULE, BOOL, (a, b))


def ugt(a: Expr, b: Expr) -> Expr:
    return ult(b, a)


def uge(a: Expr, b: Expr) -> Expr:
    return ule(b, a)


def slt(a: Expr, b: Expr) -> Expr:
    _require_same_width(a, b, "slt")
    if a is b:
        return FALSE
    if a.is_const() and b.is_const():
        return _fold_cmp(N.SLT, a, b)
    pushed = _push_cmp_into_ite(N.SLT, a, b)
    if pushed is not None:
        return pushed
    return Expr._make(N.SLT, BOOL, (a, b))


def sle(a: Expr, b: Expr) -> Expr:
    _require_same_width(a, b, "sle")
    if a is b:
        return TRUE
    if a.is_const() and b.is_const():
        return _fold_cmp(N.SLE, a, b)
    pushed = _push_cmp_into_ite(N.SLE, a, b)
    if pushed is not None:
        return pushed
    return Expr._make(N.SLE, BOOL, (a, b))


def sgt(a: Expr, b: Expr) -> Expr:
    return slt(b, a)


def sge(a: Expr, b: Expr) -> Expr:
    return sle(b, a)


# ---------------------------------------------------------------------------
# Boolean connectives
# ---------------------------------------------------------------------------


def not_(a: Expr) -> Expr:
    if not a.is_bool():
        raise TypeError(f"not: expected Bool, got {a.sort!r}")
    if a.is_const():
        return bool_const(a.value == 0)
    if a.kind == N.NOT:
        return a.children[0]
    # Flip comparisons instead of wrapping them: smaller formulas for the
    # solver and better sharing between a branch and its negation.
    if a.kind == N.ULT:
        return ule(a.children[1], a.children[0])
    if a.kind == N.ULE:
        return ult(a.children[1], a.children[0])
    if a.kind == N.SLT:
        return sle(a.children[1], a.children[0])
    if a.kind == N.SLE:
        return slt(a.children[1], a.children[0])
    return Expr._make(N.NOT, BOOL, (a,))


_CMP_COMPLEMENTS = {N.ULT: N.ULE, N.ULE: N.ULT, N.SLT: N.SLE, N.SLE: N.SLT}


def complements(a: Expr, b: Expr) -> bool:
    """Syntactic complement check: a <=> not b.

    Covers explicit negation nodes and the flipped comparisons that
    :func:`not_` produces (``!(x < y)`` is built as ``y <= x``).
    """
    if (a.kind == N.NOT and a.children[0] is b) or (b.kind == N.NOT and b.children[0] is a):
        return True
    flipped = _CMP_COMPLEMENTS.get(a.kind)
    if flipped is not None and b.kind == flipped:
        return a.children[0] is b.children[1] and a.children[1] is b.children[0]
    return False


def and_(a: Expr, b: Expr) -> Expr:
    if a.is_false() or b.is_false():
        return FALSE
    if a.is_true():
        return b
    if b.is_true():
        return a
    if a is b:
        return a
    if complements(a, b):
        return FALSE
    if _later(a, b):
        a, b = b, a
    return Expr._make(N.AND, BOOL, (a, b))


def or_(a: Expr, b: Expr) -> Expr:
    if a.is_true() or b.is_true():
        return TRUE
    if a.is_false():
        return b
    if b.is_false():
        return a
    if a is b:
        return a
    if complements(a, b):
        return TRUE
    if _later(a, b):
        a, b = b, a
    return Expr._make(N.OR, BOOL, (a, b))


def xor(a: Expr, b: Expr) -> Expr:
    if a.is_const() and b.is_const():
        return bool_const(a.value != b.value)
    if a.is_const():
        a, b = b, a
    if b.is_const():
        return not_(a) if b.value else a
    if a is b:
        return FALSE
    if _later(a, b):
        a, b = b, a
    return Expr._make(N.XOR, BOOL, (a, b))


def iff(a: Expr, b: Expr) -> Expr:
    return not_(xor(a, b))


def implies(a: Expr, b: Expr) -> Expr:
    return or_(not_(a), b)


def and_all(exprs) -> Expr:
    """Conjunction of an iterable of booleans (TRUE for empty)."""
    result = TRUE
    for e in exprs:
        result = and_(result, e)
    return result


def or_all(exprs) -> Expr:
    """Disjunction of an iterable of booleans (FALSE for empty)."""
    result = FALSE
    for e in exprs:
        result = or_(result, e)
    return result


# ---------------------------------------------------------------------------
# If-then-else (both sorts)
# ---------------------------------------------------------------------------


def ite(cond: Expr, then_e: Expr, else_e: Expr) -> Expr:
    if not cond.is_bool():
        raise TypeError(f"ite: condition must be Bool, got {cond.sort!r}")
    if then_e.sort is not else_e.sort:
        raise TypeError(f"ite: branch sorts differ ({then_e.sort!r} vs {else_e.sort!r})")
    if cond.is_true():
        return then_e
    if cond.is_false():
        return else_e
    if then_e is else_e:
        return then_e
    if cond.kind == N.NOT:
        return ite(cond.children[0], else_e, then_e)
    if cond.kind in (N.ULE, N.SLE):
        # Canonicalize to strict comparisons so that ite(!(x<y), a, b) and
        # ite(x<y, b, a) intern to the same node.
        strict = ult if cond.kind == N.ULE else slt
        return ite(strict(cond.children[1], cond.children[0]), else_e, then_e)
    if then_e.is_bool():
        if then_e.is_true() and else_e.is_false():
            return cond
        if then_e.is_false() and else_e.is_true():
            return not_(cond)
        if then_e.is_true():
            return or_(cond, else_e)
        if then_e.is_false():
            return and_(not_(cond), else_e)
        if else_e.is_true():
            return or_(not_(cond), then_e)
        if else_e.is_false():
            return and_(cond, then_e)
    # Collapse nested ites over the same condition (memory ite-chains).
    if then_e.kind == N.ITE and then_e.children[0] is cond:
        then_e = then_e.children[1]
    if else_e.kind == N.ITE and else_e.children[0] is cond:
        else_e = else_e.children[2]
    if then_e is else_e:
        return then_e
    return Expr._make(N.ITE, then_e.sort, (cond, then_e, else_e))

"""Concrete evaluation of expressions under a variable assignment.

Used by test-case generation (replaying a model), by solver model
validation, and by the differential tests that check the bit-blaster
against this reference semantics.
"""

from __future__ import annotations

from . import nodes as N
from .nodes import Expr
from .sorts import ashr_int, sdiv_int, srem_int, to_signed, to_unsigned


class EvalError(Exception):
    """Raised when evaluation hits an unbound variable."""


def evaluate(expr: Expr, assignment: dict[str, int], memo: dict[int, int] | None = None) -> int:
    """Evaluate ``expr`` to a Python int under ``assignment``.

    Booleans evaluate to 0/1; bitvectors to their unsigned value.  Raises
    :class:`EvalError` for variables missing from the assignment.

    ``memo`` is a caller-owned node-level memo (eid -> value) for callers
    that evaluate many expressions under the *same* assignment: successive
    path conditions share most of their DAG, so each shared node is
    evaluated once per memo instead of once per call.  Only values are
    ever written to it: an :class:`EvalError` leaves the memo valid and
    the failed expression unrecorded — it may be a child of the next
    expression, where a lazy ``ite`` or connective can still step around
    the unbound variable.
    """
    return _ev(expr, {} if memo is None else memo, assignment)


# The walk is two module-level functions passing their state down: a
# nested recursive closure would make a function <-> cell cycle per call,
# garbage only the cyclic collector frees.


def _ev(e: Expr, cache: dict[int, int], assignment: dict[str, int]) -> int:
    val = cache.get(e.eid)
    if val is None:
        val = cache[e.eid] = _eval_node(e, cache, assignment)
    return val


def _eval_node(e: Expr, cache: dict[int, int], assignment: dict[str, int]) -> int:
    kind = e.kind
    if kind == N.CONST:
        return e.value
    if kind == N.VAR:
        try:
            raw = assignment[e.name]
        except KeyError:
            raise EvalError(f"unbound variable {e.name!r}") from None
        return to_unsigned(raw, e.width) if e.is_bv() else (1 if raw else 0)

    c = e.children
    # Lazy kinds first: an ite arm, the right operand of and/or and a
    # shifted operand are evaluated only when the result needs them.
    if kind == N.ITE:
        return _ev(c[1] if _ev(c[0], cache, assignment) else c[2], cache, assignment)
    if kind == N.AND:
        return 1 if (_ev(c[0], cache, assignment) and _ev(c[1], cache, assignment)) else 0
    if kind == N.OR:
        return 1 if (_ev(c[0], cache, assignment) or _ev(c[1], cache, assignment)) else 0
    w = e.width if e.is_bv() else 0
    if kind == N.SHL or kind == N.LSHR:
        amount = _ev(c[1], cache, assignment)
        if amount >= w:
            return 0
        a = _ev(c[0], cache, assignment)
        return to_unsigned(a << amount, w) if kind == N.SHL else a >> amount

    # Every other kind is strict: operands left to right.
    a = _ev(c[0], cache, assignment)
    if kind == N.NOT:
        return 0 if a else 1
    if kind == N.ZEXT:
        return a
    if kind == N.SEXT:
        return to_unsigned(to_signed(a, c[0].width), w)
    if kind == N.EXTRACT:
        hi, lo = e.params
        return (a >> lo) & ((1 << (hi - lo + 1)) - 1)
    if kind == N.NEG:
        return to_unsigned(-a, w)
    if kind == N.BVNOT:
        return to_unsigned(~a, w)

    b = _ev(c[1], cache, assignment)
    if kind == N.XOR:
        return 1 if a != b else 0
    if kind == N.EQ:
        return 1 if a == b else 0
    if kind == N.ULT:
        return 1 if a < b else 0
    if kind == N.ULE:
        return 1 if a <= b else 0
    if kind in (N.SLT, N.SLE):
        sw = c[0].width
        a, b = to_signed(a, sw), to_signed(b, sw)
        return 1 if (a < b if kind == N.SLT else a <= b) else 0
    if kind == N.ADD:
        return to_unsigned(a + b, w)
    if kind == N.SUB:
        return to_unsigned(a - b, w)
    if kind == N.MUL:
        return to_unsigned(a * b, w)
    if kind == N.UDIV:
        return (1 << w) - 1 if b == 0 else a // b
    if kind == N.UREM:
        return a if b == 0 else a % b
    if kind == N.SDIV:
        return sdiv_int(a, b, w)
    if kind == N.SREM:
        return srem_int(a, b, w)
    if kind == N.BVAND:
        return a & b
    if kind == N.BVOR:
        return a | b
    if kind == N.BVXOR:
        return a ^ b
    if kind == N.ASHR:
        return ashr_int(a, b, w)
    if kind == N.CONCAT:
        return (a << c[1].width) | b

    raise AssertionError(f"unhandled expression kind {kind!r}")

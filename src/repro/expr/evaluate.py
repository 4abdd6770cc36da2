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
    cache: dict[int, int] = {} if memo is None else memo

    def ev(e: Expr) -> int:
        val = cache.get(e.eid)
        if val is not None:
            return val
        val = _eval_node(e, ev, assignment)
        cache[e.eid] = val
        return val

    return ev(expr)


def _eval_node(e: Expr, ev, assignment: dict[str, int]) -> int:
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
    if kind == N.ITE:
        return ev(c[1]) if ev(c[0]) else ev(c[2])

    if kind == N.NOT:
        return 0 if ev(c[0]) else 1
    if kind == N.AND:
        return 1 if (ev(c[0]) and ev(c[1])) else 0
    if kind == N.OR:
        return 1 if (ev(c[0]) or ev(c[1])) else 0
    if kind == N.XOR:
        return 1 if (ev(c[0]) != ev(c[1])) else 0

    if kind == N.EQ:
        return 1 if ev(c[0]) == ev(c[1]) else 0
    if kind == N.ULT:
        return 1 if ev(c[0]) < ev(c[1]) else 0
    if kind == N.ULE:
        return 1 if ev(c[0]) <= ev(c[1]) else 0
    if kind in (N.SLT, N.SLE):
        w = c[0].width
        a, b = to_signed(ev(c[0]), w), to_signed(ev(c[1]), w)
        if kind == N.SLT:
            return 1 if a < b else 0
        return 1 if a <= b else 0

    w = e.width if e.is_bv() else 0
    if kind == N.ADD:
        return to_unsigned(ev(c[0]) + ev(c[1]), w)
    if kind == N.SUB:
        return to_unsigned(ev(c[0]) - ev(c[1]), w)
    if kind == N.MUL:
        return to_unsigned(ev(c[0]) * ev(c[1]), w)
    if kind == N.NEG:
        return to_unsigned(-ev(c[0]), w)
    if kind == N.UDIV:
        a, b = ev(c[0]), ev(c[1])
        return (1 << w) - 1 if b == 0 else a // b
    if kind == N.UREM:
        a, b = ev(c[0]), ev(c[1])
        return a if b == 0 else a % b
    if kind == N.SDIV:
        return sdiv_int(ev(c[0]), ev(c[1]), w)
    if kind == N.SREM:
        return srem_int(ev(c[0]), ev(c[1]), w)
    if kind == N.BVAND:
        return ev(c[0]) & ev(c[1])
    if kind == N.BVOR:
        return ev(c[0]) | ev(c[1])
    if kind == N.BVXOR:
        return ev(c[0]) ^ ev(c[1])
    if kind == N.BVNOT:
        return to_unsigned(~ev(c[0]), w)
    if kind == N.SHL:
        amount = ev(c[1])
        return 0 if amount >= w else to_unsigned(ev(c[0]) << amount, w)
    if kind == N.LSHR:
        amount = ev(c[1])
        return 0 if amount >= w else ev(c[0]) >> amount
    if kind == N.ASHR:
        return ashr_int(ev(c[0]), ev(c[1]), w)
    if kind == N.ZEXT:
        return ev(c[0])
    if kind == N.SEXT:
        return to_unsigned(to_signed(ev(c[0]), c[0].width), w)
    if kind == N.EXTRACT:
        hi, lo = e.params
        return (ev(c[0]) >> lo) & ((1 << (hi - lo + 1)) - 1)
    if kind == N.CONCAT:
        return (ev(c[0]) << c[1].width) | ev(c[1])

    raise AssertionError(f"unhandled expression kind {kind!r}")

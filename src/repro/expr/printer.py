"""Human-readable printer for expressions."""

from __future__ import annotations

from . import nodes as N
from .nodes import Expr
from .sorts import to_signed

_INFIX = {
    N.ADD: "+",
    N.SUB: "-",
    N.MUL: "*",
    N.UDIV: "/u",
    N.UREM: "%u",
    N.SDIV: "/s",
    N.SREM: "%s",
    N.BVAND: "&",
    N.BVOR: "|",
    N.BVXOR: "^",
    N.SHL: "<<",
    N.LSHR: ">>u",
    N.ASHR: ">>s",
    N.EQ: "==",
    N.ULT: "<u",
    N.ULE: "<=u",
    N.SLT: "<s",
    N.SLE: "<=s",
    N.AND: "&&",
    N.OR: "||",
    N.XOR: "!=b",
}


def to_str(expr: Expr, max_depth: int = 0) -> str:
    """Render an expression as compact infix text.

    ``max_depth`` > 0 elides deeper subtrees with ``…`` (used by __repr__
    to keep huge merged-state stores printable).
    """

    def render(e: Expr, depth: int) -> str:
        if max_depth and depth > max_depth:
            return "…"
        kind = e.kind
        if kind == N.CONST:
            if e.is_bool():
                return "true" if e.value else "false"
            signed = to_signed(e.value, e.width)
            return str(e.value if e.value == signed else signed)
        if kind == N.VAR:
            return e.name
        if kind == N.NOT:
            return f"!{render(e.children[0], depth + 1)}"
        if kind == N.NEG:
            return f"-{render(e.children[0], depth + 1)}"
        if kind == N.BVNOT:
            return f"~{render(e.children[0], depth + 1)}"
        if kind == N.ITE:
            c, t, f = (render(x, depth + 1) for x in e.children)
            return f"ite({c}, {t}, {f})"
        if kind == N.ZEXT:
            return f"zext{e.params[0]}({render(e.children[0], depth + 1)})"
        if kind == N.SEXT:
            return f"sext{e.params[0]}({render(e.children[0], depth + 1)})"
        if kind == N.EXTRACT:
            hi, lo = e.params
            return f"{render(e.children[0], depth + 1)}[{hi}:{lo}]"
        if kind == N.CONCAT:
            a, b = (render(x, depth + 1) for x in e.children)
            return f"({a} :: {b})"
        op = _INFIX.get(kind)
        if op is not None:
            a, b = (render(x, depth + 1) for x in e.children)
            return f"({a} {op} {b})"
        raise AssertionError(f"unhandled kind {kind!r}")

    return render(expr, 1)

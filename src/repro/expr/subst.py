"""Substitution and structural rebuilding of expression DAGs."""

from __future__ import annotations

from . import nodes as N
from . import ops
from .nodes import Expr

# Dispatch table mapping node kinds to the smart constructors that rebuild
# them.  Going back through the smart constructors re-applies all local
# simplifications, so substituting constants folds the DAG eagerly.
_REBUILD = {
    N.ADD: ops.add,
    N.SUB: ops.sub,
    N.MUL: ops.mul,
    N.UDIV: ops.udiv,
    N.UREM: ops.urem,
    N.SDIV: ops.sdiv,
    N.SREM: ops.srem,
    N.NEG: ops.neg,
    N.BVAND: ops.bvand,
    N.BVOR: ops.bvor,
    N.BVXOR: ops.bvxor,
    N.BVNOT: ops.bvnot,
    N.SHL: ops.shl,
    N.LSHR: ops.lshr,
    N.ASHR: ops.ashr,
    N.EQ: ops.eq,
    N.ULT: ops.ult,
    N.ULE: ops.ule,
    N.SLT: ops.slt,
    N.SLE: ops.sle,
    N.NOT: ops.not_,
    N.AND: ops.and_,
    N.OR: ops.or_,
    N.XOR: ops.xor,
    N.ITE: ops.ite,
}


def rebuild(kind: str, children: tuple[Expr, ...], params: tuple[int, ...]) -> Expr:
    """Rebuild a node of ``kind`` from new children via smart constructors."""
    ctor = _REBUILD.get(kind)
    if ctor is not None:
        return ctor(*children)
    if kind == N.ZEXT:
        return ops.zext(children[0], params[0])
    if kind == N.SEXT:
        return ops.sext(children[0], params[0])
    if kind == N.EXTRACT:
        return ops.extract(children[0], params[0], params[1])
    if kind == N.CONCAT:
        return ops.concat(children[0], children[1])
    raise AssertionError(f"cannot rebuild kind {kind!r}")


def substitute(expr: Expr, mapping: dict[str, Expr]) -> Expr:
    """Replace each variable named in ``mapping`` with its expression.

    Returns ``expr`` unchanged (same object) when no mapped variable occurs
    in it.  Memoized over the DAG, so shared subtrees are rewritten once.
    """
    if not mapping or not (expr.variables & mapping.keys()):
        return expr

    return _walk(expr, mapping, {})


def _walk(e: Expr, mapping: dict[str, Expr], cache: dict[int, Expr]) -> Expr:
    # Module-level, state passed down: a nested recursive closure would
    # leave a function <-> cell cycle per substitute() call.
    if not (e.variables & mapping.keys()):
        return e
    hit = cache.get(e.eid)
    if hit is not None:
        return hit
    if e.kind == N.VAR:
        replacement = mapping.get(e.name, e)
        if replacement is not e and replacement.sort is not e.sort:
            raise TypeError(
                f"substitute: {e.name} has sort {e.sort!r}, replacement {replacement.sort!r}"
            )
        result = replacement
    else:
        new_children = tuple(_walk(c, mapping, cache) for c in e.children)
        if all(nc is oc for nc, oc in zip(new_children, e.children)):
            result = e
        else:
            result = rebuild(e.kind, new_children, e.params)
    cache[e.eid] = result
    return result


def conjuncts(expr: Expr) -> list[Expr]:
    """Flatten a conjunction tree into its leaf conjuncts (left-to-right)."""
    out: list[Expr] = []
    stack = [expr]
    while stack:
        e = stack.pop()
        if e.kind == N.AND:
            stack.append(e.children[1])
            stack.append(e.children[0])
        else:
            out.append(e)
    return out


def disjuncts(expr: Expr) -> list[Expr]:
    """Flatten a disjunction tree into its leaf disjuncts (left-to-right)."""
    out: list[Expr] = []
    stack = [expr]
    while stack:
        e = stack.pop()
        if e.kind == N.OR:
            stack.append(e.children[1])
            stack.append(e.children[0])
        else:
            out.append(e)
    return out

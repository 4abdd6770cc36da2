"""Substitution and structural rebuilding of expression DAGs."""

from __future__ import annotations

from . import nodes as N
from . import ops
from .nodes import Expr

# Dispatch table mapping node kinds to the smart constructors that rebuild
# them, and how many of the node's params each takes after the children.
# Going back through the smart constructors re-applies all local
# simplifications, so substituting constants folds the DAG eagerly.  The
# engine's expression builders (repro.lang.compile) call the same table.
REBUILD = {
    N.ADD: (ops.add, 0),
    N.SUB: (ops.sub, 0),
    N.MUL: (ops.mul, 0),
    N.UDIV: (ops.udiv, 0),
    N.UREM: (ops.urem, 0),
    N.SDIV: (ops.sdiv, 0),
    N.SREM: (ops.srem, 0),
    N.NEG: (ops.neg, 0),
    N.BVAND: (ops.bvand, 0),
    N.BVOR: (ops.bvor, 0),
    N.BVXOR: (ops.bvxor, 0),
    N.BVNOT: (ops.bvnot, 0),
    N.SHL: (ops.shl, 0),
    N.LSHR: (ops.lshr, 0),
    N.ASHR: (ops.ashr, 0),
    N.EQ: (ops.eq, 0),
    N.ULT: (ops.ult, 0),
    N.ULE: (ops.ule, 0),
    N.SLT: (ops.slt, 0),
    N.SLE: (ops.sle, 0),
    N.NOT: (ops.not_, 0),
    N.AND: (ops.and_, 0),
    N.OR: (ops.or_, 0),
    N.XOR: (ops.xor, 0),
    N.ITE: (ops.ite, 0),
    N.ZEXT: (ops.zext, 1),
    N.SEXT: (ops.sext, 1),
    N.EXTRACT: (ops.extract, 2),
    N.CONCAT: (ops.concat, 0),
}


def rebuild(kind: str, children: tuple[Expr, ...], params: tuple[int, ...]) -> Expr:
    """Rebuild a node of ``kind`` from new children via smart constructors."""
    entry = REBUILD.get(kind)
    if entry is None:
        raise AssertionError(f"cannot rebuild kind {kind!r}")
    ctor, n_params = entry
    return ctor(*children, *params[:n_params])


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

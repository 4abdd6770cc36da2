"""Wire codec for expression DAGs.

Expressions are interned per process (:mod:`repro.expr.nodes`), so they
cannot be pickled directly — node identity, ``eid``'s, and the intern table
are all process-local.  This module flattens a set of roots into a plain
topologically-ordered node list (children strictly before parents) that any
process can rebuild through :meth:`Expr._make`, recovering full structural
sharing: decoding the same DAG twice in one process yields *identical*
nodes, so round-tripping preserves ``a is b`` relationships between
subterms.

The encoded form is made of tuples of ints/strings only, safe for pickle
or any structured transport.  Sorts are encoded as ``0`` for Bool and the
positive width for ``BV(width)``.

Node encoding is memoized per process: sibling snapshots and store writes
share most of their DAGs (common pc prefixes, merged stores), so each
node's encoded tuple is built once and reused — only the child-index
remapping is per-call work.  The memo (bounded, see :mod:`repro.memo`) is
keyed by ``eid``, which is never reused (even across
``clear_intern_table``), and :func:`serialize_stats`
exposes fresh-encode vs memo-hit counters so tests can verify the sharing.
"""

from __future__ import annotations

from ..memo import BoundedMemo
from .nodes import Expr
from .sorts import BOOL, BVSort

# One encoded node: (kind, sort_code, child_indices, value, name, params).
EncodedNode = tuple[str, int, tuple[int, ...], int | None, str | None, tuple[int, ...]]

_BOOL_CODE = 0

# eid -> (kind, sort_code, child_eids, value, name, params); the per-call
# encoding only remaps child_eids to positions in that call's node list.
_node_memo = BoundedMemo(65536, process_wide=True)
_stats = {"fresh_encodes": 0, "memo_hits": 0}


def serialize_stats() -> dict[str, int]:
    """Counters for the per-process node-encoding memo (diagnostics)."""
    return dict(_stats)


def _sort_code(expr: Expr) -> int:
    return _BOOL_CODE if expr.sort is BOOL else expr.sort.width


def _sort_of(code: int):
    return BOOL if code == _BOOL_CODE else BVSort(code)


def encode_exprs(roots) -> tuple[tuple[EncodedNode, ...], tuple[int, ...]]:
    """Flatten ``roots`` into ``(nodes, root_indices)``.

    ``nodes`` lists every distinct DAG node exactly once, children before
    parents; ``root_indices[i]`` locates ``roots[i]`` in that list.
    """
    index: dict[int, int] = {}  # eid -> position in `nodes`
    nodes: list[EncodedNode] = []
    for root in roots:
        _encode_into(root, index, nodes)
    return tuple(nodes), tuple(index[r.eid] for r in roots)


def _encode_into(root: Expr, index: dict[int, int], nodes: list[EncodedNode]) -> None:
    if root.eid in index:
        return
    # Iterative postorder: a (node, expanded) work stack avoids recursion
    # limits on the deep ite-chains symbolic memory reads produce.
    stack: list[tuple[Expr, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if node.eid in index:
            continue
        if expanded:
            memo = _node_memo.get(node.eid)
            if memo is None:
                memo = (
                    node.kind,
                    _sort_code(node),
                    tuple(c.eid for c in node.children),
                    node.value,
                    node.name,
                    node.params,
                )
                _node_memo.put(node.eid, memo)
                _stats["fresh_encodes"] += 1
            else:
                _stats["memo_hits"] += 1
            kind, sort_code, child_eids, value, name, params = memo
            encoded = (
                kind,
                sort_code,
                tuple(index[e] for e in child_eids),
                value,
                name,
                params,
            )
            index[node.eid] = len(nodes)
            nodes.append(encoded)
        else:
            stack.append((node, True))
            for child in node.children:
                if child.eid not in index:
                    stack.append((child, False))


def decode_exprs(nodes) -> list[Expr]:
    """Rebuild every node of an :func:`encode_exprs` payload, in order.

    Index the returned list with the ``root_indices`` from encoding.  Goes
    through :meth:`Expr._make` directly (not the simplifying smart
    constructors) so the decoded structure is exactly what was encoded.
    """
    out: list[Expr] = []
    for kind, sort_code, child_idx, value, name, params in nodes:
        children = tuple(out[i] for i in child_idx)
        out.append(
            Expr._make(kind, _sort_of(sort_code), children, value, name, tuple(params))
        )
    return out

"""Cross-process keys for constraint sets.

Interned-expression ids mean nothing outside the process that made
them, so whatever must recognise a constraint set in another process —
a test's ``path_id`` and the corpus filed under it, the persistent
store's constraint cache (:mod:`repro.store`), the scheduler's prefix
digests — keys it by :func:`named_key`, as KLEE's counterexample cache
keys a query by its constraints as written:

* **soundness** — equal keys mean the same constraint multiset (each
  conjunct a Merkle digest over its expression tree, variable names
  included), hence the same verdict and the same models;
* **stability** — the key is a pure function of the set's structure and
  names: independent of constraint order, interning order, process and
  hash seed.

Two sets that differ only by a renaming of their variables get
different keys: symmetric paths over ``arg1`` and ``arg2`` are distinct
tests, and a store row answers only the query that was solved.  All
hashing uses :mod:`hashlib` (never the salted built-in ``hash``).
"""

from __future__ import annotations

import hashlib

from ..memo import BoundedMemo
from .nodes import (
    ADD,
    AND,
    BVAND,
    BVOR,
    BVXOR,
    CONST,
    EQ,
    MUL,
    OR,
    VAR,
    XOR,
    Expr,
)
from .sorts import BOOL

_BOOL_CODE = 0

# Kinds whose operand order is semantically irrelevant.  All hashing here
# treats their children as a *multiset* (digests sorted before mixing), so
# keys cannot depend on the orientation the smart constructors chose.
_COMMUTATIVE = frozenset({ADD, MUL, BVAND, BVOR, BVXOR, EQ, AND, OR, XOR})

# (Merkle digest, DAG node count) per constraint, by eid: what
# :func:`named_key` needs of each conjunct.  A pure function of the
# interned constraint, so valid process-wide; bounded, first-in first-out
# — an evicted entry is recomputed, never answered differently.
_named_cache = BoundedMemo(65536, process_wide=True)

# Merkle digest of one DAG node, by eid: the constraints of a merged path
# condition share most of their DAG, and each node is hashed once however
# many of them reach it.  Pure and bounded like ``_named_cache``.
_named_node_cache = BoundedMemo(16384, process_wide=True)


def _sort_code(e: Expr) -> int:
    return _BOOL_CODE if e.sort is BOOL else e.sort.width


def _h(*parts) -> bytes:
    m = hashlib.blake2b(digest_size=16)
    for part in parts:
        m.update(part if isinstance(part, bytes) else str(part).encode())
        m.update(b"\x1f")
    return m.digest()


def _postorder(root: Expr) -> list[Expr]:
    """DAG nodes under ``root``, each once and children before parents."""
    seen: set[int] = set()
    out: list[Expr] = []
    stack: list[tuple[Expr, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if node.eid in seen:
            continue
        if expanded:
            seen.add(node.eid)
            out.append(node)
        else:
            stack.append((node, True))
            for child in node.children:
                if child.eid not in seen:
                    stack.append((child, False))
    return out


def _digest_nodes(nodes, memo: dict[int, bytes], known=None) -> None:
    """Structural hash of every node of a post-order into ``memo``;
    ``known``, a :class:`BoundedMemo` of node digests, is read before a
    node is hashed and told every digest computed."""
    for node in nodes:
        if known is not None:
            digest = known.get(node.eid)
            if digest is not None:
                memo[node.eid] = digest
                continue
        if node.kind == VAR:
            digest = _h("V", _sort_code(node), node.name)
        elif node.kind == CONST:
            digest = _h("C", _sort_code(node), node.value)
        else:
            child_digests = [memo[c.eid] for c in node.children]
            if node.kind in _COMMUTATIVE:
                child_digests.sort()
            digest = _h(
                node.kind,
                _sort_code(node),
                node.params,
                len(node.children),
                *child_digests,
            )
        memo[node.eid] = digest
        if known is not None:
            known.put(node.eid, digest)


def _constraint_digest(c: Expr, known=None) -> tuple[bytes, int]:
    """Merkle digest of one constraint, plus its DAG node count
    (``known``: as in :func:`_digest_nodes`).

    Commutative operands' digests are sorted, so operand orientation
    never leaks in.  (A Merkle digest identifies the expression *tree*;
    DAG sharing is a representation detail with no semantic content, so
    conflating shared and unshared builds is sound.)
    """
    memo: dict[int, bytes] = {}
    _digest_nodes(_postorder(c), memo, known)
    return memo[c.eid], len(memo)


def _multiset_digest(parts) -> tuple[str, int]:
    """SHA-256 over the sorted per-constraint digests + total node count."""
    m = hashlib.sha256()
    for digest in sorted(digest for digest, _ in parts):
        m.update(digest)
        m.update(b"\x00")
    return m.hexdigest(), sum(count for _, count in parts)


def named_key(constraints) -> str:
    """Order-insensitive structural key of a constraint multiset:
    ``constraints:variables:nodes:`` then a SHA-256 over the sorted
    per-constraint digests."""
    cons = list(constraints)
    parts = []
    for c in cons:
        part = _named_cache.get(c.eid)
        if part is None:
            part = _constraint_digest(c, _named_node_cache)
            _named_cache.put(c.eid, part)
        parts.append(part)
    digest, node_count = _multiset_digest(parts)
    n_vars = len({n for c in cons for n in c.variables})
    return f"{len(cons)}:{n_vars}:{node_count}:{digest}"

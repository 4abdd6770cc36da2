"""α-canonical keys for constraint sets.

The persistent constraint cache (:mod:`repro.store`) must recognise a
query it has answered in an earlier *process*, where interned-expression
ids mean nothing and even variable names may differ (``arg1_b0`` of one
spec playing the role of ``arg2_b0`` in another).  This module maps a
constraint *set* to a canonical key such that

* **soundness** — equal keys imply α-equivalent sets (identical DAGs after
  a bijective variable renaming), hence equisatisfiable, and a model of
  one maps to a model of the other through the renaming;
* **stability** — the key is a pure function of the set's structure:
  independent of interning order, process, hash seed, and variable names.

The construction works per *independence component* — a maximal subset
of the constraints connected through shared variables
(:func:`~repro.expr.independence.split_independent`).  Within one
component every constraint is hashed *name-blind* (variables collapse to
their sort), variable classes are refined for two rounds of
Weisfeiler–Leman-style colouring (a variable's colour mixes the colours
of the constraints it occurs in, a constraint's colour mixes the colours
of its variables), constraints are ordered by their refined colour, and
canonical names ``v0, v1, ...`` are assigned by first occurrence in that
order.  The component's key is a structural prefix (constraint/variable/
node counts — sets differing there can never collide) plus a SHA-256
digest of the renamed DAG encoding.  The set's key is the summed prefix
plus a SHA-256 over the *sorted multiset of component keys*, and
component ``r`` of that order contributes its renaming with every name
prefixed ``c<r>.``.  Component results are memoised process-wide, so a
path condition that grew by one conjunct costs that conjunct's
component, not the whole set.

Equal keys are exact for renamings of the same constraint list; for
adversarially symmetric sets the refinement may order tied constraints
differently and miss an α-equivalence — that costs a cache hit, never
correctness, because the digest still covers the full renamed structure.
All hashing uses :mod:`hashlib` (never the salted built-in ``hash``), so
keys are stable across processes and runs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

from ..memo import BoundedMemo
from .independence import split_independent
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
_REFINE_ROUNDS = 2

# Kinds whose operand order is semantically irrelevant.  All hashing here
# treats their children as a *multiset* (digests sorted before mixing), so
# keys cannot depend on the orientation the smart constructors chose —
# which is name-dependent (``Expr.skey``) and therefore differs between
# α-renamed builds of the same structure.
_COMMUTATIVE = frozenset({ADD, MUL, BVAND, BVOR, BVXOR, EQ, AND, OR, XOR})

# Name-*sensitive* (Merkle digest, DAG node count) per constraint, by eid:
# what :func:`named_key` needs of each conjunct.  A pure function of the
# interned constraint, so valid process-wide; bounded, first-in first-out
# — an evicted entry is recomputed, never answered differently.
_named_cache = BoundedMemo(65536, process_wide=True)

# Name-labelled Merkle digest of one DAG node, by eid: the constraints of
# a merged path condition share most of their DAG, and each node is
# hashed once however many of them reach it.  Pure and bounded like
# ``_named_cache``.
_named_node_cache = BoundedMemo(16384, process_wide=True)

# α-canonical form of one independence component, by the component's
# sorted eid tuple: path conditions grow by a conjunct at a time, so a
# query's components are mostly ones an earlier query already had.  Pure
# and bounded like ``_named_cache``.
_component_cache = BoundedMemo(4096, process_wide=True)


def _sort_code(e: Expr) -> int:
    return _BOOL_CODE if e.sort is BOOL else e.sort.width


def _h(*parts) -> bytes:
    m = hashlib.blake2b(digest_size=16)
    for part in parts:
        m.update(part if isinstance(part, bytes) else str(part).encode())
        m.update(b"\x1f")
    return m.digest()


def _postorder(roots, done=()) -> list[Expr]:
    """DAG nodes under ``roots``, each once and children before parents,
    leaving out those whose eid is already in ``done``."""
    seen: set[int] = set()
    out: list[Expr] = []
    for root in roots:
        stack: list[tuple[Expr, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if node.eid in seen or node.eid in done:
                continue
            if expanded:
                seen.add(node.eid)
                out.append(node)
            else:
                stack.append((node, True))
                for child in node.children:
                    if child.eid not in seen and child.eid not in done:
                        stack.append((child, False))
    return out


def _digest_nodes(nodes, memo: dict[int, bytes], var_digest, known=None) -> None:
    """Structural hash of every node of a post-order into ``memo``
    (children not in ``nodes`` must already be there); ``known``, a
    :class:`BoundedMemo` of the same labelling, is read before a node is
    hashed and told every digest computed."""
    for node in nodes:
        if known is not None:
            digest = known.get(node.eid)
            if digest is not None:
                memo[node.eid] = digest
                continue
        if node.kind == VAR:
            digest = var_digest(node)
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


def _context_sigs(cons, topo, ccolors, memo) -> dict[str, list[bytes]]:
    """Per-variable root-to-occurrence context signatures (top-down WL).

    A variable's *parent digest* alone cannot tell apart two occurrences
    whose parents happen to be structurally identical but sit in
    different places — ``eq(add(a, add(c, a)), add(a, b))``: the two
    binary adds have equal colored digests whenever b and c are tied, so
    b and c would stay tied forever even though swapping them is no
    automorphism, leaving the canonical order to the (name-dependent)
    operand orientation.  The fix is context: every node gets a top-down
    digest mixing its parents' contexts, the parents' own colored
    digests, and the sibling digest multiset at each edge (plus the
    operand position for non-commutative kinds only — commutative edges
    stay orientation-blind).  Shared DAG nodes fold the contexts of all
    their parent edges into one sorted multiset, which keeps the pass
    linear in DAG edges instead of exponential in sharing depth.

    ``topo`` is the post-order of ``cons`` and ``memo`` the colored digest
    of every node in it.
    """
    # eid -> contexts of every parent edge reaching that node.
    edge_ctx: dict[int, list[bytes]] = {}
    for c, color in zip(cons, ccolors):
        edge_ctx.setdefault(c.eid, []).append(_h("root", color))
    sigs: dict[str, list[bytes]] = {}
    # topo has children before parents; reversed, every node is visited
    # only after all its parents, so its context is complete.
    for node in reversed(topo):
        ctx = _h("td", *sorted(edge_ctx.get(node.eid, ())))
        if node.kind == VAR:
            sigs.setdefault(node.name, []).append(ctx)
            continue
        commutative = node.kind in _COMMUTATIVE
        child_digests = [memo[ch.eid] for ch in node.children]
        for j, child in enumerate(node.children):
            sibs = sorted(child_digests[:j] + child_digests[j + 1:])
            edge_ctx.setdefault(child.eid, []).append(
                _h("e", ctx, memo[node.eid],
                   b"*" if commutative else j, *sibs)
            )
    return sigs


@dataclass(frozen=True)
class CanonResult:
    """Canonical key plus the renaming that produced it.

    ``rename`` maps every original variable name of the set to its
    canonical name (a bijection over the set's variables); use
    :meth:`to_canonical` / :meth:`from_canonical` to move model fragments
    across the renaming.
    """

    key: str
    rename: dict[str, str]

    @cached_property
    def _inverse(self) -> dict[str, str]:
        return {v: k for k, v in self.rename.items()}

    def to_canonical(self, model: dict[str, int]) -> dict[str, int]:
        """Project a model into canonical variable names (drops strangers)."""
        return {self.rename[k]: v for k, v in model.items() if k in self.rename}

    def from_canonical(self, model: dict[str, int]) -> dict[str, int]:
        inverse = self._inverse
        return {inverse[k]: v for k, v in model.items() if k in inverse}


def canonicalize(constraints) -> CanonResult:
    """Canonical key + renaming for a constraint set (order-insensitive).

    The set is split into variable-disjoint components, each component is
    canonicalized alone (and remembered, :func:`_component`), and the
    set's key digests the *sorted multiset* of component keys behind the
    summed structural prefix.  Component ``r`` of that sorted order names
    its variables ``c<r>.v<i>``.  Equal keys force pairwise α-equivalent
    components, whose renamings — over disjoint variables — union to a
    bijection of the whole set; components with equal keys are
    α-equivalent to each other, so which of them gets which rank is
    immaterial to any model moved across the renaming.
    """
    parts = sorted(
        (_component(group) for group in split_independent(list(constraints))),
        key=lambda part: part.key,
    )
    totals = [0, 0, 0]
    m = hashlib.sha256()
    rename: dict[str, str] = {}
    for rank, part in enumerate(parts):
        for i, count in enumerate(structural_prefix(part.key)):
            totals[i] += count
        m.update(part.key.encode())
        m.update(b"\x00")
        for name, canonical in part.rename.items():
            rename[name] = f"c{rank}.{canonical}"
    n_cons, n_vars, n_nodes = totals
    return CanonResult(f"{n_cons}:{n_vars}:{n_nodes}:{m.hexdigest()}", rename)


def _component(group) -> CanonResult:
    """:func:`_canonicalize_component`, memoised by the sorted eid tuple."""
    memo_key = tuple(sorted(c.eid for c in group))
    result = _component_cache.get(memo_key)
    if result is None:
        result = _canonicalize_component(group)
        _component_cache.put(memo_key, result)
    return result


def _canonicalize_component(cons) -> CanonResult:
    """Canonical key + ``v<i>`` renaming of one independence component."""
    # One post-order of the component's DAG serves every pass below.
    topo = _postorder(cons)
    var_sorts = {
        node.name: _sort_code(node) for node in topo if node.kind == VAR
    }

    # WL refinement: constraint colours from variable colours and back.
    # A variable's colour mixes the colours of the constraints it occurs in
    # *and* its root-to-occurrence contexts (:func:`_context_sigs`) — the
    # context part is what separates positionally distinct variables
    # inside one constraint (e.g. ``eq(a, add(b, c))``: a sits under the
    # eq, b and c under the add, and the contexts also see *where in the
    # constraint* each parent sits) without ever depending on commutative
    # operand orientation.
    # (_REFINE_ROUNDS >= 1, so ccolors is always set by the first round.)
    colors = {name: _h("v0", code) for name, code in var_sorts.items()}
    ccolors: list[bytes] = []
    for round_no in range(_REFINE_ROUNDS):
        memo: dict[int, bytes] = {}
        _digest_nodes(
            topo, memo, lambda node: _h("V", _sort_code(node), colors[node.name])
        )
        ccolors = [memo[c.eid] for c in cons]
        var_sigs = _context_sigs(cons, topo, ccolors, memo)
        new_colors: dict[str, bytes] = {}
        for name in var_sorts:
            occurrences = sorted(
                ccolors[i] for i, c in enumerate(cons) if name in c.variables
            )
            new_colors[name] = _h(
                "r",
                round_no,
                colors[name],
                *occurrences,
                b"|",
                *sorted(var_sigs.get(name, [])),
            )
        colors = new_colors

    order = sorted(range(len(cons)), key=lambda i: ccolors[i])

    # Canonical names: primarily by refined colour (orientation- and
    # order-independent), ties broken by first occurrence in the refined
    # constraint order (preorder walk; shared nodes visited once).
    occurrence: dict[str, int] = {}
    visited: set[int] = set()
    for i in order:
        stack = [cons[i]]
        while stack:
            node = stack.pop()
            if node.eid in visited:
                continue
            visited.add(node.eid)
            if node.kind == VAR and node.name not in occurrence:
                occurrence[node.name] = len(occurrence)
            stack.extend(reversed(node.children))
    ordered_names = sorted(var_sorts, key=lambda n: (colors[n], occurrence[n]))
    rename = {name: f"v{k}" for k, name in enumerate(ordered_names)}

    # Each constraint is DAG-encoded alone under the canonical renaming and
    # the digest covers the *sorted multiset* of those encodings: the key
    # is then insensitive to how ties in the refined order were broken
    # (e.g. fully symmetric constraint cycles), while equal keys still
    # force equal renamed multisets — hence α-equivalent sets.
    digest, node_count = _multiset_digest(
        [_constraint_digest(c, lambda node: rename[node.name]) for c in cons]
    )
    key = f"{len(cons)}:{len(rename)}:{node_count}:{digest}"
    return CanonResult(key=key, rename=rename)


def _constraint_digest(c: Expr, label, known=None) -> tuple[bytes, int]:
    """Merkle digest of one constraint under a variable labelling, plus
    its DAG node count (``known``: as in :func:`_digest_nodes`).

    :func:`_digest_nodes` sorts commutative operands' digests, so
    operand orientation never leaks in.  (A Merkle digest identifies the
    expression *tree*; DAG sharing is a representation detail with no
    semantic content, so conflating shared and unshared builds is sound.)
    """
    memo: dict[int, bytes] = {}
    _digest_nodes(
        _postorder([c]), memo, lambda node: _h("V", _sort_code(node), label(node)), known
    )
    return memo[c.eid], len(memo)


def _multiset_digest(parts) -> tuple[str, int]:
    """SHA-256 over the sorted per-constraint digests + total node count."""
    m = hashlib.sha256()
    for digest in sorted(digest for digest, _ in parts):
        m.update(digest)
        m.update(b"\x00")
    return m.hexdigest(), sum(count for _, count in parts)


def canonical_key(constraints) -> str:
    """Just the key (when no model remapping is needed)."""
    return canonicalize(constraints).key


def named_key(constraints) -> str:
    """Order-insensitive structural key that *keeps* variable names.

    Unlike :func:`canonical_key` this distinguishes α-equivalent sets over
    different variables — which is exactly what a *path-prefix identity*
    needs: two symmetric paths (say, over ``arg1`` vs ``arg2``) are
    α-equivalent but produce different concrete tests, so the corpus must
    key them apart.  Still stable across processes and constraint order.
    """
    cons = list(constraints)
    parts = []
    for c in cons:
        part = _named_cache.get(c.eid)
        if part is None:
            part = _constraint_digest(c, lambda node: node.name, _named_node_cache)
            _named_cache.put(c.eid, part)
        parts.append(part)
    digest, node_count = _multiset_digest(parts)
    n_vars = len({n for c in cons for n in c.variables})
    return f"{len(cons)}:{n_vars}:{node_count}:{digest}"


def structural_prefix(key: str) -> tuple[int, int, int]:
    """The ``(constraints, variables, nodes)`` counts leading a key."""
    n_cons, n_vars, n_nodes, _ = key.split(":", 3)
    return int(n_cons), int(n_vars), int(n_nodes)

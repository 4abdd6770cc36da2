"""Independent-constraint splitting (KLEE's ConstraintIndependence pass).

A query ``{c1, ..., cn}`` is partitioned into groups that share no
variables; each group can be solved separately and the models unioned.
This matters enormously under state merging: a merged path condition drags
along constraints about argv bytes that are irrelevant to the branch being
decided.

Two cuts, two callers.  :func:`split_independent` partitions a whole set:
``SolverChain.check`` decides it group by group, test generation and the
store's constraint rows work per group.  :func:`relevant_constraints`
keeps the one group a query belongs to: ``SolverChain.check_branch`` and
``check_sliced`` (:mod:`repro.solver.portfolio`) — every feasibility
query the engine makes — send the solver that slice and nothing else,
which is sound because the engine's path conditions are satisfiable.
"""

from __future__ import annotations

from .nodes import Expr


class _UnionFind:
    def __init__(self) -> None:
        self.parent: dict[str, str] = {}

    def find(self, x: str) -> str:
        root = x
        while self.parent.setdefault(root, root) != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def split_independent(constraints: list[Expr]) -> list[list[Expr]]:
    """Partition constraints into variable-disjoint groups.

    Ground constraints (no variables) form their own singleton groups.
    Order within each group follows the input order (stable, so cache keys
    are reproducible).
    """
    uf = _UnionFind()
    for c in constraints:
        names = list(c.variables)
        for other in names[1:]:
            uf.union(names[0], other)
    groups: dict[str, list[Expr]] = {}
    ground: list[list[Expr]] = []
    for c in constraints:
        names = c.variables
        if not names:
            ground.append([c])
            continue
        root = uf.find(next(iter(names)))
        groups.setdefault(root, []).append(c)
    return ground + list(groups.values())


def relevant_constraints(constraints: list[Expr], query: Expr) -> list[Expr]:
    """The subset of ``constraints`` transitively sharing variables with ``query``.

    This is the classic KLEE optimization: to decide ``pc ∧ q``, only the
    part of ``pc`` connected to ``q`` through shared variables matters.
    """
    uf = _UnionFind()
    for c in list(constraints) + [query]:
        names = list(c.variables)
        for other in names[1:]:
            uf.union(names[0], other)
    query_vars = query.variables
    if not query_vars:
        return []
    query_root = uf.find(next(iter(query_vars)))
    out = []
    for c in constraints:
        names = c.variables
        if names and uf.find(next(iter(names))) == query_root:
            out.append(c)
    return out

"""State merging (Algorithm 1, lines 17–22).

Merging two states at the same full-stack location produces a single state
whose path condition is the *disjunction* of the inputs' (with the common
prefix factored out, per §2.1) and whose stores guard each differing value
with an ``ite`` on the first state's path-suffix.

Dead scalars (per liveness) are excluded: a variable that is never read
again may keep either side's value, so it neither forces an ``ite`` nor
needs to participate in similarity checks.  This is sound and mirrors what
the KLEE prototype gets from merging at the LLVM register level after
optimization passes killed dead registers.
"""

from __future__ import annotations

from ..expr import ops
from ..expr.nodes import Expr
from .state import Region, SymState


def split_guard(pc1: tuple[Expr, ...], pc2: tuple[Expr, ...]) -> tuple[int, Expr, Expr]:
    """Common-prefix factoring of two path conditions.

    Returns ``(prefix_len, suffix1, suffix2)`` where each suffix is the
    conjunction of the constraints beyond the shared prefix.
    """
    prefix_len = 0
    for a, b in zip(pc1, pc2):
        if a is not b:
            break
        prefix_len += 1
    suffix1 = ops.and_all(pc1[prefix_len:])
    suffix2 = ops.and_all(pc2[prefix_len:])
    return prefix_len, suffix1, suffix2


def merge_values(guard: Expr, v1: Expr, v2: Expr) -> Expr:
    return v1 if v1 is v2 else ops.ite(guard, v1, v2)


def merge_states(
    s1: SymState,
    s2: SymState,
    new_sid: int,
    live_scalars=None,
) -> SymState | None:
    """Merge ``s1`` into ``s2`` (both at the same location); None if shapes differ.

    ``live_scalars(frame_index, state) -> frozenset | None`` optionally
    restricts which scalars are merged per frame (None = all).  The caller
    is responsible for having checked the similarity relation; this
    function enforces only *structural* compatibility.
    """
    # The shape begins with the full-stack location, and clones share its
    # cached parts, so this is mostly identity checks.
    if s1.shape_fingerprint() != s2.shape_fingerprint():
        return None
    prefix_len, suffix1, suffix2 = split_guard(s1.pc, s2.pc)
    guard = suffix1

    merged = s2.clone(new_sid)
    merged.pc = s1.pc[:prefix_len] + (ops.or_(suffix1, suffix2),)
    # Drop a trailing `true` (both suffixes empty => identical pcs).
    if merged.pc and merged.pc[-1].is_true():
        merged.pc = merged.pc[:-1]

    for i, (f1, f2, fm) in enumerate(zip(s1.frames, s2.frames, merged.frames)):
        live = live_scalars(i, s2) if live_scalars is not None else None
        for name, v2 in f2.store.items():
            v1 = f1.store[name]
            if live is not None and name not in live:
                # Dead at the merge point: either value is observationally
                # equivalent; keep s2's (already in the clone).
                continue
            fm.store[name] = merge_values(guard, v1, v2)

    for name, v2 in s2.globals_store.items():
        v1 = s1.globals_store[name]
        merged.globals_store[name] = merge_values(guard, v1, v2)

    for key, r2 in s2.regions.items():
        r1 = s1.regions[key]
        if r1 is r2 or r1.cells == r2.cells:
            continue
        cells = tuple(
            merge_values(guard, c1, c2) for c1, c2 in zip(r1.cells, r2.cells)
        )
        merged.regions[key] = Region(cells, r2.cols, r2.width)

    merged.output = tuple(
        merge_values(guard, o1, o2) for o1, o2 in zip(s1.output, s2.output)
    )
    merged.multiplicity = s1.multiplicity + s2.multiplicity
    if s1.exact_pcs is not None and s2.exact_pcs is not None:
        merged.exact_pcs = s1.exact_pcs + s2.exact_pcs
    merged.generation = max(s1.generation, s2.generation) + 1
    return merged

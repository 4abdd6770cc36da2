"""Similarity relations (the ``~`` of Algorithm 1).

* :class:`MergeNever` — plain search-based symbolic execution.
* :class:`MergeAlways` — merge whenever shapes match (static-merging-style).
* :class:`QceSimilarity` — the paper's Eq. 1: states merge only if every
  *hot* variable is equal in both states or already symbolic in one.
* :class:`LiveVarSimilarity` — the Boonstoppel-et-al.-inspired baseline:
  merge only when all *live* values are identical (differences confined to
  dead variables), i.e. the pruning special case discussed in §6.

Each relation also provides the state hash of §4.3 used by dynamic state
merging: ``h(v)`` maps symbolic values to a sentinel and concrete values to
themselves, so hash equality conservatively approximates ``~``.

The same ``h(v)`` signature, kept exact, is what the engine's worklist
index files residents under (:meth:`SimilarityRelation.merge_key`): the
"is there a similar state?" of Algorithm 1 line 17 is a dictionary lookup
for every state whose hot values are all concrete, and a pairwise
comparison only against — or on behalf of — the others.
"""

from __future__ import annotations

from ..expr.nodes import Expr
from ..memo import BoundedMemo
from ..qce.qce import QceAnalysis
from .state import SymState

_SYMBOLIC = -1  # sentinel for h(v) of input-dependent values


def _h(value: Expr) -> int:
    """The paper's h(v): a unique marker for symbolic values, else the value."""
    return _SYMBOLIC if value.is_symbolic() else value.eid


def _eid(value: Expr | None) -> int | None:
    return None if value is None else value.eid


def _compatible(v1: Expr, v2: Expr) -> bool:
    """Eq. 1 per-variable condition: equal, or symbolic in at least one."""
    return v1 is v2 or v1.is_symbolic() or v2.is_symbolic()


class SimilarityRelation:
    """Interface; instances are stateless w.r.t. individual states."""

    name = "abstract"

    def location_context(self, state: SymState):
        """What :meth:`mergeable` derives from ``state``'s stack location alone.

        A caller resolves it once per move and passes it to ``state_hash``,
        ``merge_key`` and every ``mergeable`` against a candidate at the
        same ``loc_key``; None means nothing to hoist.
        """
        return None

    def mergeable(self, s1: SymState, s2: SymState, context=None) -> bool:
        raise NotImplementedError

    def merge_key(self, state: SymState, context=None):
        """What ``state`` must agree on, exactly, with anything it is ``~`` to.

        The law, for states ``a``, ``b`` at one ``loc_key`` (where the
        names a frame can see, and the regions they denote, are the same):
        when both keys are not None, ``merge_key(a) == merge_key(b)`` iff
        ``mergeable(a, b)``.  None means "compare me pairwise": the state
        holds one of Eq. 1's wildcards, so no single key can stand for
        everything it is similar to.  Keys are hashable; the default
        claims nothing.
        """
        return None

    def state_hash(self, state: SymState, context=None) -> int:
        raise NotImplementedError


class MergeNever(SimilarityRelation):
    name = "never"

    def mergeable(self, s1: SymState, s2: SymState, context=None) -> bool:
        return False

    def merge_key(self, state: SymState, context=None):
        return state.sid  # distinct for distinct states, as the law asks

    def state_hash(self, state: SymState, context=None) -> int:
        return hash((state.sid, "never"))  # never collides on purpose


class MergeAlways(SimilarityRelation):
    name = "always"

    def mergeable(self, s1: SymState, s2: SymState, context=None) -> bool:
        return True

    def merge_key(self, state: SymState, context=None):
        return ()

    def state_hash(self, state: SymState, context=None) -> int:
        return hash(state.loc_key())


class QceSimilarity(SimilarityRelation):
    """Eq. 1 instantiated with the precomputed QCE hot sets.

    ``qt_global`` sums the local Qt of every stack frame's current location
    (paper §3.2's dynamic interprocedural combination); the hot set of each
    frame is then looked up against that global total.  Both depend only on
    the stack's ``(func, block)`` locations, so they are resolved once per
    distinct stack and kept as pre-sorted name tuples.
    """

    name = "qce"

    # Bound of the region-signature memo.
    CELLS_MEMO_MAX = 4096

    def __init__(self, qce: QceAnalysis):
        self.qce = qce
        # Tuple of frame (func, block) -> per-frame sorted hot names.
        self._hot_sets: dict[tuple, tuple[tuple[str, ...], ...]] = {}
        # id(cells) -> (cells, (h(v) over them, exact)), for the immutable ``cells``
        # tuple of a region (clones and untouched steps share it).  An entry
        # pins its tuple, so a live key's id cannot be reused.  Kept here,
        # not on ``Region``: region equality and ``snapshot()`` never see it.
        self._cells_memo = BoundedMemo(self.CELLS_MEMO_MAX)
        # (state, its merge key) left by the latest ``state_hash``, for the
        # ``merge_key`` call that follows it on the same, unmoved state.
        self._walked: tuple | None = None

    def qt_global(self, state: SymState) -> float:
        return sum(self.qce.qt_local(f.func, f.block) for f in state.frames)

    def location_context(self, state: SymState) -> tuple[tuple[str, ...], ...]:
        """Per-frame hot names, shared by every state at this stack location."""
        key = tuple([(f.func, f.block) for f in state.frames])
        hot_sets = self._hot_sets.get(key)
        if hot_sets is None:
            qt_g = self.qt_global(state)
            hot_sets = tuple(
                tuple(sorted(self.qce.hot_variables(func, block, qt_g)))
                for func, block in key
            )
            self._hot_sets[key] = hot_sets
        return hot_sets

    def _cells_signature(self, cells: tuple[Expr, ...]) -> tuple[tuple[int, ...], bool]:
        """h(v) over a region's cells, and whether none of them is symbolic."""
        memo = self._cells_memo
        entry = memo.get(id(cells))
        if entry is not None and entry[0] is cells:
            return entry[1]
        signature = tuple([_h(c) for c in cells])
        result = (signature, _SYMBOLIC not in signature)
        memo.put(id(cells), (cells, result))
        return result

    def mergeable(self, s1: SymState, s2: SymState, context=None) -> bool:
        if context is None:
            context = self.location_context(s2)
        for f1, f2, hot in zip(s1.frames, s2.frames, context):
            store1, store2 = f1.store, f2.store
            for var in hot:
                v2 = store2.get(var)
                if v2 is not None:
                    v1 = store1.get(var)
                    if v1 is None or not _compatible(v1, v2):
                        return False
                    continue
                if var.startswith("g$") and var in s2.globals_store:
                    if not _compatible(s1.globals_store[var], s2.globals_store[var]):
                        return False
                    continue
                binding = f2.arrays.get(var)
                if binding is None and var.startswith("g$"):
                    key = (0, "global", var)
                    r1, r2 = s1.regions.get(key), s2.regions.get(key)
                else:
                    if binding is None:
                        continue  # e.g. caller-scope name not visible here
                    r1 = s1.regions.get(binding.key)
                    r2 = s2.regions.get(binding.key)
                if r1 is None or r2 is None or r1 is r2:
                    continue
                for c1, c2 in zip(r1.cells, r2.cells):
                    if not _compatible(c1, c2):
                        return False
        return True

    def _signature(self, state: SymState, context) -> tuple[tuple, bool]:
        """``(var, h(v))`` of every hot variable per frame, and whether it is exact.

        Resolves names the way :meth:`mergeable` does.  The signature is
        exact when no ``h(v)`` had to stand in for something else: no hot
        value is symbolic and none is missing from the state.
        """
        exact = True
        parts: list = []
        globals_store = state.globals_store
        for frame, hot in zip(state.frames, context):
            frame_part: list = []
            store = frame.store
            for var in hot:
                value = store.get(var)
                if value is None and var.startswith("g$"):
                    value = globals_store.get(var)
                if value is not None:
                    h = _h(value)
                    exact = exact and h != _SYMBOLIC
                    frame_part.append((var, h))
                    continue
                binding = frame.arrays.get(var)
                key = binding.key if binding is not None else (0, "global", var)
                region = state.regions.get(key)
                if region is None:
                    exact = False
                    continue
                signature, cells_exact = self._cells_signature(region.cells)
                exact = exact and cells_exact
                frame_part.append((var, signature))
            parts.append(tuple(frame_part))
        return tuple(parts), exact

    def merge_key(self, state: SymState, context=None):
        """The hot-value signature when it is exact, else None.

        Between exact signatures Eq. 1 is equality: every hot value is a
        concrete interned expression, present on both sides.  A symbolic
        or missing hot value is Eq. 1's wildcard — the state may be
        similar to states whose signatures differ from its own and from
        each other — so it is left to pairwise comparison.
        """
        walked = self._walked
        if walked is not None and walked[0] is state:
            self._walked = None
            return walked[1]
        if context is None:
            context = self.location_context(state)
        signature, exact = self._signature(state, context)
        return signature if exact else None

    def state_hash(self, state: SymState, context=None) -> int:
        # Structural mergeability must be part of the hash: two states with
        # equal hot-variable values but, say, different output lengths can
        # never merge, and treating them as "similar" would make DSM
        # fast-forward them against each other indefinitely.
        if context is None:
            context = self.location_context(state)
        signature, exact = self._signature(state, context)
        # The engine asks for the moved state's merge key next: same walk.
        self._walked = (state, signature if exact else None)
        return hash((state.shape_hash(),) + signature)


class QceFullSimilarity(QceSimilarity):
    """The *full* QCE criterion of §3.3, Eq. 7 — including ite costs.

    The paper's prototype drops the Qite term; §5.4 observes cases where
    "our QCE prototype can be improved by including the estimation of ite
    expressions introduced by state merging".  This class implements that
    improvement:

        (zeta - 1) * max_{v differing, symbolic} Qite(l, v)
                   + max_{v differing, concrete} Qadd(l, v)  <  alpha * Qt

    with Qite(l, v) = Qadd(l, v) = q(l, c_v) (both are instantiations of
    the same per-variable query count, §3.3).  ``zeta`` > 1 is the assumed
    cost multiplier of a query containing fresh ite expressions
    (Simplifying Assumption 1).
    """

    name = "qce-full"

    def __init__(self, qce: QceAnalysis, zeta: float = 2.0):
        super().__init__(qce)
        if zeta < 1.0:
            raise ValueError("zeta must be >= 1 (ite queries cannot be cheaper)")
        self.zeta = zeta

    def _differing_values(self, s1: SymState, s2: SymState):
        """Yield (frame_index, var, v1, v2) for every differing pair."""
        for i, (f1, f2) in enumerate(zip(s1.frames, s2.frames)):
            for var, v2 in f2.store.items():
                v1 = f1.store.get(var)
                if v1 is not None and v1 is not v2:
                    yield i, var, v1, v2
            for var, binding in f2.arrays.items():
                r1 = s1.regions.get(binding.key)
                r2 = s2.regions.get(binding.key)
                if r1 is None or r2 is None or r1 is r2:
                    continue
                for c1, c2 in zip(r1.cells, r2.cells):
                    if c1 is not c2:
                        yield i, var, c1, c2
                        break  # array participates once, coarsely
        for var, v2 in s2.globals_store.items():
            v1 = s1.globals_store.get(var)
            if v1 is not None and v1 is not v2:
                yield 0, var, v1, v2

    def merge_key(self, state: SymState, context=None):
        return None  # Eq. 7 weighs differing values; it is not an equivalence

    def mergeable(self, s1: SymState, s2: SymState, context=None) -> bool:
        qt_g = self.qt_global(s2)
        threshold = self.qce.params.alpha * qt_g
        max_qite = 0.0
        max_qadd = 0.0
        for frame_index, var, v1, v2 in self._differing_values(s1, s2):
            frame = s2.frames[frame_index]
            qadd = self.qce.qadd_local(frame.func, frame.block, var)
            if v1.is_symbolic() or v2.is_symbolic():
                max_qite = max(max_qite, qadd)  # s1[v] !=s s2[v]
            else:
                max_qadd = max(max_qadd, qadd)  # s1[v] !=c s2[v]
        return (self.zeta - 1.0) * max_qite + max_qadd < threshold


class LiveVarSimilarity(SimilarityRelation):
    """Merge only when every live value is identical (baseline [3]).

    ``live_sets(state) -> list[frozenset]`` yields per-frame live scalar
    sets; the engine injects its liveness oracle at construction.
    """

    name = "live"

    def __init__(self, live_sets):
        self.live_sets = live_sets

    def mergeable(self, s1: SymState, s2: SymState, context=None) -> bool:
        for f1, f2, live in zip(s1.frames, s2.frames, self.live_sets(s2)):
            for var in live:
                v1, v2 = f1.store.get(var), f2.store.get(var)
                if v1 is not v2:
                    return False
        for key, r2 in s2.regions.items():
            r1 = s1.regions.get(key)
            if r1 is not r2 and (r1 is None or r1.cells != r2.cells):
                return False
        return s1.globals_store == s2.globals_store

    def merge_key(self, state: SymState, context=None):
        """The identity of everything :meth:`mergeable` compares: never wild."""
        frames = tuple(
            [
                tuple([(var, _eid(frame.store.get(var))) for var in sorted(live)])
                for frame, live in zip(state.frames, self.live_sets(state))
            ]
        )
        regions = tuple(
            sorted([(key, tuple([c.eid for c in r.cells])) for key, r in state.regions.items()])
        )
        globals_part = tuple(sorted([(n, v.eid) for n, v in state.globals_store.items()]))
        return (frames, regions, globals_part)

    def state_hash(self, state: SymState, context=None) -> int:
        parts: list = [state.shape_hash()]
        for frame, live in zip(state.frames, self.live_sets(state)):
            parts.append(tuple((v, frame.store[v].eid) for v in sorted(live) if v in frame.store))
        for key in sorted(state.regions):
            parts.append(tuple(c.eid for c in state.regions[key].cells))
        return hash(tuple(parts))

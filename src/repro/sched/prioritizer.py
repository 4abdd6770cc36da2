"""Comparable scheduling scores from pluggable signals, plus the heap.

A :class:`Signal` scores one work item; a :class:`Prioritizer` composes
several into a lexicographic key (lower = run sooner) and keeps the
registered items in a binary heap with *lazy rescoring*: keys are
computed at registration time, and a popped minimum is re-checked against
its current key before it is trusted.  The heap holds one entry per
*group* of items that are bound to share a key — every item at one
``(func, block)`` when all signals are location-scoped, the single item
otherwise — so a key that went stale is corrected once, not once per
item waiting there.

Why lazy rescoring is sound here: every dynamic signal in this module is
**monotone** while an item sits in the worklist — run coverage only
grows (``CoverageFrontierSignal`` can flip 0→1, never back), pick counts
only grow, and the corpus/QCE/depth/topological signals are static for a
resident state.  A stored key is therefore always a *lower bound* on the
current key, which is exactly the invariant a lazy heap needs: the top
entry either verifies (it is the true minimum) or is pushed back with
its corrected, larger key.  Custom signals must preserve this law — a
signal whose score can *improve* for a waiting item would make the heap
return non-minima (still safe, merely suboptimal, but it voids the
``test_sched`` heap-law test).
"""

from __future__ import annotations

import heapq
from collections import Counter


class Signal:
    """One scheduling signal: ``score(item, engine)`` — lower runs sooner.

    ``item`` is a live :class:`~repro.engine.state.SymState` for search
    scheduling; partition dispatch uses :func:`partition_score` directly
    (partition metadata is a frozen snapshot, not a live state).
    Scores must be mutually comparable across calls (numbers or
    homogeneous tuples) and must never *decrease* while the item stays
    registered (see the module docstring).

    ``location_scoped`` declares that the score is a function of the top
    frame's ``(func, block)`` and the engine alone, and never decreases
    while *any* item waits at that location (items there share one key).
    """

    name = "signal"
    location_scoped = False

    def score(self, state, engine):
        raise NotImplementedError


class CoverageFrontierSignal(Signal):
    """0 when the state's current block is uncovered this run, else 1.

    The global coverage frontier: states about to execute new code win
    outright over states re-walking covered blocks.
    """

    name = "coverage-frontier"
    location_scoped = True

    def score(self, state, engine):
        frame = state.top
        return 0 if (frame.func, frame.block) not in engine.coverage.covered else 1


class CorpusNoveltySignal(Signal):
    """0 when no stored corpus test has ever covered the current block.

    Cross-run evidence from :mod:`repro.store`: a block absent from the
    corpus coverage index is novel across *every* recorded run, not just
    this one, so states heading there are the cheapest route to new
    coverage.  Engines without a store report an empty corpus set and
    the signal is neutral (scores 0 for everything).
    """

    name = "corpus-novelty"
    location_scoped = True

    def score(self, state, engine):
        corpus = getattr(engine, "corpus_covered", None)
        if not corpus:
            return 0
        frame = state.top
        return 0 if (frame.func, frame.block) not in corpus else 1


class PickCountSignal(Signal):
    """How often this location has already been picked (shared counter).

    De-prioritizes burning the budget on extra unrollings of a loop that
    has been serviced many times — KLEE's coverage-optimized searcher's
    second criterion.  The counter object is shared with (and bumped by)
    the owning strategy, which is what makes resident keys go stale; the
    heap's lazy rescoring absorbs that.
    """

    name = "pick-count"
    location_scoped = True

    def __init__(self, counts: Counter):
        self.counts = counts

    def score(self, state, engine):
        frame = state.top
        return self.counts[(frame.func, frame.block)]


class TopologicalSignal(Signal):
    """Static state merging's order: the full CFG-topological key."""

    name = "topological"

    def score(self, state, engine):
        from ..search.strategies import topological_key  # local: avoid cycle

        return topological_key(state, engine)


class _Group:
    """Residents that share one scheduling key.

    ``entry`` is the heap entry that speaks for the group, ``members`` a
    heap of the frozen ``(tiebreak, seq, sid)`` of everything registered
    into it (removals are lazy), ``live`` how many of those are resident.
    """

    __slots__ = ("entry", "members", "live")

    def __init__(self, entry, member):
        self.entry = entry
        self.members = [member]
        self.live = 1


class Prioritizer:
    """A lexicographic composition of signals over a lazily-rescored heap.

    Two usage modes, matching how strategies are exercised:

    * **registered** — the engine mirrors its worklist through
      ``add``/``remove`` (the strategy ``on_add``/``on_remove`` hooks) and
      ``select`` answers from the heap.  The heap orders *groups*: the
      top frame's ``(func, block)`` when every signal declares itself
      ``location_scoped`` (all residents there share one key), the item
      itself otherwise.  A group's entry ``(key, tiebreak, seq, gid)``
      is a lower bound on ``(current key, tiebreak, seq)`` of its best
      member, members being ordered by the ``(tiebreak, seq)`` frozen at
      ``add``.  ``select`` checks the top entry against the group's live
      head and fresh key, corrects it in place when either moved (one
      *rescore*), and otherwise returns that head — the argmin of
      ``(current key, tiebreak, seq)`` over all residents, whatever the
      grouping.  Signals are scored once per ``add`` (the newcomer's key
      also refreshes a standing group's bound) and once per rescore, so
      a location picked over and over costs at most one rescore per
      pick however many states wait there (``tsort dsm-qce 3x2``: 2 372
      rescores for 31 270 picks).  Bookkeeping is O(resident): an emptied group is dropped,
      and superseded entries and lazily removed members are swept out
      whenever they outnumber the live ones.  The final state→index
      mapping is still a linear identity scan — the worklist is a plain
      list;
    * **ad hoc** — ``select`` on a worklist that was never registered
      (direct strategy calls in tests, subset ranking) falls back to a
      linear argmin over fresh keys.  ``select_among`` is linear in the
      *subset* it is handed (DSM passes only its maintained forwarding
      set, which is empty on most picks and small otherwise) and
      ``select_worst`` in the worklist (steal-victim choice): rare paths
      where heap bookkeeping would cost more than it saves.

    ``rng`` (optional) supplies a tiebreak drawn once per registration —
    frozen per member so rescoring compares stably — mirroring the
    randomized tie-breaking the coverage strategy always had.
    """

    def __init__(self, signals, rng=None):
        self.signals = tuple(signals)
        self.rng = rng
        self._by_location = all(signal.location_scoped for signal in self.signals)
        self._heap: list[tuple] = []
        self._groups: dict[object, _Group] = {}
        # sid -> (state, seq, group) of every registered state.
        self._resident: dict[int, tuple] = {}
        self._seq = 0
        self._rescores = 0

    # -- bookkeeping ---------------------------------------------------------

    def key(self, state, engine) -> tuple:
        return tuple([signal.score(state, engine) for signal in self.signals])

    def _tiebreak(self) -> float:
        return self.rng.random() if self.rng is not None else 0.0

    def add(self, state, engine) -> None:
        sid = state.sid
        if sid in self._resident:
            self.remove(state)
        self._seq += 1
        seq = self._seq
        tiebreak = self._tiebreak()
        if self._by_location:
            frame = state.top
            gid = (frame.func, frame.block)
        else:
            gid = sid
        key = self.key(state, engine)
        group = self._groups.get(gid)
        if group is None:
            entry = (key, tiebreak, seq, gid)
            group = self._groups[gid] = _Group(entry, (tiebreak, seq, sid))
            heapq.heappush(self._heap, entry)
        else:
            heapq.heappush(group.members, (tiebreak, seq, sid))
            group.live += 1
            head = group.entry
            if (tiebreak, seq) < (head[1], head[2]):
                entry = (key, tiebreak, seq, gid)
            elif key != head[0]:
                entry = (key, head[1], head[2], gid)  # the bound went stale
            else:
                entry = None
            if entry is not None:
                group.entry = entry
                heapq.heappush(self._heap, entry)
        self._resident[sid] = (state, seq, group)

    def remove(self, state) -> None:
        record = self._resident.pop(state.sid, None)
        if record is None:
            return
        group = record[2]
        group.live -= 1
        if not group.live:
            del self._groups[group.entry[3]]
        elif len(group.members) > 2 * group.live + 8:
            resident = self._resident
            group.members = [
                m for m in group.members
                if m[2] in resident and resident[m[2]][1] == m[1]
            ]
            heapq.heapify(group.members)
        if not self._groups or len(self._heap) > 2 * len(self._groups) + 8:
            # Worklist drained, or entries of dropped groups and superseded
            # bounds outnumber the live ones: keep exactly one per group.
            self._heap = [group.entry for group in self._groups.values()]
            heapq.heapify(self._heap)

    def __len__(self) -> int:
        return len(self._resident)

    def take_rescores(self) -> int:
        """Rescore count since the last call (flushed into the engine's Stats)."""
        count = self._rescores
        self._rescores = 0
        return count

    # -- selection -----------------------------------------------------------

    def select(self, worklist, engine) -> int:
        """Index of the best worklist state (heap path when registered)."""
        resident = self._resident
        if len(resident) != len(worklist):
            return self._scan(worklist, engine)
        heap = self._heap
        groups = self._groups
        while heap:
            entry = heap[0]
            group = groups.get(entry[3])
            if group is None or group.entry is not entry:
                heapq.heappop(heap)  # dropped group or superseded head
                continue
            members = group.members
            while True:
                tiebreak, seq, sid = members[0]
                record = resident.get(sid)
                if record is not None and record[1] == seq:
                    break
                heapq.heappop(members)
            state = record[0]
            fresh = self.key(state, engine)
            if fresh != entry[0] or seq != entry[2]:
                # Stale lower bound: correct it in place and re-sift.
                group.entry = entry = (fresh, tiebreak, seq, entry[3])
                heapq.heapreplace(heap, entry)
                self._rescores += 1
                if heap[0] is not entry:
                    continue
            try:
                index = worklist.index(state)
            except ValueError:
                # Foreign worklist (same length by coincidence): fall back.
                return self._scan(worklist, engine)
            return index
        return self._scan(worklist, engine)

    def select_among(self, worklist, indices, engine) -> int:
        """Best index among a subset (linear in it; used for DSM forwarding)."""
        best = None
        best_key = None
        for index in indices:
            key = (self.key(worklist[index], engine), self._tiebreak(), index)
            if best_key is None or key < best_key:
                best_key, best = key, index
        if best is None:
            raise ValueError("select_among over an empty subset")
        return best

    def select_worst(self, worklist, engine) -> int:
        """Index of the *lowest-priority* state (steal-victim choice)."""
        worst = 0
        worst_key = None
        for index, state in enumerate(worklist):
            key = (self.key(state, engine), self._tiebreak(), index)
            if worst_key is None or key > worst_key:
                worst_key, worst = key, index
        return worst

    def _scan(self, worklist, engine) -> int:
        best = 0
        best_key = None
        for index, state in enumerate(worklist):
            key = (self.key(state, engine), self._tiebreak(), index)
            if best_key is None or key < best_key:
                best_key, best = key, index
        return best

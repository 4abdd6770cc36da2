"""Dynamic State Merging (the paper's Algorithm 2).

A layer over an arbitrary *driving* strategy.  Every state carries a
bounded history of its last ``delta`` (location, similarity-hash) pairs;
the layer maintains a global multiset of those hashes.  A state whose
*current* hash appears in some other state's history is expected to reach
that state's location shortly, so it is *fast-forwarded*: picked with
priority (topologically-first within the forwarding set ``F``) until it
either merges or diverges.  When ``F`` is empty the driving strategy is in
full control — that is the property that lets coverage-guided search
coexist with merging (§4.1/§5.5).

``F`` is maintained, not recomputed (§4.3): with ``cur(s)`` the newest
hash of a resident state's history,

    F == {s : hash_counts[cur(s)] > own_counts[s][cur(s)]}

holds after every ``on_add``/``on_remove``.  Membership of ``s`` can only
change when the count of ``cur(s)`` changes, so each hook re-evaluates
just the residents filed under the hashes it touched.
"""

from __future__ import annotations

from ..engine.state import SymState
from ..sched import Prioritizer, TopologicalSignal
from .strategies import Strategy


class DsmStrategy(Strategy):
    """pickNext for DSM; wraps the driving heuristic (pickNextD).

    Bookkeeping costs O(delta + affected residents) per worklist change.
    A pick with an empty forwarding set is O(1) on top of the driving
    strategy's own pick; a pick with a non-empty one maps ``F`` to
    worklist indices (one pass of set lookups) and ranks only those,
    topologically first per Algorithm 2, through a
    :class:`~repro.sched.Prioritizer` over the shared topological signal.
    """

    name = "dsm"

    def __init__(self, driving: Strategy, engine):
        self.driving = driving
        self.engine = engine
        # Multiset of the hashes in resident histories, and each resident's
        # own share of it (plain dicts: entries exist only while positive).
        self.hash_counts: dict[int, int] = {}
        self.own_counts: dict[int, dict[int, int]] = {}
        # The forwarding set F, as sids of resident states.
        self.forwarding: set[int] = set()
        # Current hash -> sids of the resident states whose newest history
        # entry carries it (states with an empty history are not filed).
        self.by_current_hash: dict[int, set[int]] = {}
        self.ff_sids: set[int] = set()
        self.topo = Prioritizer((TopologicalSignal(),))

    def bind(self, engine) -> None:
        self.engine = engine
        self.driving.bind(engine)

    def on_seed(self, states) -> None:
        self.driving.on_seed(states)

    # -- bookkeeping ----------------------------------------------------------

    def on_add(self, state: SymState) -> None:
        own: dict[int, int] = {}
        hash_counts = self.hash_counts
        for _, h in state.history:
            own[h] = own.get(h, 0) + 1
            hash_counts[h] = hash_counts.get(h, 0) + 1
        self.own_counts[state.sid] = own
        if state.history:
            current = state.history[-1][1]
            self.by_current_hash.setdefault(current, set()).add(state.sid)
        self._reevaluate(own)
        self.driving.on_add(state)

    def on_remove(self, state: SymState) -> None:
        own = self.own_counts.pop(state.sid, None)
        if own is not None:
            for h, count in own.items():
                remaining = self.hash_counts[h] - count
                if remaining > 0:
                    self.hash_counts[h] = remaining
                else:
                    del self.hash_counts[h]
            if state.history:
                current = state.history[-1][1]
                filed = self.by_current_hash[current]
                filed.discard(state.sid)
                if not filed:
                    del self.by_current_hash[current]
            self.forwarding.discard(state.sid)
            self._reevaluate(own)
        self.driving.on_remove(state)

    def _reevaluate(self, changed_hashes) -> None:
        """Restore the F invariant for residents filed under these hashes."""
        forwarding = self.forwarding
        for h in changed_hashes:
            filed = self.by_current_hash.get(h)
            if filed is None:
                continue
            total = self.hash_counts[h]
            for sid in filed:
                if total > self.own_counts[sid][h]:
                    forwarding.add(sid)
                else:
                    forwarding.discard(sid)

    # -- Algorithm 2 ------------------------------------------------------------

    def pick(self, worklist, engine) -> int:
        forwarding = self.forwarding and [
            i for i, state in enumerate(worklist) if state.sid in self.forwarding
        ]
        if forwarding:
            engine.stats.dsm_fastforward_picks += 1
            best = self.topo.select_among(worklist, forwarding, engine)
            sid = worklist[best].sid
            if sid not in self.ff_sids:
                self.ff_sids.add(sid)
                engine.stats.dsm_fastforward_states += 1
            return best
        return self.driving.pick(worklist, engine)

    def steal_pick(self, worklist, engine) -> int:
        """Prefer exporting states *outside* the forwarding set.

        A forwarded state is expected to merge with a local peer shortly;
        shipping it to another worker would forfeit that merge (merging is
        partition-local by design).  Ties fall back to the driving
        strategy's victim choice among non-forwarding states.
        """
        non_forwarding = [
            i for i, state in enumerate(worklist) if state.sid not in self.forwarding
        ]
        if not non_forwarding:
            return self.driving.steal_pick(worklist, engine)
        sub = [worklist[i] for i in non_forwarding]
        return non_forwarding[self.driving.steal_pick(sub, engine)]

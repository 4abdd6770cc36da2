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
hash of a filed state's history,

    F == {s : hash_counts[cur(s)] > own_counts[s][cur(s)]}

holds after every ``on_add``/``on_remove``.  Membership of ``s`` can only
change when the count of ``cur(s)`` changes, so each hook re-evaluates
just the residents filed under the hashes it touched.

A move changes one history entry, so a move pays for one: the state a
pick hands out stays filed, *in flight*, and when it comes back under the
same sid with its history shifted by one entry, ``on_add`` takes the
dropped hash out of the multiset and puts the new one in.  A state that
does not come back (halted, merged away, infeasible) is unfiled by
``settle``, which the engine calls at the end of every iteration, so
``pick`` and ``steal_pick``, the only readers of ``F``, see it over
exactly the residents.
"""

from __future__ import annotations

from ..engine.state import SymState
from ..sched import Prioritizer, TopologicalSignal
from .strategies import Strategy


class DsmStrategy(Strategy):
    """pickNext for DSM; wraps the driving heuristic (pickNextD).

    Bookkeeping costs O(1 + affected residents) per move and O(delta +
    affected residents) per state filed or unfiled whole.
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
        # The sid the latest pick handed out, and the states picked but not
        # yet re-added: sid -> history when picked (still filed under it).
        self.picked: int | None = None
        self.in_flight: dict[int, tuple] = {}
        self.topo = Prioritizer((TopologicalSignal(),))

    def bind(self, engine) -> None:
        self.engine = engine
        self.driving.bind(engine)

    def on_seed(self, states) -> None:
        self.driving.on_seed(states)

    # -- bookkeeping ----------------------------------------------------------

    def on_add(self, state: SymState) -> None:
        old = self.in_flight.pop(state.sid, None)
        if old is None:
            self._file(state.sid, state.history)
        elif not self._shift(state.sid, old, state.history):
            self._unfile(state.sid, old)
            self._file(state.sid, state.history)
        self.driving.on_add(state)

    def on_remove(self, state: SymState) -> None:
        if state.sid == self.picked:
            # Stays filed until it comes back or the iteration settles.
            self.picked = None
            self.in_flight[state.sid] = state.history
        else:
            self._unfile(state.sid, state.history)
        self.driving.on_remove(state)

    def settle(self) -> None:
        """End of an iteration: unfile the picked states not re-added."""
        in_flight = self.in_flight
        if in_flight:
            for sid, history in in_flight.items():
                self._unfile(sid, history)
            in_flight.clear()
        self.driving.settle()

    def _file(self, sid: int, history) -> None:
        own: dict[int, int] = {}
        hash_counts = self.hash_counts
        for _, h in history:
            own[h] = own.get(h, 0) + 1
            hash_counts[h] = hash_counts.get(h, 0) + 1
        self.own_counts[sid] = own
        if history:
            self.by_current_hash.setdefault(history[-1][1], set()).add(sid)
        self._reevaluate(own)

    def _unfile(self, sid: int, history) -> None:
        own = self.own_counts.pop(sid, None)
        if own is None:
            return
        hash_counts = self.hash_counts
        for h, count in own.items():
            remaining = hash_counts[h] - count
            if remaining > 0:
                hash_counts[h] = remaining
            else:
                del hash_counts[h]
        if history:
            self._unlist(sid, history[-1][1])
        self.forwarding.discard(sid)
        self._reevaluate(own)

    def _unlist(self, sid: int, current: int) -> None:
        filed = self.by_current_hash[current]
        filed.discard(sid)
        if not filed:
            del self.by_current_hash[current]

    def _shift(self, sid: int, old, new) -> bool:
        """Refile ``sid`` from history ``old`` to ``new`` by the difference,
        if ``new`` is ``old`` plus one entry, cut from the front; False
        (nothing done) otherwise."""
        start = len(old) + 1 - len(new)
        if not new or start < 0 or new[:-1] != old[start:]:
            return False
        own = self.own_counts[sid]
        hash_counts = self.hash_counts
        added = new[-1][1]
        changed = [added]
        for _, h in old[:start]:
            if own[h] > 1:
                own[h] -= 1
            else:
                del own[h]
            if hash_counts[h] > 1:
                hash_counts[h] -= 1
            else:
                del hash_counts[h]
            changed.append(h)
        own[added] = own.get(added, 0) + 1
        hash_counts[added] = hash_counts.get(added, 0) + 1
        if old:
            self._unlist(sid, old[-1][1])
        self.by_current_hash.setdefault(added, set()).add(sid)
        self.forwarding.discard(sid)  # re-evaluated under ``added`` below
        self._reevaluate(changed)
        return True

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
        index = self._choose(worklist, engine)
        self.picked = worklist[index].sid
        return index

    def _choose(self, worklist, engine) -> int:
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

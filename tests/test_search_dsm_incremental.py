"""The maintained forwarding set equals the rescan it replaced.

``DsmStrategy`` keeps Algorithm 2's forwarding set ``F`` up to date inside
``on_add``/``on_remove`` instead of testing every worklist state on every
pick.  Two laws pin that down:

* after *any* interleaving of adds, removes and moves the maintained
  ``F`` is the set the brute-force definition below yields, and the
  by-current-hash index files exactly the resident states that have a
  history — a move being a pick whose state comes back with its history
  shifted by one entry (refiled by the difference), or never comes back
  (unfiled when the iteration settles);
* a whole run driven by the maintained ``F`` picks the same states in the
  same order, and ends with the same tests, coverage and merge counters,
  as a run whose strategy rescans the worklist before every pick.
"""

from collections import Counter

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.engine.state import SymState
from repro.env.runner import run_symbolic
from repro.parallel import ParallelConfig, run_parallel
from repro.search import dsm
from repro.search.dsm import DsmStrategy
from repro.search.strategies import DfsStrategy

CORPUS = ["echo", "cat", "wc", "uniq", "tsort"]
SIMILARITIES = ["qce", "qce-full", "live"]


def in_forwarding_set(strategy: DsmStrategy, state: SymState) -> bool:
    """Algorithm 2's membership test, straight from the definition."""
    if not state.history:
        return False
    current = state.history[-1][1]
    return strategy.hash_counts[current] > strategy.own_counts[state.sid][current]


def check_forwarding_invariants(strategy: DsmStrategy, worklist) -> None:
    assert strategy.forwarding == {
        s.sid for s in worklist if in_forwarding_set(strategy, s)
    }
    filed = [sid for sids in strategy.by_current_hash.values() for sid in sids]
    assert sorted(filed) == sorted(s.sid for s in worklist if s.history)
    for state in worklist:
        if state.history:
            assert state.sid in strategy.by_current_hash[state.history[-1][1]]


# ---------------------------------------------------------------------------
# (a) any interleaving of worklist changes
# ---------------------------------------------------------------------------

# Four hash values over histories of up to delta=4 entries: repeats within
# one history and collisions between states are the common case.
DELTA = 4
LOC = ("main", "b", 0, None)
histories = st.lists(st.integers(0, 3), max_size=DELTA).map(
    lambda hashes: tuple((LOC, h) for h in hashes)
)


class ChosenDsm(DsmStrategy):
    """Picks the worklist index the test drew; the bookkeeping is real."""

    choice = 0

    def _choose(self, worklist, engine) -> int:
        return self.choice


class DsmBooks(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.strategy = ChosenDsm(DfsStrategy(), engine=None)
        self.worklist: list[SymState] = []
        self.next_sid = 0

    def _add(self, sid, history):
        state = SymState(sid)
        state.history = history
        self.worklist.append(state)
        self.strategy.on_add(state)

    def _remove(self, index):
        state = self.worklist.pop(index)
        self.strategy.on_remove(state)
        return state

    @rule(history=histories)
    def add(self, history):
        self.next_sid += 1
        self._add(self.next_sid, history)

    @precondition(lambda self: self.worklist)
    @rule(data=st.data())
    def remove(self, data):
        self._remove(data.draw(st.integers(0, len(self.worklist) - 1)))

    @precondition(lambda self: self.worklist)
    @rule(data=st.data(), history=histories)
    def step_and_readd(self, data, history):
        """A picked state comes back under its old sid with a new history."""
        state = self._remove(data.draw(st.integers(0, len(self.worklist) - 1)))
        self._add(state.sid, history)

    @precondition(lambda self: self.worklist)
    @rule(data=st.data(), h=st.integers(0, 3),
          fate=st.sampled_from(["readd", "merge", "halt", "rewrite"]))
    def move(self, data, h, fate):
        """One engine iteration: pick a resident, shift its history by one
        entry (the oldest dropped at ``DELTA``), then re-add it, merge it
        into another resident, or halt it; the iteration then settles, and
        the invariants below are what the next pick reads.  ``rewrite``
        re-adds it with any history at all, which is refiled whole."""
        strategy = self.strategy
        strategy.choice = data.draw(st.integers(0, len(self.worklist) - 1))
        state = self._remove(strategy.pick(self.worklist, None))
        state.history = (state.history + ((LOC, h),))[-DELTA:]
        if fate == "rewrite":
            state.history = data.draw(histories)
        if fate in ("readd", "rewrite"):
            self.worklist.append(state)
            strategy.on_add(state)
        elif fate == "merge" and self.worklist:
            partner = self._remove(data.draw(st.integers(0, len(self.worklist) - 1)))
            self.next_sid += 1
            self._add(self.next_sid, partner.history)
        strategy.settle()

    @precondition(lambda self: self.worklist)
    @rule(data=st.data())
    def partial_steal(self, data):
        """``Engine.export_frontier``'s work-stealing path."""
        for _ in range(data.draw(st.integers(1, len(self.worklist)))):
            self._remove(self.strategy.steal_pick(self.worklist, None))

    @rule()
    def full_drain(self):
        """``Engine.export_frontier``'s full-drain path."""
        for state in self.worklist:
            self.strategy.on_remove(state)
        self.worklist.clear()
        assert not self.strategy.forwarding and not self.strategy.by_current_hash

    @invariant()
    def forwarding_set_is_the_definition(self):
        strategy = self.strategy
        check_forwarding_invariants(strategy, self.worklist)
        assert set(strategy.own_counts) == {s.sid for s in self.worklist}
        # The ledger, on plain dicts: every resident's share is its history's
        # multiset, the shares add up to ``hash_counts`` key for key, and no
        # entry outlives its last occurrence.
        total = Counter()
        for state in self.worklist:
            own = strategy.own_counts[state.sid]
            assert type(own) is dict and own == Counter(h for _, h in state.history)
            total.update(own)
        assert type(strategy.hash_counts) is dict
        assert strategy.hash_counts == dict(total)
        assert all(n > 0 for n in strategy.hash_counts.values())

    @invariant()
    def steal_victims_avoid_the_forwarding_set(self):
        strategy = self.strategy
        if len(strategy.forwarding) < len(self.worklist):
            victim = self.worklist[strategy.steal_pick(self.worklist, None)]
            assert victim.sid not in strategy.forwarding


DsmBooks.TestCase.settings = settings(max_examples=60, stateful_step_count=30, deadline=None)
test_dsm_books_hold_under_any_interleaving = DsmBooks.TestCase


# ---------------------------------------------------------------------------
# (b) whole runs: maintained F vs a strategy that rescans
# ---------------------------------------------------------------------------

PICKS: list[int] = []


class RecordingDsm(DsmStrategy):
    def pick(self, worklist, engine) -> int:
        index = super().pick(worklist, engine)
        PICKS.append(worklist[index].sid)
        check_forwarding_invariants(self, worklist)
        return index


class RescanningDsm(RecordingDsm):
    """The oracle: ``F`` rebuilt from the definition before every choice."""

    def _rescan(self, worklist) -> None:
        self.forwarding = {s.sid for s in worklist if in_forwarding_set(self, s)}

    def pick(self, worklist, engine) -> int:
        self._rescan(worklist)
        return super().pick(worklist, engine)

    def steal_pick(self, worklist, engine) -> int:
        self._rescan(worklist)
        return super().steal_pick(worklist, engine)


def observed(result, covered):
    stats = result.stats
    return {
        "picks": list(PICKS),
        "tests": Counter(
            (c.kind, c.argv, c.model, c.line, c.multiplicity, c.stdin, c.path_id)
            for c in result.tests.cases
        ),
        "covered": covered,
        "paths": stats.paths_completed,
        "merges": stats.merges,
        "ff_picks": stats.dsm_fastforward_picks,
        "ff_states": stats.dsm_fastforward_states,
        "ff_merges": stats.dsm_ff_merges,
    }


def run_with(monkeypatch, strategy_cls, program, similarity, workers):
    monkeypatch.setattr(dsm, "DsmStrategy", strategy_cls)
    PICKS.clear()
    mode = {"merging": "dynamic", "similarity": similarity, "strategy": "coverage"}
    if workers == 1:
        result = run_symbolic(program, **mode)
        return observed(result, frozenset(result.engine.coverage.covered))
    result = run_parallel(
        program, parallel=ParallelConfig(workers=workers, backend="inline"), **mode
    )
    result.check_ledger()
    return observed(result, frozenset(result.covered))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("similarity", SIMILARITIES)
@pytest.mark.parametrize("program", CORPUS)
def test_run_equals_rescanning_oracle(monkeypatch, program, similarity, workers):
    maintained = run_with(monkeypatch, RecordingDsm, program, similarity, workers)
    oracle = run_with(monkeypatch, RescanningDsm, program, similarity, workers)
    assert maintained["picks"], "the run must go through DsmStrategy.pick"
    assert maintained == oracle

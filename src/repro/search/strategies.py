"""Search strategies (the ``pickNext`` of Algorithm 1).

The engine pops one state per iteration; strategies choose which.  The
``topological`` strategy realizes static state merging's exploration order
(deepest-behind states first, so partners wait at join points); ``coverage``
approximates KLEE's coverage-optimized searcher used in the paper's
incomplete-exploration experiments (§5.3/§5.5).

Since the :mod:`repro.sched` refactor the ranking strategies are thin
adapters over a shared :class:`~repro.sched.Prioritizer` heap: they
declare their signal chain, mirror the engine worklist through the
``on_add``/``on_remove`` hooks, and ``pick`` reduces to one heap
``select`` — the bespoke per-pick O(n·signals) argmin loops are gone.
Signals are scored when a state enters the worklist and again only for
the stale heap minima a pick has to correct; the heap keeps one entry
per group of states that share a key (per ``(func, block)`` for the
coverage chain, whose signals are all location-scoped), so a location
picked over and over costs one rescore per pick, not one per state
waiting there.  One identity scan maps the winner back to its list
index.  Strategies used without an engine binding (direct calls in
tests) still work: the prioritizer falls back to a linear scan over
fresh keys.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter

from ..engine.state import SymState
from ..sched import (
    CorpusNoveltySignal,
    CoverageFrontierSignal,
    PickCountSignal,
    Prioritizer,
    TopologicalSignal,
)


class Strategy:
    """Base class; hooks are no-ops so strategies track only what they need."""

    name = "abstract"
    # Set by ``bind`` at engine construction; prioritized strategies need
    # it to score states inside on_add (the hook carries no engine arg).
    engine = None

    def bind(self, engine) -> None:
        self.engine = engine

    def pick(self, worklist: list[SymState], engine) -> int:
        raise NotImplementedError

    def steal_pick(self, worklist: list[SymState], engine) -> int:
        """Index of the state to hand to a work-stealing peer.

        The default exports the *oldest* worklist entry, which suits
        LIFO-style strategies: under DFS that is the root of the largest
        still-pending subtree, exactly what a thief wants.  Strategies
        whose far frontier lives elsewhere (BFS explores FIFO, so its
        oldest entry is the *next* pick) override this.
        """
        return 0

    def on_seed(self, states: list[SymState]) -> None:
        """Called once per :meth:`Engine.seed_states` batch, before the
        states enter the worklist — the partition-boundary hook that lets
        a strategy reset per-partition state (RandomStrategy reseeds its
        stream from the partition prefix here)."""

    def on_add(self, state: SymState) -> None:
        pass

    def on_remove(self, state: SymState) -> None:
        pass

    def settle(self) -> None:
        """Called at the end of every engine iteration, once the picked
        state's successors have all been added, merged or finalized."""


class PrioritizedStrategy(Strategy):
    """A strategy whose ranking is a :class:`Prioritizer` over signals.

    Subclasses build ``self.sched`` with their signal chain; this base
    supplies the hook plumbing (worklist mirrored into the heap when an
    engine is bound) and the pick/steal adapters.  ``pick`` also flushes
    the scheduler's counters into the engine's ``Stats`` so experiment snapshots
    carry the heap's work (``sched_picks``/``sched_rescores``).
    """

    sched: Prioritizer

    def on_add(self, state: SymState) -> None:
        if self.engine is not None:
            self.sched.add(state, self.engine)

    def on_remove(self, state: SymState) -> None:
        self.sched.remove(state)

    def pick(self, worklist, engine) -> int:
        index = self.sched.select(worklist, engine)
        engine.stats.sched_picks += 1
        engine.stats.sched_rescores += self.sched.take_rescores()
        return index


class DfsStrategy(Strategy):
    name = "dfs"

    def pick(self, worklist, engine) -> int:
        return len(worklist) - 1


class BfsStrategy(Strategy):
    name = "bfs"

    def pick(self, worklist, engine) -> int:
        return 0

    def steal_pick(self, worklist, engine) -> int:
        # FIFO exploration: index 0 is the *next* pick, so the far
        # frontier — what a thief should take — is the newest entry.
        return len(worklist) - 1


class RandomStrategy(Strategy):
    """Uniform random pick, reproducible per partition prefix.

    The stream is reseeded at every ``seed_states`` boundary from the
    base seed plus the seeded states' path prefixes (their name-sensitive
    ``named_key`` digests — stable across processes).  Exploration *within*
    a partition is therefore a pure function of (seed, prefix), not of
    which worker ran it or in what order partitions arrived, which is the
    same mechanism (and guarantee) test generation's history-free solve
    (:func:`repro.engine.testgen.deterministic_model`) uses for test
    content.
    """

    name = "random"

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.rng = random.Random(seed)

    def on_seed(self, states) -> None:
        digest = hashlib.sha256(str(self.seed).encode())
        for state in states:
            if state.pc:
                from ..expr.canon import named_key  # local: avoid cycle

                digest.update(named_key(list(state.pc)).encode())
            else:
                digest.update(b"<root>")
        self.rng = random.Random(int.from_bytes(digest.digest()[:8], "big"))

    def pick(self, worklist, engine) -> int:
        return self.rng.randrange(len(worklist))


class CoverageStrategy(PrioritizedStrategy):
    """Prefer states about to execute uncovered code; de-prioritize rework.

    Signal chain (see :mod:`repro.sched`): run-coverage frontier first,
    then corpus novelty (blocks no stored test ever covered — neutral
    without a store), then the per-location pick count, with a seeded
    random tiebreak frozen per heap entry.
    """

    name = "coverage"

    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)
        self.pick_counts: Counter = Counter()
        self.sched = Prioritizer(
            (
                CoverageFrontierSignal(),
                CorpusNoveltySignal(),
                PickCountSignal(self.pick_counts),
            ),
            rng=self.rng,
        )

    def pick(self, worklist, engine) -> int:
        index = super().pick(worklist, engine)
        frame = worklist[index].top
        self.pick_counts[(frame.func, frame.block)] += 1
        return index


class TopologicalStrategy(PrioritizedStrategy):
    """Explore in CFG topological order (static state merging's order).

    Deeper call stacks first (finish callees before their callers resume),
    then smallest reverse-postorder index of the current block — so states
    that are 'behind' catch up and everyone meets at join points.
    """

    name = "topological"

    def __init__(self):
        self.sched = Prioritizer((TopologicalSignal(),))

    def steal_pick(self, worklist, engine) -> int:
        # Export the topologically *last* state: it is the farthest from
        # any pending join, so removing it perturbs merging the least.
        return self.sched.select_worst(worklist, engine)


def topological_key(state: SymState, engine) -> tuple:
    frame = state.top
    rpo = engine.rpo_index(frame.func)
    return (
        -len(state.frames),
        rpo.get(frame.block, 1 << 30),
        frame.idx,
        state.generation,
        state.sid,
    )


def make_strategy(name: str, seed: int = 0) -> Strategy:
    """Factory used by the engine config."""
    if name == "dfs":
        return DfsStrategy()
    if name == "bfs":
        return BfsStrategy()
    if name == "random":
        return RandomStrategy(seed)
    if name == "coverage":
        return CoverageStrategy(seed)
    if name == "topological":
        return TopologicalStrategy()
    raise ValueError(f"unknown strategy {name!r}")

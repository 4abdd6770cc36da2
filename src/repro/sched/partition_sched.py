"""Priority dispatch of path-prefix partitions (the parallel side).

:class:`PartitionScheduler` is the coordinator-local priority heap over
undispatched :class:`~repro.parallel.partition.Partition` rows; it reads
their scheduling fields (``func``, ``block``, ``prefix_len``, ``pid``),
never the snapshot.  The
campaign keeps one lease in flight per worker, so the *next* partition
handed out is always the current best-scored one — including partitions
that arrive late via work stealing or a requeue.

The dispatch score (``corpus`` policy, lexicographic, lower first):

1. **corpus novelty** — partitions whose root block no stored test has
   ever covered first (the warm store's uncovered-block evidence: the
   cheapest route to coverage the whole system has never seen);
2. **prefix depth, shallowest first** — within a novelty class a
   shallow prefix roots the larger subtree, so it starts earlier;
3. the partition id, as the deterministic final tie.

Signals (2)–(3) are deliberately aligned with split order (under a DFS
split the oldest exported state is the shallowest), so when the corpus
has no discriminating evidence the policy degrades to FIFO instead of
to an arbitrary permutation — corpus guidance can only help, never
scramble.  The ``fifo`` policy scores by pid alone — exactly the old
behavior, kept as the ablation baseline
(``experiments.figures.sched_ablation``).

Victim selection for work stealing uses the same signals plus the **QCE
load** estimate (:meth:`~repro.qce.qce.QceAnalysis.qt_table`, heaviest
first): :meth:`pick_victim` targets the busy worker running the most
novel, heaviest, shallowest partition — the subtree with the most
remaining work, i.e. the one whose frontier is most worth splitting
across idle workers.  Victim choice only decides *who exports* frontier
states, never the explored path space, so the load heuristic is free to
be aggressive here while dispatch order stays FIFO-aligned.
"""

from __future__ import annotations

import copy
import heapq

from .prioritizer import _qt_bucket

# Bounds for the adaptive split fan-out.  The floor keeps at least a
# couple of partitions per worker (work stealing needs slack); the cap
# bounds split-phase cost — snapshot bytes scale with frontier size.
FACTOR_BASE = 4
FACTOR_MIN = 2
FACTOR_MAX = 16


def partition_score(part, corpus_covered: frozenset, policy: str = "corpus") -> tuple:
    """Comparable dispatch score for one partition (lower runs sooner)."""
    if policy == "fifo":
        return (part.pid,)
    # Novel only when the store has evidence at all: an empty corpus
    # makes every root "novel", which must mean FIFO, not a shuffle.
    loc = (part.func, part.block)
    novelty = 0 if corpus_covered and loc not in corpus_covered else 1
    return (novelty, part.prefix_len, part.pid)


class PartitionScheduler:
    """Coordinator-local priority queue over undispatched partitions."""

    def __init__(
        self,
        corpus_covered=frozenset(),
        qt_table=None,
        policy: str = "corpus",
    ):
        """``qt_table`` may be the dict itself or a zero-arg callable
        producing it — the callable is resolved only when a steal-victim
        choice first has two candidates to rank by load, so runs that
        never steal (the inline backend, steal-free process runs) and
        runs with one possible victim (always, at two workers) never pay
        for the QCE analysis behind it."""
        if policy not in ("corpus", "fifo"):
            raise ValueError(f"unknown dispatch policy {policy!r}")
        self.corpus_covered = frozenset(corpus_covered)
        self._qt = qt_table
        self.policy = policy
        self._heap: list[tuple[tuple, int, object]] = []
        self._seq = 0

    @property
    def qt_table(self) -> dict:
        if callable(self._qt):
            self._qt = self._qt() or {}
        return self._qt or {}

    def score(self, part) -> tuple:
        return partition_score(part, self.corpus_covered, self.policy)

    def push(self, part) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (self.score(part), self._seq, part))

    def pop(self):
        """Best-scored pending partition, or None when drained."""
        if not self._heap:
            return None
        return heapq.heappop(self._heap)[2]

    def order(self, parts) -> list:
        """All partitions in dispatch order (the inline backend's plan)."""
        for part in parts:
            self.push(part)
        ordered = []
        while self._heap:
            ordered.append(self.pop())
        return ordered

    def victim_score(self, part) -> tuple:
        """Steal-target desirability of a *running* partition (lower =
        steal from it first): novel, then QCE-heaviest, then shallowest.

        The load term lives here and not in :meth:`score` on purpose —
        victim choice only decides who exports frontier states (any
        choice is sound), while dispatch order must degrade to FIFO when
        evidence ties, which a load term would scramble.
        """
        if self.policy == "fifo":
            return (part.pid,)
        dispatch = partition_score(part, self.corpus_covered, self.policy)
        load = _qt_bucket(self.qt_table.get((part.func, part.block), 0.0))
        return (dispatch[0], -load, *dispatch[1:])

    def pick_victim(self, running: dict[int, object]) -> int:
        """Which busy worker to steal from: wid -> its running partition.

        The best victim-scored running partition marks the subtree most
        worth splitting (novel, heavy, shallow = large remaining
        frontier).  Ties (and the fifo policy) fall back to the lowest
        worker id, which is the pre-scheduler behavior.
        """
        if not running:
            raise ValueError("pick_victim with no busy workers")
        if len(running) == 1:
            # Nothing to rank — and ranking would resolve the lazy Qt
            # table, i.e. run the whole QCE analysis on the coordinator.
            return next(iter(running))
        return min(running, key=lambda wid: (self.victim_score(running[wid]), wid))

    def pending(self) -> list:
        """Undispatched partitions in dispatch order, without draining.

        Campaign checkpoints enumerate the queue through this — the heap
        stays intact, and the deterministic order keeps checkpoint
        records byte-stable for identical queue states.
        """
        return [item[2] for item in sorted(self._heap, key=lambda it: (it[0], it[1]))]

    def fork(self) -> "PartitionScheduler":
        """An independent queue holding the same partitions under the
        same policy and signals — a checkpoint folds leases into one
        without disturbing the live queue."""
        twin = copy.copy(self)
        twin._heap = list(self._heap)
        return twin

    def __len__(self) -> int:
        return len(self._heap)


def adaptive_partition_factor(store, program: str, base: int = FACTOR_BASE) -> int:
    """Split fan-out from the worker imbalance previous runs recorded.

    A balanced previous run (imbalance ~1.0) keeps the base factor; an
    imbalanced one (one worker did N× the mean path work) scales the
    fan-out up so the next run has more, smaller partitions to level
    with.  Without a store — or before any parallel run recorded an
    imbalance — the base factor is returned, which is exactly the old
    fixed default.
    """
    imbalance = None
    if store is not None:
        try:
            imbalance = store.last_parallel_imbalance(program)
        except Exception:
            imbalance = None
    if not imbalance or imbalance <= 0.0:
        return base
    return max(FACTOR_MIN, min(FACTOR_MAX, round(base * imbalance)))

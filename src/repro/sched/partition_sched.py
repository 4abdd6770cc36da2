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
behavior, kept as the baseline the ``sched`` figure reports against and
``tests/test_figure_laws.py`` holds corpus dispatch to.

Victim selection for work stealing ranks by the same key:
:meth:`pick_victim` targets the busy worker running the best-scored
partition — a novel, shallow root, i.e. the subtree whose frontier is
most worth splitting across idle workers.  Victim choice only decides
*who exports* frontier states, never the explored path space.
"""

from __future__ import annotations

import copy
import heapq


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

    def __init__(self, corpus_covered=frozenset(), policy: str = "corpus"):
        if policy not in ("corpus", "fifo"):
            raise ValueError(f"unknown dispatch policy {policy!r}")
        self.corpus_covered = frozenset(corpus_covered)
        self.policy = policy
        self._heap: list[tuple[tuple, int, object]] = []
        self._seq = 0

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

    def pick_victim(self, running: dict[int, object]) -> int:
        """Which busy worker to steal from: wid -> its running partition.

        The best-scored running partition marks the subtree most worth
        splitting (novel, shallow = large remaining frontier); ties go
        to the lowest worker id.
        """
        if not running:
            raise ValueError("pick_victim with no busy workers")
        return min(running, key=lambda wid: (self.score(running[wid]), wid))

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


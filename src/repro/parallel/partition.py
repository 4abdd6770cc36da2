"""Path-prefix partitions of the symbolic search space.

A :class:`Partition` is one unit of distributable work: a serialized
:class:`~repro.engine.state.SymState` whose path condition is the
*prefix* constraining the subtree it roots, plus bookkeeping about where
it came from.  Partitions are produced two ways:

* the coordinator's **split phase** — a bounded sequential exploration
  whose frontier becomes the initial partition set;
* **work stealing** — a busy worker exports part of its frontier, and
  each exported state is re-wrapped as a fresh partition.

Invariant (partition disjointness): at any instant, the path conditions
of all outstanding partitions plus all worker-local worklist states
describe pairwise-disjoint sets of concrete inputs.  Forking splits a
state's input set, merging unions sets that were disjoint, and shipping
a state moves it without changing its set — so the invariant is
maintained by construction, and no path is ever explored twice.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine.state import SymState


@dataclass(frozen=True)
class Partition:
    """One shippable subtree of the path space.

    The fields, in this order, *are* the partition's row — what a
    ``MSG_STOLEN`` entry and a ``CampaignRecord.pending`` entry hold:
    ``dataclasses.astuple(part)`` writes one, ``Partition(*row)`` reads
    it back.  Besides the snapshot the row carries the *scheduling
    metadata* the dispatcher scores (:mod:`repro.sched`): the root
    state's location, call-stack depth and path-prefix length, taken by
    :meth:`from_state` where the live state exists — at split time on
    the coordinator, or on the worker before a stolen state is
    serialized — so the snapshot is never decoded just to rank it.
    """

    # Assigned by the coordinator.  A row a worker exports carries the
    # pid of the partition it was split off, until it gets its own.
    pid: int
    snapshot: bytes
    # Provenance: "split" for the coordinator's initial frontier,
    # "steal:<worker_id>" for states a busy worker exported,
    # "requeue:<worker_id>" for work recovered from a revoked lease.
    origin: str
    prefix_len: int  # |pc| of the serialized state: the path-prefix depth
    func: str
    block: str
    depth: int  # call-stack depth

    @classmethod
    def from_state(cls, pid: int, state: SymState, origin: str) -> "Partition":
        frame = state.top
        return cls(
            pid=pid,
            snapshot=state.snapshot(),
            origin=origin,
            prefix_len=len(state.pc),
            func=frame.func,
            block=frame.block,
            depth=len(state.frames),
        )

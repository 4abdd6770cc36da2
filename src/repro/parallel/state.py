"""The campaign state machine: events in, actions out, no I/O inside.

:class:`CampaignState` is everything the distributed worklist knows
between two messages.  Its durable half **is** the campaign's
:class:`~repro.campaign.record.CampaignRecord` (``state.rec``): accepted
tests, coverage, streamed paths, the per-partition completion log, the
requeue log and poison counts, the pid/steal/loss counters and one
ledger entry per worker holding the sum of its accepted stats deltas.
The volatile half is the lease table (who explores which partition, and
the last steal checkpoint of it), the scheduler queue and the steal
bookkeeping — exactly what a crash loses and a resume rebuilds.

The coordinator's select loop is the I/O shell around it: it feeds the
state one event at a time — :meth:`begin`, :meth:`on_message` (start /
done / stolen / stats), :meth:`on_death`, :meth:`stop` — and performs
the actions the state returns, in order::

    (SEND_TASK, wid, msg)   (SEND_CMD, wid, msg)   (FENCE, wid)
    (CHECKPOINT, phase)

There is no socket, clock or store in here, so any interleaving of
events can be replayed (``tests/test_campaign_state.py`` generates them).

**One fold.**  :meth:`revoke` is the only place a lease turns back into
pending work: the partition's last steal checkpoint, if any, splits it
into accepted interim results plus the retained frontier; without one
the whole snapshot goes back.  A worker death applies it to the live
state and charges the partition (poison guard).  A checkpoint
(:meth:`to_record`) applies it, uncharged, to every lease of a *copy* —
the live leases stay leased — so a resumed campaign behaves as if every
outstanding worker had died at the instant of the crash, which is
exactly what a coordinator SIGKILL makes true.  A coordinator crash is
not the partition's fault, hence no charge.  Resume is the inverse:
:meth:`from_record` makes a loaded record the state.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass

from ..campaign.record import CampaignRecord
from ..stats import Stats
from .partition import Partition
from .wire import (
    CMD_STEAL,
    MSG_DONE,
    MSG_START,
    MSG_STATS,
    MSG_STOLEN,
    TASK_PARTITION,
    TASK_STOP,
)

SEND_TASK = "task"
SEND_CMD = "cmd"
FENCE = "fence"
CHECKPOINT = "checkpoint"


@dataclass
class Lease:
    """One dispatched partition, owned by one worker until it reports
    done or is revoked."""

    part: Partition
    started: bool = False
    # (retained frontier, interim results) of the latest steal reply: the
    # partition donated states to thieves, so its original snapshot no
    # longer describes the remaining work.
    residual: tuple | None = None


class CampaignState:
    """State of one partitioned exploration (see module docstring)."""

    def __init__(
        self,
        rec: CampaignRecord,
        sched=None,
        max_requeues: int = 3,
        checkpoint_every: int = 1,
        steal: bool = True,
    ):
        self.rec = rec
        # The PartitionScheduler queue; the coordinator attaches it once
        # the engine that owns its corpus signal exists.
        self.sched = sched
        self.max_requeues = max_requeues
        self.checkpoint_every = checkpoint_every
        self.steal = steal
        self.workers: list[int] = []  # this fleet's ids, ledger order
        self.leases: dict[int, Lease] = {}  # wid -> its in-flight lease
        self.fenced: dict[int, str] = {}  # wid -> death reason
        # wid -> index of its ledger entry in rec.worker_entries, and the
        # cumulative snapshot its last accepted delta was computed against.
        self._entry: dict[int, int] = {}
        self._last_cum: dict[int, Stats] = {}
        self.steal_inflight: set[int] = set()
        # Workers whose last steal reply was empty: their frontier is too
        # thin to split, so don't ping them again until they make progress
        # (start or finish a partition) — prevents a request/empty-reply
        # storm against a worker grinding one deep linear path.
        self.steal_dry: set[int] = set()
        # wid -> buffered store inserts from its final stats message.
        self.payloads: dict[int, dict | None] = {}
        self.completions = 0  # accepted MSG_DONEs (checkpoint_every cadence)

    @classmethod
    def from_record(cls, rec: CampaignRecord, **knobs) -> "CampaignState":
        """Resume: the loaded record is the state.

        Completed partitions stay completed; ``rec.pending`` rejoins the
        queue when the new fleet begins.  Prior fleets keep their ledger
        identity, tagged with the epoch their deltas were restored from
        (exactly once — a twice-resumed campaign keeps earlier tags).
        """
        rec.worker_entries = [
            (name if "@e" in name else f"{name}@e{rec.epoch}", stats)
            for name, stats in rec.worker_entries
        ]
        return cls(rec, **knobs)

    # -- queries ---------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Partitions not yet accepted: queued or leased."""
        return len(self.sched) + len(self.leases)

    def alive(self) -> list[int]:
        return [w for w in self.workers if w not in self.fenced]

    def unacked(self) -> list[int]:
        """Live workers whose final stats message has not arrived."""
        return [w for w in self.alive() if w not in self.payloads]

    # -- partitions ------------------------------------------------------------

    def alloc_pid(self) -> int:
        pid = self.rec.next_pid
        self.rec.next_pid += 1
        return pid

    def push(self, part: Partition) -> None:
        self.sched.push(part)

    def accept(self, part: Partition, tests, covered, paths: int) -> None:
        """Merge one partition's (possibly interim) results — the only
        way anything enters the campaign's output."""
        rec = self.rec
        rec.tests.extend(tests)
        rec.covered.update(covered)
        rec.streamed_paths += paths
        rec.partition_results.append((part.pid, part.origin, paths, covered))

    def _credit(self, wid: int, stats: Stats) -> None:
        """Add the work between ``wid``'s last accepted cumulative
        snapshot and this one to its ledger entry.  A worker's entry is
        thus the sum of its accepted per-partition deltas: work on a
        revoked lease is excluded by construction."""
        entries, i = self.rec.worker_entries, self._entry[wid]
        name, total = entries[i]
        entries[i] = (name, Stats.merged((total, stats.delta(self._last_cum.get(wid)))))
        self._last_cum[wid] = stats

    # -- events ----------------------------------------------------------------

    def begin(self, worker_ids) -> list:
        """A fresh fleet takes over: rows a loaded record held pending
        join the queue, every worker gets a ledger entry (a worker that
        never has anything accepted still shows up, at zero)."""
        rec = self.rec
        for row in rec.pending:
            self.push(Partition(*row))
        rec.pending = []
        self.workers = sorted(worker_ids)
        for wid in self.workers:
            self._entry[wid] = len(rec.worker_entries)
            rec.worker_entries.append((f"worker-{wid}", Stats.merged(())))
        return self._dispatch()

    def on_message(self, msg) -> list | None:
        """Fold one worker message in.  Returns the actions to perform,
        or None when the message was discarded: anything a fenced worker
        still delivers, or a start/done for a lease its sender no longer
        holds, belongs to a revoked lease — never double-counted."""
        kind, wid = msg[0], msg[1]
        if wid in self.fenced:
            return None
        lease = self.leases.get(wid)
        actions: list = []
        if kind == MSG_START:
            if lease is None or lease.part.pid != msg[2]:
                return None
            lease.started = True
            self.steal_dry.discard(wid)
        elif kind == MSG_DONE:
            _, _, pid, tests, covered, paths, stats = msg
            if lease is None or lease.part.pid != pid:
                return None
            del self.leases[wid]
            self.steal_inflight.discard(wid)
            self.steal_dry.discard(wid)
            self.accept(lease.part, tests, covered, paths)
            self._credit(wid, stats)
            self.completions += 1
            if self.completions % self.checkpoint_every == 0:
                actions.append((CHECKPOINT, "dispatch"))
        elif kind == MSG_STOLEN:
            _, _, stolen, retained, interim = msg
            self.steal_inflight.discard(wid)
            if lease is None:
                return None
            lease.residual = (retained, interim)
            for row in stolen:
                self.push(dataclasses.replace(Partition(*row), pid=self.alloc_pid()))
            if stolen:
                self.rec.steals += 1
                actions.append((CHECKPOINT, "steal"))
            else:
                self.steal_dry.add(wid)
        elif kind == MSG_STATS:
            self.payloads[wid] = msg[3]
        return actions + self._dispatch() + self._rebalance()

    def on_death(self, wid: int, reason: str) -> list:
        """A worker is gone (EOF, signal, missed heartbeats): fence it
        and put its lease, if it held one, back in the queue."""
        if wid in self.fenced:
            return []
        self.fenced[wid] = reason
        self.rec.workers_lost += 1
        self.steal_inflight.discard(wid)
        self.steal_dry.discard(wid)
        actions: list = [(FENCE, wid)]
        if wid in self.leases:
            self.revoke(wid, charge=True)
            actions.append((CHECKPOINT, "requeue"))
        return actions + self._dispatch()

    def stop(self) -> list:
        """Drain: every surviving worker is told to ship its final stats
        message (it carries the worker's buffered store inserts)."""
        return [(SEND_TASK, wid, (TASK_STOP,)) for wid in self.unacked()]

    # -- the lease fold --------------------------------------------------------

    def revoke(self, wid: int, charge: bool) -> None:
        """Turn ``wid``'s lease back into pending work (module docstring).

        ``charge`` counts the revocation against the partition: past
        ``max_requeues`` it is presumed poison — it kills every owner —
        and dropped with a named log entry instead of cycling forever;
        the campaign completes with a clean ledger for the survivors (the
        dropped subtree contributes no paths, like an exhausted budget).
        The count follows the partition's descendants.
        """
        rec = self.rec
        lease = self.leases.pop(wid)
        part = lease.part
        count = rec.requeue_counts.get(part.pid, 0) + int(charge)
        if lease.residual is not None:
            # Recover from the last steal checkpoint: accept the interim
            # results (paths completed before the boundary); exactly the
            # frontier the victim had retained is what remains.
            retained, (tests, covered, paths, stats) = lease.residual
            self.accept(part, tests, covered, paths)
            self._credit(wid, stats)
        if count > self.max_requeues:
            rec.requeue_log.append({
                "kind": "dropped",
                "pid": part.pid,
                "origin": part.origin,
                "worker": wid,
                "revocations": count,
                "reason": (
                    f"lease revoked {count} times, more than "
                    f"max_partition_requeues={self.max_requeues}; "
                    "partition presumed poison"
                ),
            })
            return
        if lease.residual is not None:
            rest = [
                dataclasses.replace(Partition(*row), pid=self.alloc_pid())
                for row in retained
            ]
        elif charge:
            rest = [dataclasses.replace(
                part, pid=self.alloc_pid(), origin=f"requeue:{wid}"
            )]
        else:
            rest = [part]
        for child in rest:
            if count:
                rec.requeue_counts[child.pid] = count
            if charge:
                rec.requeue_log.append({
                    "kind": "requeue",
                    "pid": child.pid,
                    "source_pid": part.pid,
                    "worker": wid,
                    "origin": child.origin,
                })
            self.push(child)

    def to_record(self, phase: str) -> CampaignRecord:
        """The campaign as a resume would have to find it right now:
        a copy of the durable half with every lease of the copy folded
        back to pending.  The live state is not touched."""
        snap = copy.copy(self)
        for name, value in vars(self).items():
            if isinstance(value, (dict, set, list)):
                setattr(snap, name, copy.copy(value))
        snap.rec = self.rec.copy()
        snap.sched = self.sched.fork()
        for wid in list(snap.leases):
            snap.revoke(wid, charge=False)
        rec = snap.rec
        rec.phase = phase
        rec.pending += [dataclasses.astuple(p) for p in snap.sched.pending()]
        return rec

    # -- decisions -------------------------------------------------------------

    def _dispatch(self) -> list:
        """One lease in flight per worker; every hand-out is the
        scheduler's current best."""
        actions = []
        for wid in self.alive():
            if wid in self.leases or not len(self.sched):
                continue
            part = self.sched.pop()
            self.leases[wid] = Lease(part)
            actions.append((SEND_TASK, wid, (TASK_PARTITION, part.pid, part.snapshot)))
        return actions

    def _rebalance(self) -> list:
        """Everything is dispatched, someone is idle, someone is busy:
        steal from the worker running the best-scored partition — the
        most novel, shallowest subtree, whose frontier is most worth
        splitting across the idle workers."""
        if not self.steal or len(self.sched) or not self.leases:
            return []
        eligible = {
            wid: lease.part
            for wid, lease in self.leases.items()
            if lease.started
            and wid not in self.steal_inflight
            and wid not in self.steal_dry
        }
        if not eligible or all(wid in self.leases for wid in self.alive()):
            return []
        victim = self.sched.pick_victim(eligible)
        self.steal_inflight.add(victim)
        # Tagged with the partition it targets, so the worker can discard
        # a request that arrives late.
        return [(SEND_CMD, victim, (CMD_STEAL, eligible[victim].pid))]

"""Wire protocol between the coordinator and its workers.

Every frame is one :mod:`repro.codec` payload; the codec's format
version is the protocol's, so a worker of another build fails the
handshake by name.  Messages are tagged tuples, and each direction's
vocabulary is one schema below — a frame that decodes to anything else
is a :class:`~repro.codec.DecodeError`, and its sender is fenced:

Handshake (every worker, whether it dialed the coordinator or inherited
one end of a socketpair from it):
    (MSG_HELLO, meta)                   — worker -> coordinator on
        connect; ``meta`` carries the worker's os pid/host so the
        coordinator can target chaos/kill injection at local workers.
    (MSG_WELCOME, worker_id, program, spec, config)
                                        — coordinator's accept reply;
        assigns the worker id and ships the campaign's
        :class:`ArgvSpec` and :class:`EngineConfig`.
    (MSG_REJECT, reason)                — handshake refusal (a frame of
        another format version, not a HELLO); the connection closes
        after it.

Coordinator -> worker (task channel):
    (TASK_PARTITION, partition_id, snapshot_bytes)
    (TASK_STOP,)

Coordinator -> worker (command channel, out of band):
    (CMD_STEAL, partition_id) — export part of your frontier at the next
    boundary; the tag lets a worker discard requests that arrive after
    the targeted partition already finished.

Worker -> coordinator (result channel):
    (MSG_START, worker_id, partition_id)            — began a partition
    (MSG_DONE, worker_id, partition_id, tests, covered, paths, stats)
        — partition finished; ``stats`` is a *cumulative* snapshot of
          the worker's :class:`~repro.stats.Stats` record taken at this
          quiescent point.  The lease layer differences consecutive
          snapshots to attribute exactly the accepted work to the
          worker, so a revoked partition's partial counters are
          discarded rather than double-counted.
    (MSG_STOLEN, worker_id, stolen, retained, interim) — reply to
        CMD_STEAL.  ``stolen`` is a list (may be empty) of
        :class:`~repro.parallel.partition.Partition` rows — the fields
        in order, ``Partition(*row)`` — filed under the pid of the
        partition they were split off; the coordinator gives each its
        own.  ``retained`` is the same encoding of the *kept* frontier —
        a checkpoint of the victim's remaining work — and ``interim`` is
        (tests, covered, paths, stats) for the partition so far.  If the
        victim's lease is later revoked, the coordinator accepts the
        interim results and requeues the retained checkpoint, so
        pre-steal paths are neither lost nor re-run.
    (MSG_HEARTBEAT, worker_id) — liveness beacon, sent by a worker-side
        timer thread; filtered out by the transport (refreshes the lease
        deadline, never reaches the event loop).
    (MSG_STATS, worker_id, stats, store_payload)
        — final, pre-exit; ``store_payload`` is the worker's buffered
          persistent-store inserts (named-key constraint rows + UNSAT
          cores) or None.  Workers open the store read-only: the
          split engine's commit applies these payloads.
          (The stats are informational: a worker's ledger entry is the
          sum of its accepted per-partition deltas.)
    (MSG_ERROR, worker_id, traceback_text)
"""

from __future__ import annotations

from typing import Literal, Optional

from ..engine.executor import EngineConfig
from ..engine.testgen import TestCase
from ..env.argv import ArgvSpec
from ..stats import Stats

TASK_PARTITION = "part"
TASK_STOP = "stop"

CMD_STEAL = "steal"

MSG_HELLO = "hello"
MSG_WELCOME = "welcome"
MSG_REJECT = "reject"
MSG_HEARTBEAT = "hb"

MSG_START = "start"
MSG_DONE = "done"
MSG_STOLEN = "stolen"
MSG_STATS = "stats"
MSG_ERROR = "error"

# A Partition row: pid, snapshot, origin, prefix length, func, block, depth.
ROW = tuple[int, bytes, str, int, str, str, int]
# A worker's buffered store inserts, if it has a store: named, so that a
# storeless coordinator does not import the store (and SQLite) for it.
STORE_PAYLOAD = Optional["repro.store.tier.StorePayload"]
# New tests, newly covered blocks, completed paths, cumulative stats.
RESULTS = tuple[list[TestCase], set[tuple[str, str]], int, Stats]

HELLO = tuple[Literal[MSG_HELLO], dict[str, int | str]]
HANDSHAKE_REPLY = (
    tuple[Literal[MSG_WELCOME], int, str, ArgvSpec, EngineConfig]
    | tuple[Literal[MSG_REJECT], str]
)
TO_WORKER = (
    tuple[Literal[TASK_PARTITION], int, bytes]
    | tuple[Literal[TASK_STOP]]
    | tuple[Literal[CMD_STEAL], int]
)
FROM_WORKER = (
    tuple[Literal[MSG_START], int, int]
    | tuple[Literal[MSG_DONE], int, int, list[TestCase], set[tuple[str, str]], int,
            Stats]
    | tuple[Literal[MSG_STOLEN], int, list[ROW], list[ROW], RESULTS]
    | tuple[Literal[MSG_HEARTBEAT], int]
    | tuple[Literal[MSG_STATS], int, Stats, STORE_PAYLOAD]
    | tuple[Literal[MSG_ERROR], int, str]
)


class ProtocolMismatchError(RuntimeError):
    """Coordinator and worker speak different wire-protocol versions.

    Raised instead of whatever a version-skewed frame would break deep
    inside a worker: once workers run on other hosts (and other
    checkouts), a clear handshake failure is the difference between a
    fixable deployment error and a cryptic crash.
    """

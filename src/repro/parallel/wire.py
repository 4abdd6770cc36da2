"""Wire protocol between the coordinator and its workers.

Everything crossing a process (or host) boundary is plain picklable
data: snapshot bytes (:meth:`SymState.snapshot`), :class:`TestCase`
tuples, stats dataclasses of numbers, and the config payloads below.
Messages are tagged tuples; the tag vocabulary is:

Handshake (every worker, whether it dialed the coordinator or inherited
one end of a socketpair from it):
    (MSG_HELLO, WIRE_VERSION, meta)     — worker -> coordinator on
        connect; ``meta`` carries the worker's os pid/host so the
        coordinator can target chaos/kill injection at local workers.
    (MSG_WELCOME, worker_id, WIRE_VERSION, program, spec_payload,
        config_payload)                 — coordinator's accept reply;
        assigns the worker id and ships the campaign description.
    (MSG_REJECT, reason)                — handshake refusal (version
        skew, campaign full); the connection closes after it.

Coordinator -> worker (task channel):
    (TASK_PARTITION, partition_id, snapshot_bytes)
    (TASK_STOP,)

Coordinator -> worker (command channel, out of band):
    (CMD_STEAL, partition_id) — export part of your frontier at the next
    boundary; the tag lets a worker discard requests that arrive after
    the targeted partition already finished.

Worker -> coordinator (result channel):
    (MSG_START, worker_id, partition_id)            — began a partition
    (MSG_DONE, worker_id, partition_id, tests, covered, paths,
        engine_stats, solver_stats)
        — partition finished; ``engine_stats``/``solver_stats`` are
          *cumulative* snapshots of the worker's ledgers taken at this
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
        (tests, covered, paths, engine_stats, solver_stats) for the
        partition so far.  If the victim's lease is later revoked, the
        coordinator accepts the interim results and requeues the
        retained checkpoint, so pre-steal paths are neither lost nor
        re-run.
    (MSG_HEARTBEAT, worker_id) — liveness beacon, sent by a worker-side
        timer thread; filtered out by the transport (refreshes the lease
        deadline, never reaches the event loop).
    (MSG_STATS, worker_id, EngineStats, SolverStats, store_payload)
        — final, pre-exit; ``store_payload`` is the worker's buffered
          persistent-store inserts (canonical constraint rows + UNSAT
          cores) or None.  Workers open the store read-only: the
          split engine's commit applies these payloads.
          (The stats are informational: a worker's ledger entry is the
          sum of its accepted per-partition deltas.)
    (MSG_ERROR, worker_id, traceback_text)
"""

from __future__ import annotations

import dataclasses

from ..engine.executor import EngineConfig
from ..expr.serialize import decode_exprs, encode_exprs
from ..qce.qce import QceParams

# Protocol generation.  Bumped whenever a message shape or the config
# payload changes incompatibly; both handshake and config decoding check
# it, so a stale remote worker fails with a named error instead of a
# bare TypeError deep inside EngineConfig(**payload).
#   v1 — PR 2's fork-only protocol (implicit, unstamped)
#   v2 — HELLO/WELCOME/HEARTBEAT, stats snapshots in MSG_DONE, steal
#        replies carrying retained checkpoints + interim results
#   v3 — EngineStats without its solver_* mirrors; config payload without
#        solver_incremental / testgen_deterministic / warm_start /
#        max_queries
#   v4 — MSG_STOLEN entries are Partition rows instead of
#        (snapshot, meta dict) pairs
WIRE_VERSION = 4

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


class ProtocolMismatchError(RuntimeError):
    """Coordinator and worker speak different wire-protocol versions.

    Raised instead of the bare ``TypeError`` that version-skewed config
    payloads used to die with: once workers run on other hosts (and
    other checkouts), a clear handshake failure is the difference
    between a fixable deployment error and a cryptic crash.
    """


def check_wire_version(seen: object, context: str) -> None:
    """Raise :class:`ProtocolMismatchError` unless ``seen`` matches."""
    if seen != WIRE_VERSION:
        raise ProtocolMismatchError(
            f"wire protocol mismatch in {context}: peer speaks "
            f"{seen!r}, this side speaks {WIRE_VERSION} — "
            "coordinator and workers must run the same repro version"
        )


def encode_config(config: EngineConfig) -> dict:
    """Flatten an :class:`EngineConfig` to picklable data.

    The payload is stamped with :data:`WIRE_VERSION` so the decoding
    side can reject version skew by name.  The ``preconditions`` tuple
    holds interned expressions, which cannot cross process boundaries
    directly; they ride the expression codec.
    """
    payload = {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}
    payload["qce_params"] = dataclasses.asdict(config.qce_params)
    nodes, roots = encode_exprs(list(payload.pop("preconditions")))
    payload["preconditions_encoded"] = (nodes, roots)
    payload["wire_version"] = WIRE_VERSION
    return payload


def decode_config(payload: dict) -> EngineConfig:
    fields = dict(payload)
    check_wire_version(fields.pop("wire_version", 1), "config payload")
    fields["qce_params"] = QceParams(**fields["qce_params"])
    nodes, roots = fields.pop("preconditions_encoded")
    decoded = decode_exprs(nodes)
    fields["preconditions"] = tuple(decoded[i] for i in roots)
    try:
        return EngineConfig(**fields)
    except TypeError as exc:
        # Same stamp but skewed fields (e.g. a dirty checkout): still a
        # protocol problem, still named.
        raise ProtocolMismatchError(
            f"config payload does not match this EngineConfig ({exc}); "
            "coordinator and workers must run the same repro version"
        ) from exc

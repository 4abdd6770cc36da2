"""The worker transport: framed stream sockets, leases, fault tolerance.

``repro.remote`` carries the coordinator/worker wire protocol of
:mod:`repro.parallel` over one transport, :class:`SocketTransport`:
length-prefixed frames on one duplex stream socket per worker.  The
sockets are either socketpairs inherited by forked local workers
(``backend="process"`` — no port is opened) or TCP connections accepted
from dialing workers, which may run on other hosts
(``backend="socket"``).  On top of it the coordinator maintains a
*lease* per dispatched partition (owner + heartbeat deadline); when a
worker misses heartbeats, drops its connection, or is killed, the lease
is revoked, the worker fenced, and the partition's snapshot requeued
through the :class:`~repro.sched.PartitionScheduler` — partition
disjointness and the stats-merge ledger survive worker death, and a
revoked partition's partial results are discarded, never double-counted.

Quick start (spawned loopback workers)::

    from repro.parallel import ParallelConfig, run_parallel
    result = run_parallel("wc", parallel=ParallelConfig(workers=2,
                                                        backend="socket"))
    result.check_ledger()

Multi-host: run the coordinator with ``spawn_workers=False`` (it prints
its listen address) and start each worker with::

    python -m repro.remote worker --connect HOST:PORT
"""

from .client import WorkerSession, connect, remote_worker_main
from .transport import (
    SocketTransport,
    TransportError,
    recv_frame,
    send_frame,
)

__all__ = [
    "SocketTransport",
    "TransportError",
    "WorkerSession",
    "connect",
    "recv_frame",
    "remote_worker_main",
    "send_frame",
]

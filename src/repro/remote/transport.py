"""The coordinator-side transport over the tagged-tuple wire protocol.

One campaign event loop (:meth:`repro.parallel.Coordinator._run_transport`)
drives one transport class, :class:`SocketTransport`: every worker holds
one duplex stream socket carrying :func:`repro.codec.frame` frames —
tasks, commands, results and heartbeats.
Worker ids are assigned at the HELLO/WELCOME handshake, and the
transport tracks per-connection liveness (EOF or missed heartbeats), so
the coordinator can revoke a dead worker's lease and requeue it.

The connections come from one of two places:

* ``listen=False`` — fork one local process per worker, each inheriting
  one end of a ``socket.socketpair()``.  No port is opened: a purely
  local run is not reachable from the network.
* ``listen=True`` — bind a TCP listener and accept dialing workers,
  spawned locally (``spawn_workers=True``) or, with
  ``spawn_workers=False``, started by hand on any host with
  ``python -m repro.remote worker --connect host:port``.

Everything after "I hold N connected sockets" — handshake, reader
threads, lease liveness, fencing, chaos hooks — is the same code.

The duck type the event loop relies on: ``start()``, ``worker_ids``,
``send_task(wid, msg)``, ``send_cmd(wid, msg)``, ``recv(timeout)``,
``dead_workers()`` (newly-observed deaths since the last call),
``fence(wid)``, and ``close()``; plus the chaos hooks ``kill(wid)`` /
``disconnect(wid)`` the fault-injection harness uses.
"""

from __future__ import annotations

import os
import queue as queue_mod
import signal
import socket
import sys
import threading
import time

from .. import codec
from ..engine.executor import EngineConfig
from ..env.argv import ArgvSpec
from ..parallel.wire import (
    FROM_WORKER,
    HELLO,
    MSG_HEARTBEAT,
    MSG_REJECT,
    MSG_WELCOME,
    TASK_STOP,
    ProtocolMismatchError,
)
from ..processes import process_context

# The first frame of a connection is read under this cap: a HELLO is a
# few dozen bytes, and until it decodes the peer is anyone at all.
HELLO_MAX = 1 << 12

# Handshake must complete promptly once a connection lands — a client
# that connects and stalls must not block the accept loop forever.
HANDSHAKE_TIMEOUT = 10.0


class TransportError(RuntimeError):
    """Transport-level failure (startup timeout, oversized frame, ...)."""


# -- framing --------------------------------------------------------------------


def send_frame(sock: socket.socket, msg, lock: threading.Lock | None = None) -> None:
    """Encode ``msg`` and write it as one frame (:func:`repro.codec.frame`).

    The lock (one per connection) keeps concurrently sending threads —
    the worker's main loop and its heartbeat timer — from interleaving
    frame bytes.
    """
    data = codec.frame(msg)
    if lock is not None:
        with lock:
            sock.sendall(data)
    else:
        sock.sendall(data)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise EOFError("connection closed mid-frame")
        buf += chunk
    return bytes(buf)


def recv_frame(sock: socket.socket, schema=object, limit: int = codec.MAX_FRAME):
    """Read one frame of at most ``limit`` bytes holding a ``schema``
    value; raises EOFError on a closed peer, :class:`TransportError` on a
    longer frame (a peer that sends one is hung up on, not answered) and
    :class:`~repro.codec.DecodeError` on a frame that is not one."""
    try:
        size = codec.frame_size(_recv_exact(sock, codec.FRAME_HEADER), limit=limit)
    except codec.DecodeError as exc:
        raise TransportError(str(exc)) from None
    return codec.loads(_recv_exact(sock, size), schema)


def set_nodelay(sock: socket.socket) -> None:
    """Disable Nagle on a TCP connection (AF_UNIX pairs have none).

    A worker writes ``MSG_START`` and ``MSG_DONE`` as two small frames;
    Nagle holds the second until the first is ACKed and the peer's
    delayed ACK takes ~40 ms — per partition.
    """
    if sock.family in (socket.AF_INET, socket.AF_INET6):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


# -- the transport ---------------------------------------------------------------


class _Endpoint:
    """Coordinator-side state of one connected worker."""

    __slots__ = ("wid", "conn", "lock", "last_seen", "dead", "fenced", "meta",
                 "thread")

    def __init__(self, wid: int, conn: socket.socket, meta: dict):
        self.wid = wid
        self.conn = conn
        self.lock = threading.Lock()
        self.last_seen = time.monotonic()
        self.dead: str | None = None
        self.fenced = False
        self.meta = meta
        self.thread: threading.Thread | None = None


class SocketTransport:
    """Framed stream sockets with heartbeat liveness tracking.

    See the module docstring for the two ways of obtaining connections.
    Locally started workers (forked over socketpairs, or spawned to dial
    the listener — what tests/CI use) speak the same protocol and fail
    the same ways as genuinely remote ones, and additionally report an
    os pid the ``kill`` chaos hook can signal.
    """

    def __init__(
        self,
        workers: int,
        program: str,
        spec: ArgvSpec,
        config: EngineConfig,
        listen: bool = True,
        host: str = "127.0.0.1",
        port: int = 0,
        spawn_workers: bool = True,
        heartbeat_interval: float = 0.5,
        heartbeat_timeout: float = 5.0,
        accept_timeout: float = 30.0,
        join_timeout: float = 10.0,
    ):
        self.workers = workers
        self.program = program
        self.spec = spec
        self.config = config
        self.listen = listen
        self.host = host
        self.port = port
        self.spawn_workers = spawn_workers
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.accept_timeout = accept_timeout
        self.join_timeout = join_timeout
        self._server: socket.socket | None = None
        self._procs: list = []
        self._endpoints: list[_Endpoint] = []
        self._inbox: queue_mod.SimpleQueue = queue_mod.SimpleQueue()
        self._reported: set[int] = set()
        self._closed = False
        self.address: tuple[str, int] | None = None

    @property
    def worker_ids(self) -> list[int]:
        return [ep.wid for ep in self._endpoints]

    def start(self) -> None:
        if self.listen:
            self._accept_fleet()
        else:
            self._fork_fleet()
        for ep in self._endpoints:
            ep.thread = threading.Thread(
                target=self._reader, args=(ep,), daemon=True
            )
            ep.thread.start()

    def _spawn(self, target, args) -> None:
        proc = process_context().Process(target=target, args=args, daemon=True)
        proc.start()
        self._procs.append(proc)

    def _fork_fleet(self) -> None:
        from .client import serve_inherited

        ours: list[socket.socket] = []
        for _ in range(self.workers):
            mine, theirs = socket.socketpair()
            ours.append(mine)
            # The child closes every coordinator-side end it inherited
            # (its own pair's included): while any copy stays open,
            # neither side of that pair ever sees EOF.
            self._spawn(serve_inherited,
                        (theirs, list(ours), self.heartbeat_interval))
            theirs.close()
        for conn in ours:
            self._handshake(conn)
        if len(self._endpoints) < self.workers:
            self.close()
            raise TransportError(
                f"only {len(self._endpoints)} of {self.workers} forked "
                "workers completed the handshake"
            )

    def _accept_fleet(self) -> None:
        self._server = socket.create_server((self.host, self.port))
        self.address = self._server.getsockname()[:2]
        if self.spawn_workers:
            from .client import _spawned_worker

            for _ in range(self.workers):
                self._spawn(_spawned_worker,
                            (*self.address, self.heartbeat_interval))
        deadline = time.monotonic() + self.accept_timeout
        while len(self._endpoints) < self.workers:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.close()
                raise TransportError(
                    f"timed out waiting for {self.workers} workers "
                    f"({len(self._endpoints)} connected) on {self.address}"
                )
            self._server.settimeout(remaining)
            try:
                conn, _addr = self._server.accept()
            except socket.timeout:
                continue
            self._handshake(conn)
        self._server.settimeout(None)

    def _handshake(self, conn: socket.socket) -> None:
        """HELLO/WELCOME on one fresh connection: it becomes the next
        endpoint, or is closed (stalled, garbled or version-skewed peer)."""
        try:
            ep = self._greet(conn)
        except Exception as exc:  # noqa: BLE001 — whatever the first frame
            # was, it was not a worker's (a port scan, an oversized header,
            # a stalled half header, a peer gone before our reply): drop
            # this connection, keep accepting.
            print(f"repro.remote: dropped a connection at the handshake: {exc!r}",
                  file=sys.stderr)
            ep = None
        if ep is None:
            conn.close()
        else:
            self._endpoints.append(ep)

    def _greet(self, conn: socket.socket) -> _Endpoint | None:
        set_nodelay(conn)
        conn.settimeout(HANDSHAKE_TIMEOUT)
        try:
            _, meta = recv_frame(conn, HELLO, HELLO_MAX)
        except codec.VersionError as exc:
            # The worker raises ProtocolMismatchError on its side too;
            # rejecting (instead of hanging) is what makes version skew a
            # deployment error rather than a stuck campaign.
            send_frame(conn, (MSG_REJECT, f"format version mismatch: {exc}"))
            return None
        except codec.DecodeError as exc:
            send_frame(conn, (MSG_REJECT, f"expected HELLO: {exc}"))
            return None
        wid = len(self._endpoints)
        send_frame(conn, (MSG_WELCOME, wid, self.program, self.spec, self.config))
        conn.settimeout(None)
        return _Endpoint(wid, conn, meta)

    def _reader(self, ep: _Endpoint) -> None:
        while True:
            try:
                msg = recv_frame(ep.conn, FROM_WORKER)
            except (EOFError, OSError):
                dead = "disconnect"
            except Exception:  # noqa: BLE001 — oversized header, DecodeError
                dead = "garbled frame"
            else:
                # Every worker message is tagged with its sender.
                dead = None if msg[1] == ep.wid else "garbled frame"
            if dead is not None:
                # Dead on the spot: the next death sweep revokes the
                # lease, no heartbeat deadline to wait out.
                if ep.dead is None:
                    ep.dead = dead
                return
            ep.last_seen = time.monotonic()
            if msg[0] != MSG_HEARTBEAT:
                self._inbox.put(msg)

    def send_task(self, wid: int, msg) -> None:
        ep = self._endpoints[wid]
        if ep.fenced or ep.dead is not None:
            raise OSError(f"worker {wid} is gone")
        send_frame(ep.conn, msg, ep.lock)

    # Tasks and out-of-band commands share the one duplex stream; the
    # worker's reader thread demultiplexes them by tag.
    send_cmd = send_task

    def recv(self, timeout: float):
        try:
            return self._inbox.get(timeout=timeout)
        except queue_mod.Empty:
            return None

    def dead_workers(self) -> list[tuple[int, str]]:
        now = time.monotonic()
        dead = []
        for ep in self._endpoints:
            if ep.wid in self._reported or ep.fenced:
                continue
            if ep.dead is None and now - ep.last_seen > self.heartbeat_timeout:
                ep.dead = (
                    f"missed heartbeats for {now - ep.last_seen:.1f}s "
                    f"(limit {self.heartbeat_timeout}s)"
                )
            if ep.dead is not None:
                self._reported.add(ep.wid)
                dead.append((ep.wid, ep.dead))
        return dead

    def fence(self, wid: int) -> None:
        """Stop all interaction with a worker: close its connection.

        A fenced worker that is actually still alive loses its link and
        exits on its next send; anything it manages to deliver first is
        discarded by the event loop.  That one-way door is what makes
        lease revocation safe — a revoked partition's owner can never
        sneak results back in.
        """
        ep = self._endpoints[wid]
        ep.fenced = True
        self._reported.add(wid)
        self.disconnect(wid)
        ep.conn.close()

    def kill(self, wid: int, sig: int = signal.SIGKILL) -> None:
        """Chaos hook: signal a *local* worker process (default SIGKILL:
        no warning, no cleanup)."""
        ospid = self._endpoints[wid].meta.get("pid")
        if not ospid:
            raise TransportError(f"worker {wid} sent no os pid; cannot kill")
        os.kill(ospid, sig)

    def disconnect(self, wid: int) -> None:
        """Drop the connection without touching the process.  As a chaos
        hook it simulates a network partition: the abandoned worker
        exits when its next send fails."""
        try:
            self._endpoints[wid].conn.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def stop_worker(self, wid: int) -> None:
        try:
            self.send_task(wid, (TASK_STOP,))
        except OSError:
            pass

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            self._server.close()
        for ep in self._endpoints:
            # Shut down before closing: that is what wakes the reader
            # thread blocked in recv, so it is released here and not
            # whenever the peer happens to exit.
            self.disconnect(ep.wid)
            ep.conn.close()
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            proc.join(timeout=self.join_timeout)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=1.0)
        for proc in self._procs:
            proc.close()


def handshake_error(reject_msg) -> ProtocolMismatchError:
    """Worker-side: turn a MSG_REJECT into the named error."""
    reason = reject_msg[1] if len(reject_msg) > 1 else "rejected"
    return ProtocolMismatchError(f"coordinator rejected handshake: {reason}")

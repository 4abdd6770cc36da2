"""Worker side of the transport: handshake, serve a campaign.

A worker is a :class:`WorkerSession` over one connected stream socket —
dialed over TCP (:func:`connect`, :func:`remote_worker_main`) or
inherited as one end of a socketpair by a process the coordinator forked
(:func:`serve_inherited`).  After the HELLO/WELCOME handshake (whose
frames carry the codec's format version) the session is handed to the
single worker loop,
:func:`repro.parallel.worker.worker_main`.

The session runs two daemon threads next to the main loop:

* a **reader** that demultiplexes inbound frames — ``TASK_*`` messages
  feed the blocking task queue, ``CMD_*`` the non-blocking command
  queue the steal hook polls mid-exploration;
* a **heartbeat timer** that sends ``(MSG_HEARTBEAT, wid)`` every
  interval so the coordinator's lease table can tell a slow worker from
  a dead one.  Frame writes share one lock, so heartbeats never
  interleave with result frames.

If the coordinator closes the connection (lease revoked, campaign
over), the reader injects a synthetic ``TASK_STOP`` so the main loop
unblocks and the process exits instead of exploring into the void.
"""

from __future__ import annotations

import os
import queue
import socket
import sys
import threading
import time

from ..codec import DecodeError
from ..parallel.wire import (
    CMD_STEAL,
    HANDSHAKE_REPLY,
    MSG_HEARTBEAT,
    MSG_HELLO,
    MSG_REJECT,
    TASK_PARTITION,
    TASK_STOP,
    TO_WORKER,
    ProtocolMismatchError,
)
from .transport import handshake_error, recv_frame, send_frame, set_nodelay


class WorkerSession:
    """One connected worker: its identity and channels over a duplex socket.

    The handshake fills in ``wid``, ``program``, ``spec`` and
    ``config``; ``task_q`` / ``cmd_q`` are the inbound channels
    ``worker_main`` reads, and the session object itself is the result
    channel (``put`` sends a frame).
    """

    def __init__(self, sock: socket.socket, heartbeat_interval: float = 0.5):
        self._sock = sock
        self._send_lock = threading.Lock()
        self._closed = threading.Event()
        # True only when the coordinator sent a genuine TASK_STOP frame
        # (campaign over).  A synthetic stop injected on hangup leaves it
        # False — that is the signal to re-dial a restarted coordinator.
        self.clean_stop = False
        self.task_q: queue.SimpleQueue = queue.SimpleQueue()
        self.cmd_q: queue.SimpleQueue = queue.SimpleQueue()
        meta = {"pid": os.getpid(), "host": socket.gethostname()}
        # The socket still carries the dial timeout here: a coordinator
        # that accepted us into its TCP backlog but is not running its
        # accept loop (mid-campaign) would otherwise park us in
        # recv_frame forever.  Timing out turns that into one more
        # retryable dial attempt.
        send_frame(sock, (MSG_HELLO, meta), self._send_lock)
        try:
            reply = recv_frame(sock, HANDSHAKE_REPLY)
        except DecodeError as exc:
            raise ProtocolMismatchError(
                f"wire protocol mismatch in the WELCOME handshake: {exc} — "
                "coordinator and workers must run the same repro version"
            ) from exc
        if reply[0] == MSG_REJECT:
            raise handshake_error(reply)
        _, self.wid, self.program, self.spec, self.config = reply
        sock.settimeout(None)
        self._reader = threading.Thread(target=self._read_loop, daemon=True)
        self._reader.start()
        self._beat = threading.Thread(
            target=self._heartbeat_loop, args=(heartbeat_interval,), daemon=True
        )
        self._beat.start()

    # -- result channel (worker -> coordinator) ---------------------------------

    def put(self, msg) -> None:
        if self._closed.is_set():
            # Coordinator hung up (fence / campaign end): results of a
            # revoked lease are discarded by design, so drop silently and
            # let the main loop run down via the synthetic TASK_STOP.
            return
        try:
            send_frame(self._sock, msg, self._send_lock)
        except OSError:
            self._hangup()
            raise

    # -- inbound demux -----------------------------------------------------------

    def _read_loop(self) -> None:
        while True:
            try:
                msg = recv_frame(self._sock, TO_WORKER)
            except Exception:  # noqa: BLE001 — EOF, or a frame that is not ours
                self._hangup()
                return
            tag = msg[0]
            if tag in (TASK_PARTITION, TASK_STOP):
                if tag == TASK_STOP:
                    self.clean_stop = True
                self.task_q.put(msg)
                if tag == TASK_STOP:
                    return
            elif tag == CMD_STEAL:
                self.cmd_q.put(msg)

    def _heartbeat_loop(self, interval: float) -> None:
        while not self._closed.wait(interval):
            try:
                send_frame(self._sock, (MSG_HEARTBEAT, self.wid),
                           self._send_lock)
            except OSError:
                self._hangup()
                return

    def _hangup(self) -> None:
        if not self._closed.is_set():
            self._closed.set()
            # Unblock the main loop if it is waiting for the next task.
            self.task_q.put((TASK_STOP,))

    def close(self) -> None:
        self._closed.set()
        try:
            self._sock.close()
        except OSError:
            pass


def connect(host: str, port: int, heartbeat_interval: float = 0.5,
            retries: int = 0, retry_delay: float = 0.2,
            max_delay: float = 5.0) -> WorkerSession:
    """Dial a coordinator, with exponential backoff while its listener
    comes up.

    Workers may legally start *before* the coordinator (fleet first,
    campaign second) and outlive one across a crash/resume boundary, so
    "connection refused" is a scheduling race, not an error, until the
    retry budget is spent.  The backoff doubles per attempt (capped at
    ``max_delay``) with ±25% jitter so a fleet of workers re-dialing a
    restarted coordinator does not stampede its accept loop in lockstep.
    """
    import random

    attempt = 0
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=10.0)
            set_nodelay(sock)
            return WorkerSession(sock, heartbeat_interval)
        except (ConnectionError, socket.timeout, EOFError):
            attempt += 1
            if attempt > retries:
                raise
            delay = min(max_delay, retry_delay * (2 ** (attempt - 1)))
            time.sleep(delay * (0.75 + random.random() / 2))


def _serve(session: WorkerSession) -> bool:
    """Run the worker loop on a session; True iff the coordinator ended
    it with a genuine TASK_STOP (not a hangup)."""
    from ..parallel.worker import worker_main

    try:
        worker_main(session)
    except OSError:
        return False  # connection died mid-send; same as a hangup
    finally:
        session.close()
    return session.clean_stop


def remote_worker_main(host: str, port: int, heartbeat_interval: float = 0.5,
                       retries: int = 0, retry_delay: float = 0.2) -> int:
    """Serve campaigns as a remote worker; returns a process exit code.

    One dial serves one campaign; a *clean* TASK_STOP (campaign over)
    exits 0.  A hangup without one — coordinator crashed or fenced us —
    re-dials with the same backoff budget: a coordinator resuming the
    campaign (``--resume``) comes back on the same address and the
    worker rejoins its fleet with a fresh worker id.
    """
    while True:
        try:
            session = connect(host, port, heartbeat_interval, retries, retry_delay)
        except ProtocolMismatchError as exc:
            print(f"repro.remote worker: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"repro.remote worker: cannot reach {host}:{port}: {exc}",
                  file=sys.stderr)
            return 1
        if _serve(session):
            return 0
        # Connection lost mid-campaign: the lease layer already treats us
        # as dead and requeued our partition.  Re-dial — a resumed
        # coordinator may be (re)binding the address right now.
        if retries <= 0:
            print("repro.remote worker: connection to coordinator lost",
                  file=sys.stderr)
            return 1
        print("repro.remote worker: connection lost; re-dialing "
              f"{host}:{port}", file=sys.stderr)


def _spawned_worker(listener: socket.socket, heartbeat_interval: float) -> None:
    """Entry point of a coordinator-spawned loopback worker.  The
    coordinator's ``listener`` was copied into this process by the fork;
    it is closed first, or a dead coordinator's port would keep
    accepting dials that nobody answers.  It was bound before the fork,
    so one dial reaches it; one session, and a hangup ends the process."""
    host, port = listener.getsockname()[:2]
    listener.close()
    raise SystemExit(remote_worker_main(host, port, heartbeat_interval))


def serve_inherited(sock: socket.socket, inherited: list,
                    heartbeat_interval: float) -> None:
    """Entry point of a coordinator-forked worker holding one end of a
    socketpair.  ``inherited`` are the coordinator-side ends the fork
    copied into this process; they are closed first, or the coordinator
    hanging up (or dying) would never read as EOF here.  There is
    nowhere to re-dial: a hangup ends the process."""
    for other in inherited:
        other.close()
    raise SystemExit(0 if _serve(WorkerSession(sock, heartbeat_interval)) else 1)

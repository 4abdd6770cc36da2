"""Pipelined test generation: fresh group solves in one forked helper.

A test's model is a pure function of its path condition
(:func:`repro.engine.testgen.deterministic_model`), so the groups that
miss both the memo and the corpus need not be solved where the pc was
found.  A sequential ``explore()`` keeps the memo, corpus and accounting
work, and ships each such group to one solver process, forked once the
call has spent :data:`FORK_AFTER_S` on such solves itself: the group
travels as one :func:`repro.codec.frame` over a socketpair, the wire's
frame without the ~45 ms import of :mod:`repro.remote` (one
:class:`~repro.codec.NodeTable` stream: a pc's prefix is sent once, not
with every group that shares it) and its fresh chain's model and cost
units come back, in the order sent, while exploration goes on.  ``explore()`` joins before it
returns: while the helper answers the front of the backlog the parent
solves it from the back, and once the two meet the helper is killed and
reaped; every waiting test then fills its original slot, and the
helper's cost units and CPU seconds (each answer carries its CPU seconds
so far) are in the engine's stats — so whatever reads the engine
afterwards sees what an in-process run produced.

Why the models cannot move: :func:`~repro.engine.testgen.solve_group` is
the one solve either side runs; the helper is only ever *forked*, so it
hashes strings under the parent's seed (a spawned child would draw its
own); and the expressions it decodes are re-interned under its own eids,
on which no solver ordering depends — commutative operands are oriented
by ``skey``, a structural key.

Fleet workers (which already own the cores) and hosts without ``fork``
solve in-process through the same function, which is also the fallback
when the helper dies: the groups it left unanswered are solved here, in
order, and so is every later one.  The helper never touches the store
and exits at EOF.
"""

from __future__ import annotations

import gc
import select
import time
from collections import deque
from typing import TYPE_CHECKING

from .. import codec
from ..expr.nodes import Expr
from ..processes import can_fork, process_context
from ..solver.portfolio import SolverTimeout
from . import testgen

if TYPE_CHECKING:
    import socket

# ``socket``, ``signal`` and ``multiprocessing`` are imported where a
# helper is started or runs: importing the engine does not load them.

# Parent -> helper: one group.  Helper -> parent: the group's (model, cost
# units, the helper's CPU seconds so far) or a timeout's message.
GROUP = tuple[Expr, ...]
ANSWER = tuple[dict[str, int] | None, int, float] | str

# Seconds of fresh solves an explore() runs in-process before it forks the
# helper.  Importing multiprocessing, forking and reaping cost about 20 ms
# of the parent's time, which a run with a few cheap solves never wins
# back (``wc plain 3x2`` solves 25 groups in about 15 ms).
FORK_AFTER_S = 0.05


def helper_available() -> bool:
    """Whether this process may fork a helper: ``fork`` exists (a spawned
    helper would hash strings under a seed of its own), and this is no
    daemon process (which may not have children)."""
    import multiprocessing

    return can_fork() and not multiprocessing.current_process().daemon


class SolveHelper:
    """The parent's end of one ``explore()`` call's helper.

    :meth:`submit` solves in-process until :data:`FORK_AFTER_S` seconds
    have gone into it, then forks the helper and ships every later group,
    reading whatever answers are already there whenever it sends, so
    neither side can block on a full socket buffer; :meth:`join` drains
    the rest from both ends; :meth:`close` aborts.
    """

    def __init__(self) -> None:
        self._proc = None
        self._sock: socket.socket | None = None
        self._inflight: deque = deque()  # (pending, group, sink), in send order
        self._table = codec.NodeTable()  # the nodes the helper has been sent
        self._buf = bytearray()
        self._cpu = 0.0
        self._solved_here = 0.0  # seconds of in-process solves before the fork
        self._local = False  # solving in-process for good: no helper, or it died

    @property
    def pid(self) -> int | None:
        return self._proc.pid if self._proc is not None else None

    def submit(self, pending: testgen.Pending, group, sink) -> None:
        """Solve ``group`` for ``pending``; its cost units go to ``sink``."""
        if self._sock is None and not self._local and self._solved_here >= FORK_AFTER_S:
            self._start()
        if self._sock is None:
            start = time.perf_counter()
            _solve_here(pending, group, sink)
            self._solved_here += time.perf_counter() - start
            return
        self._inflight.append((pending, group, sink))
        try:
            self._send(codec.frame(tuple(group), self._table))
        except OSError:
            self._fall_back()

    def join(self) -> float:
        """Settle every group in flight and reap the helper; its CPU seconds.

        The helper answers the backlog from the front; meanwhile the
        parent solves it from the back, reading the answers that came in
        between two of its solves.  Answers arrive in send order, so the
        ones past the front the parent has taken are for groups it
        solved itself, and are dropped with the helper."""
        if self._sock is not None:
            import socket

            try:
                self._sock.shutdown(socket.SHUT_WR)
                while self._inflight and self._receive():
                    if self._inflight:
                        _solve_here(*self._inflight.pop())
            except OSError:
                pass
            if self._inflight:  # it died before answering them all
                self._fall_back()
        self._reap()
        return self._cpu

    def close(self) -> None:
        """Abort: kill and reap the helper, unfile the groups in flight."""
        for pending, _, _ in self._inflight:
            pending.forget()
        self._inflight.clear()
        self._reap()

    # -- internals -------------------------------------------------------------

    def _start(self) -> None:
        import socket

        if not helper_available():
            self._local = True
            return
        parent, child = socket.socketpair()
        proc = process_context().Process(
            target=_helper_main, args=(child, parent), daemon=True, name="solve-helper"
        )
        try:
            proc.start()
        except OSError:
            parent.close()
            self._local = True
            return
        finally:
            child.close()
        parent.setblocking(False)
        self._sock, self._proc = parent, proc

    def _send(self, data: bytes) -> None:
        view = memoryview(data)
        sock = self._sock
        while view:
            if not self._receive():
                raise BrokenPipeError("the solve helper closed its socket")
            try:
                view = view[sock.send(view):]
            except BlockingIOError:
                select.select([sock], [sock], [])

    def _receive(self) -> bool:
        """Read and apply every answer already there; False at EOF."""
        while True:
            try:
                chunk = self._sock.recv(1 << 16)
            except BlockingIOError:
                return True
            if not chunk:
                return False
            self._buf += chunk
            self._parse()

    def _parse(self) -> None:
        buf, pos = self._buf, 0
        try:
            while len(buf) - pos >= codec.FRAME_HEADER:
                start = pos + codec.FRAME_HEADER
                end = start + codec.frame_size(buf, pos)
                if len(buf) < end:
                    break
                answer = codec.loads(bytes(buf[start:end]), ANSWER)
                pos = end
                self._answer(answer)
        finally:
            del buf[:pos]

    def _answer(self, answer) -> None:
        if type(answer) is str:
            raise SolverTimeout(answer)
        model, cost, self._cpu = answer
        if self._inflight:  # else the parent solved this group at the join
            pending, _, sink = self._inflight.popleft()
            _settle(pending, sink, model, cost)

    def _fall_back(self) -> None:
        """The helper is gone: solve what it left unanswered here, in order,
        and every later group too."""
        self._reap()
        self._local = True
        self._buf.clear()
        while self._inflight:
            pending, group, sink = self._inflight[0]
            _settle(pending, sink, *testgen.solve_group(group))
            self._inflight.popleft()

    def _reap(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        if self._proc is not None:
            self._proc.kill()  # a no-op on a helper that already exited
            self._proc.join()
            self._proc.close()
            self._proc = None


def _solve_here(pending: testgen.Pending, group, sink) -> None:
    try:
        _settle(pending, sink, *testgen.solve_group(group))
    except BaseException:
        pending.forget()
        raise


def _settle(pending: testgen.Pending, sink, model, cost: int) -> None:
    pending.settle(model)
    sink.testgen_cost_units += cost


def _helper_main(sock: socket.socket, parent_end: socket.socket) -> None:
    """The helper: answer each group with its fresh solve and its CPU
    seconds so far, in order, until EOF."""
    import signal

    parent_end.close()
    # Ctrl-C reaches the whole process group; the parent decides, and
    # its death is this process's EOF.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    gc.freeze()  # the inherited heap is never this process's garbage
    rfile = sock.makefile("rb")
    table = codec.NodeTable()  # the nodes the parent has sent
    try:
        while True:
            head = rfile.read(codec.FRAME_HEADER)
            if len(head) < codec.FRAME_HEADER:
                break  # EOF: every group is in
            group = codec.loads(rfile.read(codec.frame_size(head)), GROUP, table)
            try:
                answer = (*testgen.solve_group(list(group)), time.process_time())
            except SolverTimeout as exc:
                answer = str(exc)
            sock.sendall(codec.frame(answer))
    except OSError:
        pass  # the parent is gone: nobody is waiting for the answers
    finally:
        rfile.close()
        sock.close()

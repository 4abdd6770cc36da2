"""Tests of the repro.remote transport layer.

Covers the framing, the engine config as a codec record (a frame of
another format version, a pre-codec payload and a record of another
layout are each refused by name), the HELLO/WELCOME handshake including
rejection of stale workers — over TCP and over a socketpair, the two
ways the one transport obtains its connections — and the end-to-end
property that matters: an N-worker campaign emits the identical
plain-mode test multiset and coverage as the sequential run, with the
stats ledger intact.
"""

import dataclasses
import pickle
import socket
import struct
import threading
from collections import Counter

import pytest

from repro import codec
from repro.engine.executor import EngineConfig
from repro.experiments.harness import same_exploration
from repro.parallel import Coordinator, ParallelConfig, run_parallel
from repro.parallel.wire import (
    MSG_DONE,
    MSG_HELLO,
    MSG_REJECT,
    MSG_WELCOME,
    ProtocolMismatchError,
)
from repro.remote import (
    SocketTransport,
    TransportError,
    WorkerSession,
    connect,
    recv_frame,
    send_frame,
)
from repro.programs.registry import get_program
from repro.remote import transport as transport_mod
from repro.codec import MAX_FRAME
from repro.remote.transport import handshake_error

# The wire's length prefix, spelled here apart from repro.codec.frame.
_HEADER = struct.Struct(">I")
JUNK_FRAME = struct.pack(">I", 5) + b"junk!"  # a header, then no codec payload
SPEC = get_program("wc").spec()


def skewed(payload: bytes) -> bytes:
    """The payload as a build one format version ahead would write it."""
    return payload[:3] + bytes([payload[3] + 1]) + payload[4:]


def send_skewed(sock, msg, lock=None) -> None:
    data = skewed(codec.dumps(msg))
    sock.sendall(_HEADER.pack(len(data)) + data)


# -- framing --------------------------------------------------------------------


def test_a_frame_is_the_payload_behind_its_big_endian_length():
    msg = ("tag", 1, {"k": b"v"})
    payload = codec.dumps(msg)
    assert codec.frame(msg) == _HEADER.pack(len(payload)) + payload


def test_frame_roundtrip():
    a, b = socket.socketpair()
    try:
        msgs = [
            ("tag", 1, {"k": b"v"}),
            ("blob", b"\x00" * 70_000),  # bigger than one recv() chunk
            ("empty",),
        ]
        lock = threading.Lock()
        for msg in msgs:
            send_frame(a, msg, lock)
        for msg in msgs:
            assert recv_frame(b) == msg
    finally:
        a.close()
        b.close()


def test_recv_frame_raises_eof_on_closed_peer():
    a, b = socket.socketpair()
    a.close()
    try:
        with pytest.raises(EOFError):
            recv_frame(b)
    finally:
        b.close()


def test_recv_frame_rejects_oversized_header():
    a, b = socket.socketpair()
    try:
        a.sendall(_HEADER.pack(MAX_FRAME + 1))
        # The sender is done: a reader that skipped the size check and
        # waited for the payload would get EOF, not hang.
        a.shutdown(socket.SHUT_WR)
        with pytest.raises(TransportError, match="oversized frame"):
            recv_frame(b)
    finally:
        a.close()
        b.close()


def test_concurrent_senders_do_not_interleave_frames():
    """The per-connection send lock: many threads blasting frames through
    one socket must never corrupt the stream (the worker's heartbeat
    thread shares its socket with the result channel)."""
    a, b = socket.socketpair()
    lock = threading.Lock()
    per_thread = 50
    threads = [
        threading.Thread(
            target=lambda t=t: [
                send_frame(a, ("m", t, i, b"x" * 1000), lock)
                for i in range(per_thread)
            ]
        )
        for t in range(4)
    ]
    try:
        for th in threads:
            th.start()
        got = [recv_frame(b) for _ in range(4 * per_thread)]
        for th in threads:
            th.join()
        # Every frame intact, every (thread, seq) pair delivered once.
        assert Counter((m[1], m[2]) for m in got) == Counter(
            (t, i) for t in range(4) for i in range(per_thread)
        )
        assert all(m[3] == b"x" * 1000 for m in got)
    finally:
        a.close()
        b.close()


# -- the config as a codec record ----------------------------------------------------


def test_config_codec_roundtrip_is_stamped():
    payload = codec.dumps(EngineConfig(merging="static", dsm_delta=3))
    assert payload[:4] == b"RPC" + bytes([codec.FORMAT_VERSION])
    decoded = codec.loads(payload, EngineConfig)
    assert decoded == EngineConfig(merging="static", dsm_delta=3)


def test_a_config_of_another_format_version_is_refused_by_name():
    payload = skewed(codec.dumps(EngineConfig()))
    with pytest.raises(codec.VersionError, match=(
            f"format v{codec.FORMAT_VERSION + 1}, this build reads v{codec.FORMAT_VERSION}")):
        codec.loads(payload, EngineConfig)


def test_a_pre_codec_config_is_refused_by_name():
    # What the transport carried before the codec: never loaded, named.
    payload = pickle.dumps(dataclasses.asdict(EngineConfig()))
    with pytest.raises(codec.VersionError, match="pre-codec payload"):
        codec.loads(payload, EngineConfig)


def test_a_config_record_with_skewed_fields_is_refused_by_name(monkeypatch):
    # A field of the wrong type, and a layout with one field more than
    # this build's (a worker on a dirty checkout): each a named error
    # instead of a TypeError deep inside EngineConfig(...).  This build
    # does not write the first: it is refused by name when encoded.
    wrong = dataclasses.replace(EngineConfig(), dsm_delta="8")
    with pytest.raises(TypeError, match="EngineConfig.dsm_delta is not"):
        codec.dumps(wrong)
    monkeypatch.setattr(codec, "_check_fields", lambda *args: None)
    wrong_type = codec.dumps(wrong)
    monkeypatch.undo()
    with pytest.raises(codec.DecodeError, match="EngineConfig.dsm_delta is not"):
        codec.loads(wrong_type, EngineConfig)
    index, names, frozen = codec._layout(EngineConfig)
    monkeypatch.setitem(codec._LAYOUT, EngineConfig, (index, names + ("seed",), frozen))
    longer = codec.dumps(EngineConfig())
    monkeypatch.undo()
    with pytest.raises(codec.DecodeError, match=f"EngineConfig has {len(names)} fields"):
        codec.loads(longer, EngineConfig)


# -- handshake -------------------------------------------------------------------


def test_handshake_rejects_version_skew():
    """A worker speaking the wrong protocol version gets MSG_REJECT (and
    raises ProtocolMismatchError client-side); the campaign keeps waiting
    and accepts the correctly-versioned worker that connects next."""
    transport = SocketTransport(
        workers=1, program="wc", spec=SPEC, config=EngineConfig(),
        spawn_workers=False, accept_timeout=20.0,
    )
    results: dict = {}

    def serve():
        try:
            transport.start()
            results["ok"] = True
        except Exception as exc:  # pragma: no cover - surfaced via assert
            results["error"] = exc

    server = threading.Thread(target=serve, daemon=True)
    server.start()
    while transport.address is None:
        pass

    stale = socket.create_connection(transport.address, timeout=5.0)
    try:
        send_skewed(stale, (MSG_HELLO, {}))
        reply = recv_frame(stale)
        assert reply[0] == MSG_REJECT
        assert "mismatch" in reply[1]
        with pytest.raises(ProtocolMismatchError):
            raise handshake_error(reply)
    finally:
        stale.close()

    good = socket.create_connection(transport.address, timeout=5.0)
    try:
        send_frame(good, (MSG_HELLO, {"pid": 12345}))
        reply = recv_frame(good)
        assert reply == (MSG_WELCOME, 0, "wc", SPEC, EngineConfig())
        server.join(timeout=10.0)
        assert results.get("ok"), results.get("error")
        assert transport.worker_ids == [0]
        # The os pid from HELLO meta is what chaos kill() targets.
        assert transport._endpoints[0].meta["pid"] == 12345
    finally:
        good.close()
        transport.close()


def test_socketpair_handshake_rejects_version_skew(monkeypatch):
    """The forked-worker path runs the same handshake: a version-skewed
    worker on a socketpair fails by name, exactly as on TCP."""
    import repro.remote.client as client

    transport = SocketTransport(
        workers=1, program="wc", spec=SPEC, config=EngineConfig(),
        listen=False,
    )
    ours, theirs = socket.socketpair()
    server = threading.Thread(target=transport._handshake, args=(ours,),
                              daemon=True)
    server.start()
    monkeypatch.setattr(client, "send_frame", send_skewed)
    try:
        with pytest.raises(ProtocolMismatchError, match="mismatch"):
            WorkerSession(theirs)
        server.join(timeout=10.0)
        assert not server.is_alive()
        assert transport.worker_ids == []
    finally:
        theirs.close()
        transport.close()


def _greeted(first_frame: bytes):
    """The handshake's reply to a connection whose first frame is
    ``first_frame`` (None: it hung up), and the workers it then holds."""
    transport = SocketTransport(workers=1, program="wc", spec=SPEC,
                                config=EngineConfig(), listen=False)
    ours, theirs = socket.socketpair()
    try:
        theirs.sendall(first_frame)
        transport._handshake(ours)
        try:
            reply = recv_frame(theirs)
        except (EOFError, OSError):
            reply = None
        return reply, transport.worker_ids
    finally:
        theirs.close()
        transport.close()


def test_a_hello_too_long_or_holding_expressions_is_refused_before_interning():
    """Until its first frame decodes, a peer is anyone: that frame is read
    under a small cap, and a HELLO carrying an expression node table is
    refused before a node of it is interned."""
    from repro.expr import nodes
    from repro.expr.ops import bv_var

    def framed(msg):
        payload = codec.dumps(msg)
        return _HEADER.pack(len(payload)) + payload

    assert _greeted(framed((MSG_HELLO, {"pid": 1})))[1] == [0]
    too_long = framed((MSG_HELLO, {"host": "x" * transport_mod.HELLO_MAX}))
    assert _greeted(too_long) == (None, [])
    probe = bv_var("hello_probe", 8)
    bearing = framed((MSG_HELLO, {"pid": probe}))
    # Forget the node, as a process that never built it would.
    del nodes._intern_table[next(k for k, v in nodes._intern_table.items() if v is probe)]
    del probe
    reply, workers = _greeted(bearing)
    assert reply[0] == MSG_REJECT and "holds none" in reply[1] and workers == []
    assert not any(n.name == "hello_probe" for n in nodes._intern_table.values())


def _loopback_session(**transport_kw):
    """A listening transport and one dialed session on it."""
    transport = SocketTransport(
        workers=1, program="wc", spawn_workers=False, accept_timeout=20.0,
        **transport_kw,
    )
    server = threading.Thread(target=transport.start, daemon=True)
    server.start()
    while transport.address is None:
        pass
    session = connect(*transport.address, retries=10)
    server.join(timeout=10.0)
    assert not server.is_alive()
    return transport, session


def test_worker_session_handshake_and_stop():
    """Client-side handshake: connect() yields a configured session, and
    a TASK_STOP from the coordinator lands on the session task queue."""
    config = EngineConfig(merging="dynamic", dsm_delta=5)
    transport, session = _loopback_session(spec=SPEC, config=config)
    try:
        assert session.wid == 0
        assert session.program == "wc"
        assert (session.spec, session.config) == (SPEC, config)
        transport.stop_worker(0)
        msg = session.task_q.get(timeout=10.0)
        assert msg[0] == "stop"
    finally:
        session.close()
        transport.close()


def test_tcp_connections_disable_nagle():
    """Regression: a worker writes MSG_START and MSG_DONE as two small
    frames; with Nagle on, the second waits for the peer's delayed ACK
    (~40 ms per partition).  Both ends of a TCP session set
    TCP_NODELAY."""
    transport, session = _loopback_session(spec=SPEC, config=EngineConfig())
    try:
        for sock in (transport._endpoints[0].conn, session._sock):
            assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
    finally:
        session.close()
        transport.close()


# -- end to end ------------------------------------------------------------------


def test_socket_two_workers_matches_sequential():
    seq = run_parallel("wc", workers=1)
    par = run_parallel(
        "wc", parallel=ParallelConfig(workers=2, backend="socket")
    )
    par.check_ledger()
    assert par.partitions > 0
    assert len(par.ledger) == 3  # coordinator + 2 workers
    assert par.requeue_count == 0 and par.workers_lost == 0
    same_exploration(seq, par, "socket 2-worker run")
    # Both socket workers actually did path work.
    worker_paths = [entry[1].paths_completed for entry in par.ledger[1:]]
    assert sum(worker_paths) > 0


# -- garbled frames ----------------------------------------------------------------


def test_garbled_first_frames_do_not_abort_the_campaign(monkeypatch):
    """Regression: one port scan killed a listening campaign before it
    started — a first frame that does not decode raised out of
    ``transport.start()``, an oversized header likewise.  Each such
    connection is dropped and the accept loop goes on to the workers."""
    scans = [JUNK_FRAME, _HEADER.pack(MAX_FRAME + 1), b"\x00\x00"]
    held = []
    spawn = SocketTransport._spawn

    def scan_then_spawn(self, target, args):
        # The listener is up and no worker has dialed yet: these land in
        # the backlog ahead of the fleet.  The half-sent header keeps its
        # connection open and stalls until the handshake timeout.
        while scans:
            conn = socket.create_connection(self.address, timeout=5.0)
            conn.sendall(scans.pop())
            held.append(conn)
        spawn(self, target, args)

    monkeypatch.setattr(SocketTransport, "_spawn", scan_then_spawn)
    monkeypatch.setattr(transport_mod, "HANDSHAKE_TIMEOUT", 1.0)
    try:
        par = run_parallel("wc", parallel=ParallelConfig(workers=2, backend="socket"))
    finally:
        for conn in held:
            conn.close()
    assert len(held) == 3
    par.check_ledger()
    assert par.workers_lost == 0 and len(par.ledger) == 3
    same_exploration(run_parallel("wc", workers=1), par, "scanned campaign")


@pytest.mark.parametrize("backend", ["process", "socket"])
def test_garbled_frame_mid_campaign_fences_its_sender(backend, monkeypatch):
    """A worker whose stream stops decoding is dead on the spot — fenced
    and its lease requeued at the next sweep, not after the heartbeat
    deadline — and nothing it sent after the junk is ever read."""
    put = WorkerSession.put

    def garbling_put(self, msg):
        # Inherited by the forked workers: worker 0 corrupts its stream
        # right before its first completion.
        if self.wid == 0 and msg[0] == MSG_DONE:
            self._sock.sendall(JUNK_FRAME)
        put(self, msg)

    monkeypatch.setattr(WorkerSession, "put", garbling_put)
    coord = Coordinator(
        "wc", get_program("wc").spec(), EngineConfig(),
        ParallelConfig(workers=2, backend=backend, heartbeat_timeout=60.0),
    )
    result = coord.run()
    assert coord.state.fenced == {0: "garbled frame"}
    assert result.wall_time < 60.0
    assert result.workers_lost == 1 and result.requeue_count >= 1
    result.check_ledger()
    same_exploration(run_parallel("wc", workers=1), result, "fenced campaign")

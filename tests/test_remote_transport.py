"""Tests of the repro.remote transport layer.

Covers the framing codec, the versioned config codec (the old bare
``TypeError`` on version skew is now a named
:class:`ProtocolMismatchError`), the HELLO/WELCOME handshake including
rejection of stale workers — over TCP and over a socketpair, the two
ways the one transport obtains its connections — and the end-to-end
property that matters: an N-worker campaign emits the identical
plain-mode test multiset and coverage as the sequential run, with the
stats ledger intact.
"""

import socket
import struct
import threading
from collections import Counter

import pytest

from repro.engine.executor import EngineConfig
from repro.parallel import Coordinator, ParallelConfig, run_parallel
from repro.parallel.wire import (
    MSG_DONE,
    MSG_HELLO,
    MSG_REJECT,
    MSG_WELCOME,
    WIRE_VERSION,
    ProtocolMismatchError,
    decode_config,
    encode_config,
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
from repro.remote.transport import _HEADER, MAX_FRAME, handshake_error

JUNK_FRAME = struct.pack(">I", 5) + b"junk!"  # a header, then bytes no pickle is


def case_key(case):
    return (case.kind, case.argv, case.model, case.line, case.multiplicity,
            case.stdin)


def suite_multiset(result):
    return Counter(case_key(c) for c in result.tests.cases)


# -- framing --------------------------------------------------------------------


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
        with pytest.raises(TransportError):
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


# -- config codec versioning -----------------------------------------------------


def test_config_codec_roundtrip_is_stamped():
    payload = encode_config(EngineConfig(merging="static", dsm_delta=3))
    assert payload["wire_version"] == WIRE_VERSION
    decoded = decode_config(payload)
    assert decoded.merging == "static"
    assert decoded.dsm_delta == 3


def test_decode_config_rejects_stale_stamp():
    payload = encode_config(EngineConfig())
    payload["wire_version"] = 1
    with pytest.raises(ProtocolMismatchError, match="wire protocol mismatch"):
        decode_config(payload)


def test_decode_config_rejects_unstamped_legacy_payload():
    # A v1 (PR 2 era) payload carries no stamp at all; it must fail by
    # name, not with whatever KeyError/TypeError it happens to hit first.
    payload = encode_config(EngineConfig())
    del payload["wire_version"]
    with pytest.raises(ProtocolMismatchError):
        decode_config(payload)


def test_decode_config_names_field_skew():
    # Same stamp but a field this EngineConfig doesn't know (a worker on
    # a dirty checkout): previously a bare TypeError from
    # EngineConfig(**fields), now a named protocol error.
    payload = encode_config(EngineConfig())
    payload["field_from_the_future"] = 7
    with pytest.raises(ProtocolMismatchError, match="same repro version"):
        decode_config(payload)


# -- handshake -------------------------------------------------------------------


def test_handshake_rejects_version_skew():
    """A worker speaking the wrong protocol version gets MSG_REJECT (and
    raises ProtocolMismatchError client-side); the campaign keeps waiting
    and accepts the correctly-versioned worker that connects next."""
    transport = SocketTransport(
        workers=1, program="wc", spec_payload={}, config_payload={},
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
        send_frame(stale, (MSG_HELLO, WIRE_VERSION + 1, {}))
        reply = recv_frame(stale)
        assert reply[0] == MSG_REJECT
        assert "mismatch" in reply[1]
        with pytest.raises(ProtocolMismatchError):
            raise handshake_error(reply)
    finally:
        stale.close()

    good = socket.create_connection(transport.address, timeout=5.0)
    try:
        send_frame(good, (MSG_HELLO, WIRE_VERSION, {"pid": 12345}))
        reply = recv_frame(good)
        assert reply[0] == MSG_WELCOME
        wid, version, program = reply[1], reply[2], reply[3]
        assert (wid, version, program) == (0, WIRE_VERSION, "wc")
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
        workers=1, program="wc", spec_payload={}, config_payload={},
        listen=False,
    )
    ours, theirs = socket.socketpair()
    server = threading.Thread(target=transport._handshake, args=(ours,),
                              daemon=True)
    server.start()
    monkeypatch.setattr(client, "WIRE_VERSION", WIRE_VERSION + 1)
    try:
        with pytest.raises(ProtocolMismatchError, match="mismatch"):
            WorkerSession(theirs)
        server.join(timeout=10.0)
        assert not server.is_alive()
        assert transport.worker_ids == []
    finally:
        theirs.close()
        transport.close()


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
    transport, session = _loopback_session(
        spec_payload={"n_args": 1, "arg_len": 2},
        config_payload=encode_config(EngineConfig()),
    )
    try:
        assert session.wid == 0
        assert session.program == "wc"
        assert session.spec_payload == {"n_args": 1, "arg_len": 2}
        decode_config(session.config_payload)  # stamped and decodable
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
    transport, session = _loopback_session(spec_payload={}, config_payload={})
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
    assert par.paths == seq.paths
    assert suite_multiset(par) == suite_multiset(seq)
    assert par.covered == seq.covered
    # Both socket workers actually did path work.
    worker_paths = [entry[1].paths_completed for entry in par.ledger[1:]]
    assert sum(worker_paths) > 0


# -- garbled frames ----------------------------------------------------------------


def test_garbled_first_frames_do_not_abort_the_campaign(monkeypatch):
    """Regression: one port scan killed a listening campaign before it
    started — a first frame that does not unpickle raised out of
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
    assert suite_multiset(par) == suite_multiset(run_parallel("wc", workers=1))


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
    baseline = run_parallel("wc", workers=1)
    assert result.paths == baseline.paths
    assert suite_multiset(result) == suite_multiset(baseline)

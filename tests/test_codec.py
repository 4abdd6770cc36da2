"""Laws of the one codec (``repro.codec``) under every byte that leaves a
process.

* **Round trip** — every message kind of the wire protocol and every row
  kind of the store and the campaign record decodes, under its own
  schema, to a value ``==`` the one encoded (expressions to the very
  interned nodes), and so does every payload of a ``NodeTable`` stream,
  which carries each node once.
* **Totality** — arbitrary bodies, mutated payloads, truncations,
  single-bit flips and oversized frames end in ``DecodeError``, never in
  another exception; a payload of another format version (the pre-codec
  era included) is a ``VersionError`` naming it.
* **Allowlist** — the loader imports nothing but the modules of
  ``codec.RECORDS``, and a record tag outside it is refused.
* **Rejection at the seams** — a damaged store row reads as absent, a
  pre-codec store is refused at open, and a worker whose frame does not
  decode to one of its messages is dead on the spot ("garbled frame").
"""

import dataclasses
import pickle
import socket
import sqlite3
import struct
import typing
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import codec
from repro.campaign import CampaignRecord
from repro.engine.executor import EngineConfig
from repro.engine.state import SNAPSHOT
from repro.engine.stats import EngineStats
from repro.engine.testgen import TestCase
from repro.env.argv import ArgvSpec
from repro.expr import ops
from repro.parallel import ParallelConfig
from repro.parallel import wire
from repro.qce.qce import QceParams
from repro.remote.transport import SocketTransport, _Endpoint
from repro.solver.portfolio import SolverStats
from repro.store import PersistentTier, StoreError, apply_payload, open_store
from repro.store import db
from repro.store.tier import CORE, StorePayload

from test_parallel_snapshot import _frontier, assert_states_equal

# -- strategies: one per value a payload may hold ----------------------------------

names = st.text(alphabet="abcdefgh_$0123456789", min_size=1, max_size=8)
blocks = st.tuples(names, names)
covered = st.sets(blocks, max_size=4)
widths = st.sampled_from([1, 8, 32])


@st.composite
def bv_exprs(draw, width, depth=0):
    if depth >= 3 or draw(st.booleans()):
        if draw(st.booleans()):
            return ops.bv(draw(st.integers(0, (1 << width) - 1)), width)
        return ops.bv_var(draw(names), width)
    kind = draw(st.sampled_from(
        ["add", "sub", "mul", "udiv", "urem", "sdiv", "srem", "bvand", "bvor",
         "bvxor", "shl", "lshr", "ashr", "neg", "bvnot", "ite", "ext"]))
    a = draw(bv_exprs(width, depth + 1))
    if kind in ("neg", "bvnot"):
        return getattr(ops, kind)(a)
    if kind == "ite":
        return ops.ite(draw(bool_exprs(depth + 1)), a, draw(bv_exprs(width, depth + 1)))
    if kind == "ext":
        wide = draw(st.sampled_from([ops.zext, ops.sext]))(a, width + 8)
        return ops.extract(wide, width - 1, 0)
    return getattr(ops, kind)(a, draw(bv_exprs(width, depth + 1)))


@st.composite
def bool_exprs(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        width = draw(widths)
        cmp = draw(st.sampled_from([ops.eq, ops.ult, ops.ule, ops.slt, ops.sle]))
        return cmp(draw(bv_exprs(width, depth + 1)), draw(bv_exprs(width, depth + 1)))
    kind = draw(st.sampled_from(["and_", "or_", "not_", "var"]))
    if kind == "var":
        return ops.bool_var(draw(names))
    a = draw(bool_exprs(depth + 1))
    if kind == "not_":
        return ops.not_(a)
    return getattr(ops, kind)(a, draw(bool_exprs(depth + 1)))


exprs = st.one_of(bool_exprs(), widths.flatmap(lambda w: bv_exprs(w)))


def stats_of(cls):
    """Any instance of a stats dataclass: every field drawn by its type."""
    hints = typing.get_type_hints(cls)
    draw = {int: st.integers(0, 2**40), float: st.floats(0, 1e6), bool: st.booleans()}
    return st.builds(cls, **{f.name: draw[hints[f.name]] for f in dataclasses.fields(cls)})


test_cases = st.builds(
    TestCase,
    kind=st.sampled_from(["path", "assert", "bounds"]),
    argv=st.lists(st.binary(max_size=4), max_size=3).map(tuple),
    model=st.lists(st.tuples(names, st.integers(0, 2**32)), max_size=4).map(tuple),
    exit_code=st.none() | st.integers(-2**31, 2**31),
    line=st.none() | st.integers(0, 999),
    multiplicity=st.integers(1, 2**70),
    stdin=st.binary(max_size=4),
    path_id=st.text(max_size=12),
)
engine_stats, solver_stats = stats_of(EngineStats), stats_of(SolverStats)
rows = st.tuples(st.integers(0, 2**20), st.binary(max_size=40), names,
                 st.integers(0, 99), names, names, st.integers(1, 9))
results = st.tuples(st.lists(test_cases, max_size=3), covered, st.integers(0, 10**6),
                    engine_stats, solver_stats)
store_payloads = st.builds(
    StorePayload,
    program=st.none() | names,
    constraints=st.lists(st.tuples(
        st.text(max_size=16), st.booleans(),
        st.none() | st.dictionaries(names, st.integers(0, 2**32), max_size=3)), max_size=3),
    cores=st.lists(st.tuples(st.integers(1, 9), st.binary(max_size=16)), max_size=2),
)
specs = st.builds(ArgvSpec, n_args=st.integers(1, 3), arg_len=st.integers(0, 4),
                  prog_name=st.binary(min_size=1, max_size=4),
                  stdin_len=st.integers(0, 16))
configs = st.builds(
    EngineConfig,
    merging=st.sampled_from(["none", "static", "dynamic"]),
    qce_params=st.builds(QceParams, alpha=st.floats(0, 1e9), beta=st.floats(0, 1),
                         kappa=st.integers(0, 20)),
    max_steps=st.none() | st.integers(1, 10**6),
    time_budget=st.none() | st.floats(0.1, 60),
    preconditions=st.lists(bool_exprs(), max_size=3).map(tuple),
    store_path=st.none() | st.text(max_size=12),
)
wids = st.integers(0, 64)

FROM_WORKER = [
    st.tuples(st.just(wire.MSG_START), wids, st.integers(0, 2**20)),
    st.tuples(st.just(wire.MSG_DONE), wids, st.integers(0, 2**20),
              st.lists(test_cases, max_size=3), covered, st.integers(0, 10**6),
              engine_stats, solver_stats),
    st.tuples(st.just(wire.MSG_STOLEN), wids, st.lists(rows, max_size=3),
              st.lists(rows, max_size=3), results),
    st.tuples(st.just(wire.MSG_HEARTBEAT), wids),
    st.tuples(st.just(wire.MSG_STATS), wids, engine_stats, solver_stats,
              st.none() | store_payloads),
    st.tuples(st.just(wire.MSG_ERROR), wids, st.text(max_size=40)),
]
TO_WORKER = [
    st.tuples(st.just(wire.TASK_PARTITION), st.integers(0, 2**20), st.binary(max_size=40)),
    st.tuples(st.just(wire.TASK_STOP)),
    st.tuples(st.just(wire.CMD_STEAL), st.integers(0, 2**20)),
]
HANDSHAKE = [
    (wire.HELLO, st.tuples(st.just(wire.MSG_HELLO), st.fixed_dictionaries(
        {"pid": st.integers(1, 2**22), "host": names}))),
    (wire.HANDSHAKE_REPLY, st.tuples(st.just(wire.MSG_WELCOME), wids, names, specs, configs)),
    (wire.HANDSHAKE_REPLY, st.tuples(st.just(wire.MSG_REJECT), st.text(max_size=40))),
]
records = st.builds(
    CampaignRecord,
    campaign=st.none() | names, program=names, spec=specs, config=configs,
    parallel=st.builds(ParallelConfig, workers=st.integers(1, 8),
                       campaign_id=st.none() | names),
    epoch=st.integers(0, 99), phase=st.sampled_from(["split", "dispatch", "drain"]),
    requeue_log=st.lists(st.dictionaries(names, st.integers(0, 9) | names, max_size=3),
                         max_size=2),
    requeue_counts=st.dictionaries(st.integers(0, 99), st.integers(1, 3), max_size=3),
    pending=st.lists(rows, max_size=3), tests=st.lists(test_cases, max_size=3),
    covered=covered, streamed_paths=st.integers(0, 999),
    partition_results=st.lists(st.tuples(st.integers(0, 99), names, st.integers(0, 99),
                                         covered), max_size=2),
    worker_entries=st.lists(st.tuples(names, engine_stats, solver_stats), max_size=2),
    split_entry=st.none() | st.tuples(names, engine_stats, solver_stats),
    split_tests=st.lists(test_cases, max_size=2), split_covered=covered,
    store_payload=st.none() | store_payloads,
)
ROWS = [
    (db.MODEL, st.dictionaries(names, st.integers(0, 2**64), max_size=4)),
    (db.ARGV, st.lists(st.binary(max_size=6), max_size=3).map(tuple)),
    (db.MODEL_ITEMS, st.lists(st.tuples(names, st.integers(0, 2**64)), max_size=4).map(tuple)),
    (db.COVERAGE, st.lists(blocks, max_size=4).map(tuple)),
    (CORE, st.lists(bool_exprs(), min_size=1, max_size=4).map(tuple)),
    (CampaignRecord, records),
]
KINDS = ([(wire.FROM_WORKER, s) for s in FROM_WORKER] + [(wire.TO_WORKER, s) for s in TO_WORKER]
         + HANDSHAKE + ROWS)
KIND_IDS = ([f"from_worker-{i}" for i in range(len(FROM_WORKER))]
            + [f"to_worker-{i}" for i in range(len(TO_WORKER))]
            + ["hello", "welcome", "reject", "model", "argv", "model_items", "coverage",
               "core", "campaign_record"])
LAW = settings(max_examples=40, deadline=None,
               suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


def frame(body: bytes) -> bytes:
    """A well-formed envelope around ``body`` (magic, version, checksum)."""
    return codec._HEAD.pack(codec._MAGIC, codec.FORMAT_VERSION, zlib.crc32(body)) + body


# -- round trip ---------------------------------------------------------------------


@pytest.mark.parametrize("schema,values", KINDS, ids=KIND_IDS)
@LAW
@given(data=st.data())
def test_every_message_and_row_kind_round_trips(schema, values, data):
    value = data.draw(values)
    assert codec.loads(codec.dumps(value), schema) == value


@LAW
@given(st.lists(exprs, min_size=1, max_size=5))
def test_expressions_decode_to_the_interned_nodes(values):
    back = codec.loads(codec.dumps(values), list)
    assert all(b is v for b, v in zip(back, values))


@LAW
@given(st.lists(st.lists(exprs, min_size=1, max_size=4).map(tuple), min_size=1, max_size=5))
def test_a_stream_round_trips_and_sends_each_node_once(values):
    """A :class:`codec.NodeTable` stream decodes each payload to the very
    nodes encoded; a payload whose nodes all went out earlier carries no
    node at all, and is unreadable without the stream."""
    written, read = codec.NodeTable(), codec.NodeTable()
    for value in values:
        sent_before = len(written.index)
        blob = codec.dumps(value, written)
        back = codec.loads(blob, tuple, read)
        assert all(b is v for b, v in zip(back, value)) and len(back) == len(value)
        assert len(read.nodes) == len(written.index)
        if len(written.index) == sent_before:  # nothing new: just references
            assert len(blob) <= len(codec.dumps(value))
            if value and sent_before:
                with pytest.raises(codec.DecodeError):
                    codec.loads(blob, tuple)
    # A payload that fails to encode leaves the stream as it was.
    before = dict(written.index)
    with pytest.raises(TypeError):
        codec.dumps((ops.bv_var("fresh_$", 8), object()), written)
    assert written.index == before


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["echo", "wc", "uniq", "tsort"]), st.sampled_from([8, 30, 60]),
       st.data())
def test_snapshots_round_trip(program, steps, data):
    state = data.draw(st.sampled_from(_frontier(program, steps)))
    blob = state.snapshot()
    codec.loads(blob, SNAPSHOT)
    from repro.engine.state import SymState

    assert_states_equal(state, SymState.from_snapshot(blob, state.sid))


@dataclasses.dataclass(frozen=True)
class Pinned:
    """A frozen record holding an expression (none of RECORDS does)."""

    expr: object


def test_remembered_record_bytes_are_those_of_immutable_expression_free_records(monkeypatch):
    stats = EngineStats()
    codec.dumps(stats)
    stats.forks = 7  # a mutable record is encoded as it is now
    assert codec.loads(codec.dumps(stats), EngineStats).forks == 7
    monkeypatch.setattr(codec, "RECORDS", codec.RECORDS + (f"{__name__}.Pinned",))
    monkeypatch.setitem(codec._CLASSES, "Pinned", Pinned)
    monkeypatch.setattr(codec, "_RESOLVED", dict(codec._RESOLVED))
    x, y = ops.bv_var("pin_x", 8), ops.bv_var("pin_y", 8)
    pinned = Pinned(x)
    codec.dumps((y, pinned))  # x sits at node 1 of this payload ...
    alone = codec.dumps(pinned)  # ... and at node 0 of this one
    codec._record_memo.clear()
    assert alone == codec.dumps(pinned)


# -- totality ---------------------------------------------------------------------------


def decodes_or_refuses(data: bytes, schema=object) -> None:
    try:
        codec.loads(data, schema)
    except codec.DecodeError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=300))
def test_any_body_decodes_or_raises_decode_error(body):
    decodes_or_refuses(frame(body))
    decodes_or_refuses(frame(body), wire.FROM_WORKER)
    decodes_or_refuses(body)


@pytest.mark.parametrize("schema,values", KINDS, ids=KIND_IDS)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_mutated_payloads_decode_or_raise_decode_error(schema, values, data):
    """Edits the checksum would have caught, re-checksummed, so that the
    body parser itself meets them."""
    body = bytearray(codec.dumps(data.draw(values))[codec._HEAD.size:])
    for _ in range(data.draw(st.integers(1, 3))):
        op = data.draw(st.sampled_from(["set", "insert", "delete"]))
        at = data.draw(st.integers(0, len(body)))
        byte = data.draw(st.integers(0, 255))
        if op == "insert":
            body.insert(at, byte)
        elif at < len(body):
            if op == "set":
                body[at] = byte
            else:
                del body[at]
    decodes_or_refuses(frame(bytes(body)), schema)


@pytest.mark.parametrize("schema,values", KINDS, ids=KIND_IDS)
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_truncated_and_bit_flipped_payloads_raise_decode_error(schema, values, data):
    payload = codec.dumps(data.draw(values))
    for end in range(len(payload)):
        with pytest.raises(codec.DecodeError):
            codec.loads(payload[:end], schema)
    for bit in data.draw(st.lists(st.integers(0, 8 * len(payload) - 1), max_size=16)):
        flipped = bytearray(payload)
        flipped[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(codec.DecodeError):
            codec.loads(bytes(flipped), schema)


def test_trailing_bytes_are_refused():
    body = codec.dumps((wire.MSG_HEARTBEAT, 0))[codec._HEAD.size:]
    codec.loads(frame(body), wire.FROM_WORKER)
    with pytest.raises(codec.DecodeError, match="trailing bytes"):
        codec.loads(frame(body + b"\x00"), wire.FROM_WORKER)


def test_oversized_payloads_are_refused_both_ways(monkeypatch):
    payload = codec.dumps(b"x" * 200)
    monkeypatch.setattr(codec, "MAX_FRAME", 100)
    with pytest.raises(codec.DecodeError, match="exceeds MAX_FRAME"):
        codec.loads(payload)
    with pytest.raises(ValueError, match="exceeds MAX_FRAME"):
        codec.dumps(b"x" * 200)


def test_other_format_versions_are_refused_by_name():
    payload = codec.dumps(("anything", 1))
    for version in (codec.FORMAT_VERSION - 1, codec.FORMAT_VERSION + 1):
        other = payload[:3] + bytes([version]) + payload[4:]
        with pytest.raises(codec.VersionError, match=f"format v{version}, this build"):
            codec.loads(other)
    for proto in range(2, pickle.HIGHEST_PROTOCOL + 1):
        with pytest.raises(codec.VersionError, match="pre-codec payload"):
            codec.loads(pickle.dumps(("anything", 1), protocol=proto))


def test_schemas_are_exact():
    assert codec.conforms(3, float) and not codec.conforms(True, int)
    assert codec.conforms(None, int | None) and not codec.conforms("3", int | None)
    assert codec.conforms({"a": 1}, dict[str, int] | None)
    assert not codec.conforms({"a": "1"}, dict[str, int] | None)
    assert not codec.conforms(((b"a", 1),), tuple[tuple[str, int], ...])
    assert not codec.conforms((("a", "1"),), tuple[tuple[str, int], ...])
    assert not codec.conforms([1], tuple[int, ...]) and codec.conforms((), tuple[int, ...])
    assert not codec.conforms((wire.MSG_DONE, 0), wire.FROM_WORKER)
    assert not codec.conforms((wire.MSG_START, 0, "1"), wire.FROM_WORKER)
    with pytest.raises(codec.DecodeError, match="is not a"):
        codec.loads(codec.dumps((wire.MSG_START, 0, 1, 2)), wire.FROM_WORKER)


def test_only_payloads_of_expression_kinds_carry_expressions():
    for schema in (wire.HELLO, wire.TO_WORKER, db.MODEL, db.COVERAGE, ArgvSpec, StorePayload):
        assert not codec._admits_expr(schema)
    # FROM_WORKER names its StorePayload without importing it: assumed to.
    for schema in (wire.FROM_WORKER, wire.HANDSHAKE_REPLY, EngineConfig, SNAPSHOT, CORE,
                   CampaignRecord, object):
        assert codec._admits_expr(schema)
    payload = codec.dumps((wire.MSG_HELLO, {"pid": ops.bv_var("x", 8)}))
    assert codec.loads(payload)[0] == wire.MSG_HELLO
    with pytest.raises(codec.DecodeError, match="holds none"):
        codec.loads(payload, wire.HELLO)


def test_a_record_that_would_not_load_is_not_written():
    with pytest.raises(TypeError, match="TestCase.line is not"):
        codec.dumps(TestCase("path", (b"a",), (), line="3"))
    with pytest.raises(TypeError, match="CampaignRecord.tests is not"):
        codec.dumps(CampaignRecord(None, "wc", ArgvSpec(1, 1), EngineConfig(),
                                   ParallelConfig(), tests=[1]))


# -- the allowlist ----------------------------------------------------------------------


def test_only_allowlisted_records_encode_or_decode():
    @dataclasses.dataclass
    class Stranger:
        x: int

    with pytest.raises(TypeError, match="not a record"):
        codec.dumps(Stranger(1))
    with pytest.raises(TypeError):
        codec.dumps(object())
    body = bytearray([0, codec._RECORD, len(codec.RECORDS), 0])
    with pytest.raises(codec.DecodeError, match="not in the allowlist"):
        codec.loads(frame(bytes(body)))


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=60))
def test_the_loader_imports_nothing_outside_the_allowlist(tail):
    """Every record tag, followed by anything: the only modules the
    loader asks for are the allowlisted records' own."""
    allowed = {name.rpartition(".")[0] for name in codec.RECORDS}
    seen = []
    real = codec.importlib.import_module

    def watched(name, *args):
        seen.append(name)
        return real(name, *args)

    classes, resolved = codec._CLASSES, dict(codec._RESOLVED)
    codec.importlib.import_module = watched
    try:
        for index in range(len(codec.RECORDS) + 2):
            # Resolve afresh, watched.
            codec._RESOLVED.clear()
            codec._CLASSES = codec._Allowlisted(Expr=classes["Expr"])
            decodes_or_refuses(frame(bytes([0, codec._RECORD, index]) + tail))
    finally:
        codec.importlib.import_module = real
        codec._CLASSES = classes
        codec._RESOLVED.update(resolved)
    assert seen and set(seen) <= allowed


# -- rejection at the seams --------------------------------------------------------------


def damaged(blob: bytes) -> bytes:
    return blob[:-1] + bytes([blob[-1] ^ 0x40])


def test_damaged_store_rows_read_as_absent(tmp_path):
    store = open_store(tmp_path / "s.sqlite")
    store.put_constraints([("k", True, {"v0": 1})])
    store.put_tests("p", "spec", [
        ("path", "id1", None, (b"a",), (("x", 1),), b"", 1, {("main", "b0")}),
        ("path", "id2", None, (b"b",), (("x", 2),), b"", 1, {("main", "b1")}),
    ])
    conn = store.conn
    (model,) = conn.execute("SELECT model FROM constraint_cache").fetchone()
    conn.execute("UPDATE constraint_cache SET model = ?", (damaged(model),))
    (model,) = conn.execute("SELECT model FROM tests WHERE path_id = 'id1'").fetchone()
    conn.execute("UPDATE tests SET model = ? WHERE path_id = 'id1'", (damaged(model),))
    (cov,) = conn.execute("SELECT coverage_hash FROM tests WHERE path_id = 'id2'").fetchone()
    blob = store.get_blob(cov)
    conn.execute("UPDATE blobs SET data = ? WHERE hash = ?", (damaged(blob), cov))
    conn.commit()
    assert store.lookup_constraint("k") is None
    assert store.test_model("p", "spec", "path", "id1", None) is None
    assert store.iter_test_models("p", "spec") == [{"x": 2}]
    rows = store.iter_tests("p", "spec")
    assert [(r["path_id"], r["coverage"]) for r in rows] == [("id2", None)]
    store.close()


def test_damaged_core_is_skipped_when_seeding(tmp_path):
    from repro.solver.cache import QueryCache
    from repro.store import seed_query_cache

    store = open_store(tmp_path / "s.sqlite")
    tier = PersistentTier(store, program="p")
    x = ops.bv_var("x", 8)
    tier.record_core([ops.ult(x, ops.bv(2, 8)), ops.ult(ops.bv(5, 8), x)])
    apply_payload(store, tier.export_pending())
    (digest,) = store.conn.execute("SELECT blob_hash FROM unsat_cores").fetchone()
    store.conn.execute("UPDATE blobs SET data = ? WHERE hash = ?",
                       (damaged(store.get_blob(digest)), digest))
    spec = ArgvSpec(n_args=1, arg_len=1)
    assert seed_query_cache(store, QueryCache(), "p", spec) == (0, 0)
    store.close()


def test_a_pre_codec_store_is_refused_at_open(tmp_path):
    path = tmp_path / "old.sqlite"
    open_store(path).close()
    conn = sqlite3.connect(path)
    conn.execute("UPDATE meta SET value = '1' WHERE key = 'schema_version'")
    conn.commit()
    conn.close()
    for readonly in (False, True):
        with pytest.raises(StoreError, match=r"format v1 \(a pre-codec store\), this build"):
            open_store(path, readonly=readonly)


def _reader_verdict(wire_bytes: bytes) -> str:
    """What the coordinator's reader makes of a worker (wid 0) that sends
    ``wire_bytes`` and hangs up."""
    ours, theirs = socket.socketpair()
    transport = SocketTransport(workers=1, program="wc", spec=None, config=None,
                                listen=False)
    endpoint = _Endpoint(0, ours, {})
    theirs.sendall(wire_bytes)
    theirs.close()
    try:
        transport._reader(endpoint)
    finally:
        ours.close()
    return endpoint.dead


# The wire's length prefix, spelled here apart from repro.codec.frame.
_HEADER = struct.Struct(">I")


def _framed(payload: bytes) -> bytes:
    return _HEADER.pack(len(payload)) + payload


DONE = (wire.MSG_DONE, 0, 3, [TestCase("path", (b"a",), (("x", 1),))], {("main", "b0")}, 2,
        EngineStats(), SolverStats())


@pytest.mark.parametrize("garble", [
    "junk", "truncated", "bit_flipped", "oversized_header", "not_a_message",
    "other_sender", "other_version", "pre_codec",
])
def test_a_worker_frame_that_is_not_a_message_fences_its_sender(garble):
    payload = codec.dumps(DONE)
    sent = {
        "junk": _framed(b"junk!"),
        "truncated": _framed(payload[:-5]),
        "bit_flipped": _framed(payload[:20] + bytes([payload[20] ^ 8]) + payload[21:]),
        "oversized_header": _HEADER.pack(codec.MAX_FRAME + 1) + payload,
        "not_a_message": _framed(codec.dumps(("done", 0, 3))),
        "other_sender": _framed(codec.dumps((wire.MSG_HEARTBEAT, 1))),
        "other_version": _framed(payload[:3] + bytes([payload[3] + 1]) + payload[4:]),
        "pre_codec": _framed(pickle.dumps(DONE)),
    }[garble]
    # A good frame first: the reader is past the handshake and reading.
    assert _reader_verdict(_framed(codec.dumps((wire.MSG_HEARTBEAT, 0))) + sent) == \
        "garbled frame"
    assert _reader_verdict(_framed(payload)) == "disconnect"


def test_the_worker_hangs_up_on_a_garbled_coordinator_frame():
    from repro.remote import WorkerSession

    ours, theirs = socket.socketpair()
    try:
        reply = (wire.MSG_WELCOME, 0, "wc", ArgvSpec(1, 1), EngineConfig())
        ours.sendall(_framed(codec.dumps(reply)))
        session = WorkerSession(theirs, heartbeat_interval=60.0)
        ours.sendall(_framed(codec.dumps((wire.TASK_PARTITION, 1, "not bytes"))))
        assert session.task_q.get(timeout=10.0) == (wire.TASK_STOP,)
        assert not session.clean_stop
        session.close()
    finally:
        ours.close()

"""The one encoding of every byte that leaves a process.

Wire frames (:mod:`repro.remote`), campaign checkpoint records
(:mod:`repro.campaign`), store rows and blobs (:mod:`repro.store`) and
state snapshots (:meth:`repro.engine.state.SymState.snapshot`) are all
:func:`dumps` bytes, read back with :func:`loads`.

**Format.**  ``b"RPC"``, the format version byte, the CRC-32 of the body,
then the body: the expression-node table, then one tagged value.  One
version, :data:`FORMAT_VERSION`, covers every kind of payload; a store
file records it too, so a store, a record, a frame and a snapshot are
all of one format or refused.

**Values.**  ``None``, ``bool``, ``int``, ``float``, ``str``, ``bytes``,
``tuple``, ``list``, ``dict``, ``set``, ``frozenset``, interned
expressions (:class:`~repro.expr.nodes.Expr`; a DAG shared within one
payload is encoded once, children before parents, and decodes to this
process's interned nodes, so ``is`` between subterms survives) and
*records*: instances of the dataclasses :data:`RECORDS` names, encoded as
their fields in order.  Nothing else encodes.

**The loader is total.**  Any byte string either decodes or raises
:class:`DecodeError` — damage (the checksum), truncation, trailing bytes,
a frame over :data:`MAX_FRAME`, an unknown tag, expression kind or
record, a record whose fields do not match its annotations, a value that
does not match the caller's schema.  A payload of another format version
raises its subclass :class:`VersionError`, naming both versions — a
payload of the pre-codec era (Python's native object serialization, which
ran arbitrary constructors on load) by that name.  The loader resolves no
global outside :data:`RECORDS`: a record is named by its index there and
built by its own constructor from decoded plain values.

**Frames.**  A stream between processes (the remote wire, the solve
helper's socket) carries each payload as one :func:`frame`: its 4-byte
big-endian length, then the payload.  :func:`frame_size` reads that
length and refuses one over the limit before a byte of the payload is
read.

**Streams.**  Successive payloads of one connection may share a
:class:`NodeTable`: each then carries only the expression nodes no
earlier payload of the stream carried and refers to the others by their
position, so a sequence of path conditions with a common prefix is not
re-encoded payload after payload.  The reader holds a table of its own
and must read every payload, in order.

**Schemas.**  ``loads(data, schema)`` holds the value to a type
expression — ``int``, ``str | None``, ``tuple[bytes, ...]``,
``dict[str, int]``, ``list[TestCase]``, ``Literal["done"]`` or a union of
message shapes — written once where the message or row kind is defined
(:mod:`repro.parallel.wire`, :mod:`repro.store.db`, …).  A record may
also be named by its entry in :data:`RECORDS`, where importing its class
would be premature.  A record's own fields are held to its annotations
whatever the schema, by :func:`dumps` (``TypeError``) as by the loader.
A payload whose schema admits no expression must carry an empty node
table, so a frame of the wrong kind interns nothing.
"""

from __future__ import annotations

import dataclasses
import importlib
import struct
import typing
import zlib
from types import NoneType, UnionType

from .expr import nodes as N
from .expr.nodes import Expr
from .expr.sorts import BOOL, BVSort
from .memo import BoundedMemo

# The one format version.  Bumped whenever any payload layout changes.
#   v5 — this codec; every earlier store (v1), record and frame (v2–v4)
#        and snapshot was Python's native object serialization.
#   v6 — a campaign record lists its accepted tests' batch blobs.
#   v7 — one stats record per ledger participant (engine and solver
#        counters in one ``Stats``).
#   v8 — no adaptive split fan-out: ``Stats``, ``CampaignRecord`` and
#        ``ParallelConfig`` lose its fields; a run row keeps its counters
#        in the stats snapshot alone.
FORMAT_VERSION = 8

# The largest payload either side accepts (a partition snapshot is
# kilobytes, a checkpoint record of a 588-test campaign tens of them).
MAX_FRAME = 1 << 27

# The dataclasses a payload may hold, by dotted name.  The loader resolves
# nothing else; a record's tag carries its index in this tuple.
RECORDS = (
    "repro.engine.testgen.TestCase",
    "repro.stats.Stats",
    "repro.store.tier.StorePayload",
    "repro.env.argv.ArgvSpec",
    "repro.qce.qce.QceParams",
    "repro.engine.executor.EngineConfig",
    "repro.parallel.coordinator.ParallelConfig",
    "repro.campaign.record.CampaignRecord",
)

_MAGIC = b"RPC"
_HEAD = struct.Struct(">3sBI")  # magic, version, CRC-32 of the body
_FRAME = struct.Struct(">I")  # a frame's payload length
FRAME_HEADER = _FRAME.size
_DOUBLE = struct.Struct(">d")
_PRE_CODEC = b"\x80"  # the first byte of every pre-codec payload (protocol 2+)

# Value tags.  0x00-0x7F are the small ints themselves.
_NONE, _FALSE, _TRUE, _INT, _FLOAT, _STR, _BYTES = range(0x80, 0x87)
_TUPLE, _LIST, _DICT, _SET, _FROZENSET, _RECORD, _EXPR = range(0x87, 0x8E)

# Expression kinds by code: (kind, children, integer params).
_KINDS = (
    (N.CONST, 0, 0), (N.VAR, 0, 0),
    (N.ADD, 2, 0), (N.SUB, 2, 0), (N.MUL, 2, 0), (N.UDIV, 2, 0),
    (N.UREM, 2, 0), (N.SDIV, 2, 0), (N.SREM, 2, 0), (N.NEG, 1, 0),
    (N.BVAND, 2, 0), (N.BVOR, 2, 0), (N.BVXOR, 2, 0), (N.BVNOT, 1, 0),
    (N.SHL, 2, 0), (N.LSHR, 2, 0), (N.ASHR, 2, 0),
    (N.ZEXT, 1, 1), (N.SEXT, 1, 1), (N.EXTRACT, 1, 2), (N.CONCAT, 2, 0),
    (N.EQ, 2, 0), (N.ULT, 2, 0), (N.ULE, 2, 0), (N.SLT, 2, 0), (N.SLE, 2, 0),
    (N.NOT, 1, 0), (N.AND, 2, 0), (N.OR, 2, 0), (N.XOR, 2, 0),
    (N.IMPLIES, 2, 0), (N.ITE, 3, 0),
)
_KIND_CODE = {kind: code for code, (kind, _, _) in enumerate(_KINDS)}
_MAX_WIDTH = 1 << 16

# eid -> (kind and sort bytes, child eids, params and payload bytes): a
# node's encoding up to its children's positions, which are per payload.
# Sibling snapshots and store rows share most of their DAGs.
_node_memo = BoundedMemo(65536, process_wide=True)
_stats = {"fresh_encodes": 0, "memo_hits": 0}
# id -> (record, its bytes) for frozen records that hold no expression:
# immutable values, whose bytes do not depend on the payload around them.
# Every campaign checkpoint re-encodes the replay context and the split
# phase's tests.
_record_memo = BoundedMemo(1 << 14, process_wide=True)


class DecodeError(ValueError):
    """Bytes that are not a payload of this format (or not the one asked for)."""


class VersionError(DecodeError):
    """A payload of another format version."""


def codec_stats() -> dict[str, int]:
    """Counters of the per-process node-encoding memo (diagnostics)."""
    return dict(_stats)


# -- primitives -------------------------------------------------------------------


def _put_size(out: bytearray, n: int) -> None:
    while n >= 0x80:
        out.append((n & 0x7F) | 0x80)
        n >>= 7
    out.append(n)


def _put_int(out: bytearray, v: int) -> None:
    if 0 <= v < 0x80:
        out.append(v)
    else:
        raw = v.to_bytes((v.bit_length() + 8) // 8, "big", signed=True)
        out.append(_INT)
        _put_size(out, len(raw))
        out += raw


def _put_str(out: bytearray, v: str) -> None:
    raw = v.encode()
    _put_size(out, len(raw))
    out += raw


# -- records ------------------------------------------------------------------------

# class -> (tag index, field names, frozen);
# index -> (class, field names, (field schema, its predicate) per field)
_LAYOUT: dict[type, tuple[int, tuple[str, ...], bool]] = {}
_RESOLVED: dict[int, tuple[type, tuple[str, ...], tuple]] = {}


class _Allowlisted(dict):
    """The records by class name, each imported on its first lookup: the
    namespace record annotations are read in, so a name outside
    :data:`RECORDS` never resolves through it."""

    def __missing__(self, name: str) -> type:
        module, _, qualname = _BY_NAME[name].rpartition(".")
        cls = self[name] = getattr(importlib.import_module(module), qualname)
        return cls


_BY_NAME = {name.rpartition(".")[2]: name for name in RECORDS}
_CLASSES = _Allowlisted(Expr=Expr)


def _layout(cls: type) -> tuple[int, tuple[str, ...], bool]:
    layout = _LAYOUT.get(cls)
    if layout is None:
        name = f"{cls.__module__}.{cls.__qualname__}"
        if name not in RECORDS or not dataclasses.is_dataclass(cls):
            raise TypeError(f"{name} is not a record this codec encodes")
        names = tuple(f.name for f in dataclasses.fields(cls) if f.init)
        frozen = cls.__dataclass_params__.frozen
        layout = _LAYOUT[cls] = (RECORDS.index(name), names, frozen)
    return layout


def _record_class(index: int) -> tuple[type, tuple[str, ...], tuple]:
    resolved = _RESOLVED.get(index)
    if resolved is None:
        if index >= len(RECORDS):
            raise DecodeError(f"record #{index} is not in the allowlist")
        cls = _CLASSES[RECORDS[index].rpartition(".")[2]]
        hints = typing.get_type_hints(cls, localns=_CLASSES)
        names = _layout(cls)[1]
        resolved = _RESOLVED[index] = (
            cls, names, tuple((hints[n], _checker(hints[n])) for n in names))
    return resolved


def _check_fields(index: int, values, error: type[Exception]) -> None:
    """Hold a record's field values to its annotations: a record that
    would not load is not written either."""
    cls, names, schemas = _record_class(index)
    for name, (schema, check), v in zip(names, schemas, values):
        if not check(v):
            raise error(f"{cls.__name__}.{name} is not a {schema}")


# -- encoding -------------------------------------------------------------------------


def _node_bytes(node: Expr) -> tuple[bytes, tuple[int, ...], bytes]:
    head = bytearray((_KIND_CODE[node.kind],))
    _put_size(head, 0 if node.sort is BOOL else node.sort.width)
    tail = bytearray()
    for p in node.params:
        _put_size(tail, p)
    if node.kind == N.CONST:
        _put_int(tail, node.value)
    elif node.kind == N.VAR:
        tail.append(_STR)
        _put_str(tail, node.name)
    return bytes(head), tuple(c.eid for c in node.children), bytes(tail)


class NodeTable:
    """The expression nodes earlier payloads of one stream carried: by eid
    on the writing end, by position on the reading end."""

    __slots__ = ("index", "nodes")

    def __init__(self) -> None:
        self.index: dict[int, int] = {}  # written: eid -> position
        self.nodes: list[Expr] = []  # read: position -> node


class _Encoder:
    __slots__ = ("out", "nodes", "index", "refs")

    def __init__(self, index: dict[int, int] | None = None):
        self.out = bytearray()
        self.nodes = bytearray()
        # eid -> position in the node table (a stream's: earlier payloads too)
        self.index: dict[int, int] = {} if index is None else index
        self.refs = 0  # expression references written

    def value(self, v) -> None:
        out = self.out
        t = type(v)
        if t is int:
            _put_int(out, v)
        elif t is str:
            out.append(_STR)
            _put_str(out, v)
        elif t is tuple or t is list:
            out.append(_TUPLE if t is tuple else _LIST)
            _put_size(out, len(v))
            self.items(v)
        elif t is Expr:
            out.append(_EXPR)
            _put_size(out, self.expr(v))
            self.refs += 1
        elif v is None:
            out.append(_NONE)
        elif t is bool:
            out.append(_TRUE if v else _FALSE)
        elif t is bytes:
            out.append(_BYTES)
            _put_size(out, len(v))
            out += v
        elif t is dict:
            out.append(_DICT)
            _put_size(out, len(v))
            for k, x in v.items():
                self.value(k)
                self.value(x)
        elif t is set or t is frozenset:
            out.append(_SET if t is set else _FROZENSET)
            _put_size(out, len(v))
            self.items(v)
        elif t is float:
            out.append(_FLOAT)
            out.append(_DOUBLE.size)
            out += _DOUBLE.pack(v)
        else:
            index, names, frozen = _layout(t)
            if frozen:
                memo = _record_memo.get(id(v))  # the entry pins v: no id reuse
                if memo is not None:
                    out += memo[1]
                    return
            start, refs = len(out), self.refs
            out.append(_RECORD)
            _put_size(out, index)
            _put_size(out, len(names))
            values = [getattr(v, name) for name in names]
            _check_fields(index, values, TypeError)
            self.items(values)
            if frozen and self.refs == refs:
                _record_memo.put(id(v), (v, bytes(out[start:])))

    def items(self, values) -> None:
        for v in values:
            self.value(v)

    def expr(self, root: Expr) -> int:
        index = self.index
        if root.eid in index:
            return index[root.eid]
        nodes = self.nodes
        # Iterative postorder: symbolic memory reads build deep ite chains.
        stack: list[tuple[Expr, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if node.eid in index:
                continue
            if not expanded:
                stack.append((node, True))
                stack.extend((c, False) for c in node.children if c.eid not in index)
                continue
            memo = _node_memo.get(node.eid)
            if memo is None:
                memo = _node_bytes(node)
                _node_memo.put(node.eid, memo)
                _stats["fresh_encodes"] += 1
            else:
                _stats["memo_hits"] += 1
            head, child_eids, tail = memo
            nodes += head
            for eid in child_eids:
                _put_size(nodes, index[eid])
            nodes += tail
            index[node.eid] = len(index)
        return index[root.eid]


def dumps(value, table: NodeTable | None = None) -> bytes:
    """Encode ``value`` (see the module docstring for what encodes), as the
    next payload of ``table``'s stream if one is given."""
    enc = _Encoder(None if table is None else table.index)
    known = len(enc.index)
    try:
        enc.value(value)
        body = bytearray()
        _put_size(body, len(enc.index) - known)
        body += enc.nodes
        body += enc.out
        if len(body) + _HEAD.size > MAX_FRAME:
            raise ValueError(f"payload of {len(body)} bytes exceeds MAX_FRAME")
    except BaseException:
        for eid in list(enc.index)[known:]:  # nodes of a payload never written
            del enc.index[eid]
        raise
    return _HEAD.pack(_MAGIC, FORMAT_VERSION, zlib.crc32(body)) + body


# -- decoding -------------------------------------------------------------------------


class _Decoder:
    __slots__ = ("data", "pos", "nodes")

    def __init__(self, data: bytes, nodes: list[Expr] | None = None):
        self.data = data
        self.pos = 0
        self.nodes: list[Expr] = [] if nodes is None else nodes

    def size(self) -> int:
        data, pos = self.data, self.pos
        b = data[pos]
        n, shift = b & 0x7F, 7
        while b & 0x80:
            pos += 1
            b = data[pos]
            n |= (b & 0x7F) << shift
            shift += 7
            if shift > 35:
                raise DecodeError("size field too long")
        self.pos = pos + 1
        return n

    def node_table(self, admitted: bool) -> None:
        out = self.nodes
        count = self.size()
        if count and not admitted:
            raise DecodeError("expressions in a payload whose schema holds none")
        for _ in range(count):
            code = self.size()
            if code >= len(_KINDS):
                raise DecodeError(f"unknown expression kind #{code}")
            kind, arity, n_params = _KINDS[code]
            width = self.size()
            if width > _MAX_WIDTH:
                raise DecodeError(f"bitvector width {width} out of range")
            sort = BOOL if width == 0 else BVSort(width)
            children = []
            for _ in range(arity):
                i = self.size()
                if i >= len(out):
                    raise DecodeError("expression node refers forward")
                children.append(out[i])
            params = tuple(self.size() for _ in range(n_params))
            value = name = None
            if kind == N.CONST:
                value = self.value()
                limit = 2 if width == 0 else 1 << width
                if type(value) is not int or not 0 <= value < limit:
                    raise DecodeError(f"constant {value!r} does not fit {sort}")
            elif kind == N.VAR:
                name = self.value()
                if type(name) is not str:
                    raise DecodeError("a variable without a name")
            out.append(Expr._make(kind, sort, tuple(children), value, name, params))

    def value(self):
        data, pos = self.data, self.pos
        tag = data[pos]
        if tag < 0x80:
            self.pos = pos + 1
            return tag
        if tag <= _TRUE:
            self.pos = pos + 1
            return None if tag == _NONE else tag == _TRUE
        n = data[pos + 1]  # every other tag is followed by a size
        if n < 0x80:
            self.pos = pos + 2
        else:
            self.pos = pos + 1
            n = self.size()
        if tag <= _BYTES:  # _INT, _FLOAT, _STR, _BYTES: n raw bytes
            start = self.pos
            raw = data[start:start + n]
            if len(raw) != n:
                raise DecodeError("truncated payload")
            self.pos = start + n
            if tag == _STR:
                return raw.decode()
            if tag == _BYTES:
                return raw
            if tag == _INT:
                return int.from_bytes(raw, "big", signed=True)
            if n != _DOUBLE.size:
                raise DecodeError(f"a float of {n} bytes")
            return _DOUBLE.unpack(raw)[0]
        if tag == _TUPLE:
            return tuple(self.items(n))
        if tag == _LIST:
            return self.items(n)
        if tag == _EXPR:
            if n >= len(self.nodes):
                raise DecodeError("expression index out of range")
            return self.nodes[n]
        if tag == _RECORD:
            return self.record(n)
        if tag == _DICT:
            flat = iter(self.items(2 * n))
            return dict(zip(flat, flat))
        if tag == _SET:
            return set(self.items(n))
        if tag == _FROZENSET:
            return frozenset(self.items(n))
        raise DecodeError(f"unknown tag {tag:#x}")

    def items(self, n: int) -> list:
        return [self.value() for _ in range(n)]

    def record(self, index: int):
        cls, names, _ = _record_class(index)
        if self.size() != len(names):
            raise DecodeError(f"{cls.__name__} has {len(names)} fields in this build")
        values = self.items(len(names))
        _check_fields(index, values, DecodeError)
        return cls(*values)


def loads(data: bytes, schema=object, table: NodeTable | None = None):
    """Decode one :func:`dumps` payload and hold it to ``schema``; raises
    :class:`DecodeError` (:class:`VersionError`) on anything else.  With
    ``table``, the payload is the next of a stream (a payload that does not
    load leaves the stream unreadable)."""
    if len(data) > MAX_FRAME:
        raise DecodeError(f"payload of {len(data)} bytes exceeds MAX_FRAME")
    if data[:1] == _PRE_CODEC:
        raise VersionError(
            f"a pre-codec payload: this build reads only format v{FORMAT_VERSION}")
    if len(data) < _HEAD.size or data[:3] != _MAGIC:
        raise DecodeError("not a repro codec payload")
    _, version, crc = _HEAD.unpack_from(data)
    if version != FORMAT_VERSION:
        raise VersionError(f"format v{version}, this build reads v{FORMAT_VERSION}")
    body = bytes(data[_HEAD.size:])
    if zlib.crc32(body) != crc:
        raise DecodeError("checksum mismatch: the payload is damaged")
    admitted = _admits_expr(schema)
    dec = _Decoder(body, None if table is None else table.nodes)
    try:
        dec.node_table(admitted)
        value = dec.value()
    except DecodeError:
        raise
    except Exception as exc:  # noqa: BLE001 — the one error a payload can cause
        raise DecodeError(f"malformed payload ({type(exc).__name__}: {exc})") from exc
    if dec.pos != len(body):
        raise DecodeError("trailing bytes after the payload")
    if not conforms(value, schema):
        raise DecodeError(f"payload is not a {schema}")
    return value


# -- framing --------------------------------------------------------------------------


def frame(value, table: NodeTable | None = None) -> bytes:
    """``value``'s :func:`dumps` payload behind its length: one frame."""
    payload = dumps(value, table)
    return _FRAME.pack(len(payload)) + payload


def frame_size(head, offset: int = 0, limit: int = MAX_FRAME) -> int:
    """The payload length of the frame whose header is at ``head[offset:]``;
    raises :class:`DecodeError` past ``limit``."""
    (size,) = _FRAME.unpack_from(head, offset)
    if size > limit:
        raise DecodeError(f"oversized frame: {size} bytes, over the {limit}-byte limit")
    return size


def conforms(value, schema) -> bool:
    """Whether ``value`` is of the type expression ``schema`` (exact
    types: a ``bool`` is no ``int``; an ``int`` is also a ``float``)."""
    return _checker(schema)(value)


# schema -> whether a value of it may hold an expression.
_ADMITS: dict = {}


def _admits_expr(schema) -> bool:
    """Whether ``schema`` admits an expression anywhere.  A payload of a
    schema that admits none must carry an empty node table: a peer cannot
    make this process intern nodes with a frame of the wrong kind."""
    admits = _ADMITS.get(schema)
    if admits is None:
        _ADMITS[schema] = False  # a record reached again through its fields
        admits = _ADMITS[schema] = _finds_expr(schema)
    return admits


def _finds_expr(schema) -> bool:
    if schema is object or schema is Expr or type(schema) in (str, typing.ForwardRef):
        return True  # anything, or a record named but not imported
    if type(schema) is type:
        if schema in (tuple, list, dict, set, frozenset):
            return True  # a container of anything
        if f"{schema.__module__}.{schema.__qualname__}" not in RECORDS:
            return False
        fields = _record_class(_layout(schema)[0])[2]
        return any(_admits_expr(field) for field, _ in fields)
    if typing.get_origin(schema) is typing.Literal:
        return False
    return any(_admits_expr(a) for a in typing.get_args(schema) if a is not Ellipsis)


# schema -> predicate: each type expression is compiled once.
_CHECKERS: dict = {}


def _checker(schema):
    check = _CHECKERS.get(schema)
    if check is None:
        check = _CHECKERS[schema] = _compile(schema)
    return check


def _compile(schema):
    if schema is object:
        return lambda v: True
    if schema is float:
        return lambda v: type(v) is float or type(v) is int
    if type(schema) is type:
        return lambda v: type(v) is schema
    if schema is None or schema is NoneType:
        return lambda v: v is None
    if isinstance(schema, typing.ForwardRef):
        schema = schema.__forward_arg__
    if type(schema) is str:  # a record by its name in RECORDS, not imported
        if schema not in RECORDS:
            raise ValueError(f"{schema} is not an allowlisted record")
        return lambda v: f"{type(v).__module__}.{type(v).__qualname__}" == schema
    origin, args = typing.get_origin(schema), typing.get_args(schema)
    if origin is UnionType or origin is typing.Union:
        alternatives = [_checker(a) for a in args]

        def any_of(v):
            for check in alternatives:
                if check(v):
                    return True
            return False
        return any_of
    if origin is typing.Literal:
        return lambda v: any(type(v) is type(a) and v == a for a in args)
    if origin is tuple and not (len(args) == 2 and args[1] is Ellipsis):
        n, checks = len(args), [_checker(a) for a in args]

        def fixed_tuple(v):
            if type(v) is not tuple or len(v) != n:
                return False
            for check, x in zip(checks, v):
                if not check(x):
                    return False
            return True
        return fixed_tuple
    if origin is dict:
        key, val = _checker(args[0]), _checker(args[1])
        return lambda v: type(v) is dict and all(
            key(k) and val(x) for k, x in v.items())
    item = _checker(args[0])
    return lambda v: type(v) is origin and all(map(item, v))

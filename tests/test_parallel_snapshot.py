"""Round-trip properties of state snapshots (repro.parallel's wire format).

A snapshot is a restartable path prefix: ``state -> bytes -> state`` must
preserve everything exploration depends on — the path condition, every
store and region, the frame stack, and the independence-group signatures
the incremental solver keys its persistent blasters by.  Because
expressions are interned, restoring in the *same* process must give back
identical (``is``) expression objects; restoring in another process (the
real use) is exercised by the process-backend tests in
``test_parallel_run.py``.
"""

import dataclasses
import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import codec
from repro.engine.executor import Engine, EngineConfig
from repro.engine.state import SNAPSHOT, SymState
from repro.env.argv import ArgvSpec
from repro.expr import ops
from repro.parallel.partition import Partition
from repro.parallel.wire import ROW
from repro.programs.registry import get_program
from repro.expr.independence import split_independent


def group_signatures(pc):
    """Independence-group signatures of a pc (frozensets of variable names)."""
    return {
        frozenset().union(*(c.variables for c in group))
        for group in split_independent(list(pc))
        if any(c.variables for c in group)
    }


def assert_states_equal(a: SymState, b: SymState):
    assert a.loc_key() == b.loc_key()
    assert a.shape_fingerprint() == b.shape_fingerprint()
    # Interning makes identity the equality of expressions.
    assert len(a.pc) == len(b.pc) and all(x is y for x, y in zip(a.pc, b.pc))
    assert all(x is y for x, y in zip(a.output, b.output))
    for fa, fb in zip(a.frames, b.frames):
        assert (fa.func, fa.block, fa.idx, fa.ret_dst, fa.depth) == (
            fb.func, fb.block, fb.idx, fb.ret_dst, fb.depth)
        assert fa.store.keys() == fb.store.keys()
        assert all(fa.store[k] is fb.store[k] for k in fa.store)
        assert fa.arrays.keys() == fb.arrays.keys()
        for name in fa.arrays:
            ba, bb = fa.arrays[name], fb.arrays[name]
            assert ba.key == bb.key and ba.row is bb.row
    assert a.globals_store.keys() == b.globals_store.keys()
    assert all(a.globals_store[k] is b.globals_store[k] for k in a.globals_store)
    assert a.regions.keys() == b.regions.keys()
    for key in a.regions:
        ra, rb = a.regions[key], b.regions[key]
        assert (ra.cols, ra.width) == (rb.cols, rb.width)
        assert all(x is y for x, y in zip(ra.cells, rb.cells))
    assert a.multiplicity == b.multiplicity
    assert a.steps == b.steps
    assert a.halted == b.halted
    assert a.exit_code is b.exit_code
    assert a.error == b.error
    assert a.generation == b.generation
    if a.exact_pcs is None:
        assert b.exact_pcs is None
    else:
        assert all(
            all(x is y for x, y in zip(pa, pb))
            for pa, pb in zip(a.exact_pcs, b.exact_pcs)
        )
    assert group_signatures(a.pc) == group_signatures(b.pc)


def frontier_states(program: str, steps: int, **config_kwargs):
    """Drive a real engine a few steps and harvest mid-run worklist states."""
    info = get_program(program)
    spec = ArgvSpec(n_args=info.default_n, arg_len=info.default_l,
                    stdin_len=info.default_stdin)
    engine = Engine(info.compile(), spec, EngineConfig(**config_kwargs))
    engine.seed_states([engine.make_initial_state()])
    engine.explore(interrupt=lambda eng: eng.stats.blocks_executed >= steps)
    return engine, engine.worklist


def test_roundtrip_initial_state():
    engine, _ = frontier_states("echo", steps=0)
    state = engine.make_initial_state()
    restored = SymState.from_snapshot(state.snapshot(), state.sid)
    assert_states_equal(state, restored)


def test_roundtrip_midrun_frontier_all_programs():
    for program in ("echo", "wc", "uniq", "tsort", "basename"):
        _, worklist = frontier_states(program, steps=30)
        assert worklist, f"{program}: no frontier to snapshot"
        for state in worklist:
            restored = SymState.from_snapshot(state.snapshot(), state.sid)
            assert_states_equal(state, restored)


def test_roundtrip_with_merging_and_exact_paths():
    _, worklist = frontier_states(
        "wc", steps=60, merging="dynamic", similarity="qce",
        strategy="coverage", track_exact_paths=True,
    )
    for state in worklist:
        restored = SymState.from_snapshot(state.snapshot(), state.sid)
        assert_states_equal(state, restored)


def test_roundtrip_halted_state():
    engine, _ = frontier_states("true", steps=0)
    state = engine.make_initial_state()
    state.halted = True
    state.exit_code = ops.bv(3, 32)
    restored = SymState.from_snapshot(state.snapshot(), state.sid)
    assert restored.halted and restored.exit_code is state.exit_code


def test_snapshot_is_plain_bytes():
    engine, _ = frontier_states("echo", steps=0)
    state = engine.make_initial_state()
    blob = state.snapshot()
    assert isinstance(blob, bytes)
    # One codec payload of the snapshot's shape; its expressions decode to
    # this process's interned nodes.
    payload = codec.loads(blob, SNAPSHOT)
    assert payload[3] == state.pc and all(a is b for a, b in zip(payload[3], state.pc))


def test_resume_from_snapshot_explores_identically():
    """Restored prefix explores to the same terminal set as the original."""
    engine, worklist = frontier_states("wc", steps=20, generate_tests=True)
    blobs = [s.snapshot() for s in engine.export_frontier(len(worklist))]
    # Continue the original engine's states in a twin engine...
    info = get_program("wc")
    spec = ArgvSpec(n_args=info.default_n, arg_len=info.default_l)

    def finish(states_blobs):
        eng = Engine(info.compile(), spec, EngineConfig(generate_tests=True))
        eng.seed_states(
            [SymState.from_snapshot(b, eng._fresh_sid()) for b in states_blobs]
        )
        eng.explore()
        return eng.tests.multiset()

    assert finish(blobs) == finish(blobs)


# -- the partition row -------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _frontier(program: str, steps: int) -> tuple:
    return tuple(frontier_states(program, steps)[1])


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["echo", "wc", "uniq", "tsort"]),
    st.sampled_from([8, 30, 60]),
    st.integers(0, 2**31),
    st.sampled_from(["split", "steal:0", "requeue:3"]),
    st.data(),
)
def test_partition_row_roundtrip(program, steps, pid, origin, data):
    """A Partition's fields in order are its wire and record row:
    ``astuple`` writes it, ``Partition(*row)`` reads it, the snapshot
    stays bytes at index 1 and restores to the state it was taken from."""
    state = data.draw(st.sampled_from(_frontier(program, steps)))
    part = Partition.from_state(pid, state, origin)
    # What crosses the socket and what a checkpoint record holds.
    row = codec.loads(codec.dumps(dataclasses.astuple(part)), ROW)
    assert isinstance(row[1], bytes) and row[:3] == (pid, part.snapshot, origin)
    assert row[3:] == (
        len(state.pc), state.top.func, state.top.block, len(state.frames))
    back = Partition(*row)
    assert back == part
    assert_states_equal(state, SymState.from_snapshot(back.snapshot, state.sid))


# -- expression codec properties ------------------------------------------------


@st.composite
def small_expr(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        leaf = draw(st.integers(0, 4))
        if leaf == 0:
            return ops.bv(draw(st.integers(0, 255)), 8)
        return ops.bv_var(f"v{leaf}", 8)
    op = draw(st.sampled_from(["add", "mul", "bvand", "ite"]))
    a = draw(small_expr(depth=depth + 1))
    b = draw(small_expr(depth=depth + 1))
    if op == "ite":
        return ops.ite(ops.ult(a, b), a, b)
    return getattr(ops, op)(a, b)


@settings(max_examples=60, deadline=None)
@given(st.lists(small_expr(), min_size=1, max_size=6))
def test_expr_codec_roundtrip_identity(exprs):
    decoded = codec.loads(codec.dumps(exprs))
    # Interning: decode rebuilds the same nodes.
    assert len(decoded) == len(exprs)
    assert all(d is e for d, e in zip(decoded, exprs))


# -- encoding memoization (shared subgraphs encode once per process) -----------


def test_node_encoding_memoized_across_calls():
    x = ops.bv_var("memo_x", 8)
    expr = ops.ult(ops.add(ops.mul(x, ops.bv(3, 8)), ops.bv(1, 8)), ops.bv(40, 8))
    first = codec.dumps(expr)  # whatever was fresh is now memoized
    before = codec.codec_stats()
    again = codec.dumps(expr)
    after = codec.codec_stats()
    assert after["fresh_encodes"] == before["fresh_encodes"], (
        "re-encoding an already-encoded DAG must not re-serialize any node"
    )
    assert after["memo_hits"] >= before["memo_hits"] + expr.node_count()
    # Memoization must not change the payload.
    assert again == first and codec.loads(again) is expr


def test_snapshot_reuses_sibling_encodings():
    """Two sibling frontier states share pc prefixes and store DAGs; the
    second snapshot should encode almost nothing fresh."""
    serialize_stats = codec.codec_stats

    _, states = frontier_states("wc", steps=40)
    assert len(states) >= 2
    states[0].snapshot()
    before = serialize_stats()
    states[0].snapshot()  # identical snapshot: zero fresh encodes
    mid = serialize_stats()
    assert mid["fresh_encodes"] == before["fresh_encodes"]
    states[1].snapshot()  # sibling: shared subgraphs come from the memo
    after = serialize_stats()
    assert after["memo_hits"] > mid["memo_hits"]

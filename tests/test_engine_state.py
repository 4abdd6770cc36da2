"""SymState: cloning, memory regions, ite-chain reads/writes, shape."""

import dataclasses

import pytest

from repro.engine.state import ArrayBinding, Frame, Region, SymState
from repro.expr import ops


def make_state(sid=1):
    state = SymState(sid)
    state.frames = [Frame("main", "entry", 0, {}, {}, None, 1)]
    return state


def with_region(state, name="buf", cells=4, cols=None):
    key = (1, "main", name)
    state.regions[key] = Region(tuple(ops.bv(i, 8) for i in range(cells)), cols, 8)
    state.top.arrays[name] = ArrayBinding(key)
    return key


def test_clone_isolates_mutation():
    s1 = make_state()
    s1.top.store["x"] = ops.bv(1, 8)
    with_region(s1)
    s2 = s1.clone(2)
    s2.top.store["x"] = ops.bv(2, 8)
    s2.regions[(1, "main", "buf")] = Region((ops.bv(9, 8),) * 4, None, 8)
    assert s1.top.store["x"].value == 1
    assert s1.regions[(1, "main", "buf")].cells[0].value == 0


def test_lookup_and_assign_globals_vs_locals():
    s = make_state()
    s.globals_store["g$n"] = ops.bv(5, 32)
    s.top.store["x"] = ops.bv(1, 32)
    assert s.lookup("g$n").value == 5
    s.assign("g$n", ops.bv(6, 32))
    s.assign("x", ops.bv(2, 32))
    assert s.globals_store["g$n"].value == 6
    assert s.top.store["x"].value == 2
    with pytest.raises(KeyError):
        s.lookup("missing")


def test_eval_expr_substitutes_store():
    s = make_state()
    s.top.store["x"] = ops.bv(3, 8)
    expr = ops.add(ops.bv_var("x", 8), ops.bv(1, 8))
    assert s.eval_expr(expr).value == 4


def test_concrete_read_write():
    s = make_state()
    binding = ArrayBinding(with_region(s))
    assert s.read_cells(binding, ops.bv(2, 32)).value == 2
    s.write_cells(binding, ops.bv(2, 32), ops.bv(99, 8))
    assert s.read_cells(binding, ops.bv(2, 32)).value == 99


def test_concrete_out_of_bounds_read_raises():
    s = make_state()
    binding = ArrayBinding(with_region(s))
    with pytest.raises(IndexError):
        s.read_cells(binding, ops.bv(7, 32))


def test_symbolic_read_builds_ite_chain():
    s = make_state()
    binding = ArrayBinding(with_region(s))
    idx = ops.bv_var("i", 32)
    value = s.read_cells(binding, idx)
    assert value.is_symbolic()
    # evaluating the chain at each concrete index gives the right cell
    from repro.expr.evaluate import evaluate

    for k in range(4):
        assert evaluate(value, {"i": k}) == k


def test_symbolic_write_guards_all_cells():
    s = make_state()
    binding = ArrayBinding(with_region(s))
    idx = ops.bv_var("j", 32)
    s.write_cells(binding, idx, ops.bv(77, 8))
    from repro.expr.evaluate import evaluate

    region = s.region_of(binding)
    for cell_index, cell in enumerate(region.cells):
        assert evaluate(cell, {"j": cell_index}) == 77
        assert evaluate(cell, {"j": (cell_index + 1) % 4}) == cell_index


def test_flat_index_2d_row_binding():
    s = make_state()
    key = with_region(s, "grid", cells=6, cols=3)
    row_view = ArrayBinding(key, row=ops.bv(1, 32))
    flat = s.flat_index(row_view, None, ops.bv(2, 32))
    assert flat.value == 5


def test_gc_frame_regions():
    s = make_state()
    s.regions[(2, "callee", "tmp")] = Region((ops.bv(0, 8),), None, 8)
    s.gc_frame_regions(2, "callee")
    assert (2, "callee", "tmp") not in s.regions


def fresh_shape(state):
    """The structural shape by its definition, from nothing cached."""
    frames = tuple(
        (
            f.func, f.block, f.idx, f.ret_dst,
            (
                tuple(sorted(f.store)),
                tuple(sorted(
                    (n, (b.key, None if b.row is None else b.row.eid))
                    for n, b in f.arrays.items()
                )),
            ),
        )
        for f in state.frames
    )
    regions = tuple(sorted((k, len(r.cells), r.cols, r.width) for k, r in state.regions.items()))
    return (frames, regions, len(state.output))


def changes_shape(state, mutate):
    """Fill the shape cache, apply ``mutate``, and check the shape moved
    and equals a fresh computation (the hash: a cache-free rebuild's)."""
    before = state.shape_fingerprint()
    state.shape_hash()
    mutate(state)
    after = state.shape_fingerprint()
    assert after == fresh_shape(state)
    assert after != before
    rebuilt = SymState.from_snapshot(state.snapshot(), 0)
    assert state.shape_hash() == rebuilt.shape_hash()


def test_loc_key_and_shape_fingerprint():
    s1, s2 = make_state(1), make_state(2)
    assert s1.loc_key() == s2.loc_key()
    assert s1.shape_fingerprint() == s2.shape_fingerprint() == fresh_shape(s1)
    assert s1.shape_hash() == s2.shape_hash()
    s2.output = (ops.bv(1, 8),)
    assert s1.shape_fingerprint() != s2.shape_fingerprint()
    assert s1.shape_hash() != s2.shape_hash()


def test_shape_sees_a_first_assignment():
    s = make_state()
    s.top.store["x"] = ops.bv(1, 8)
    changes_shape(s, lambda s: s.assign("y", ops.bv(2, 8)))
    # Reassigning a known name keeps the shape.
    s.assign("y", ops.bv(3, 8))
    assert s.shape_fingerprint() == fresh_shape(s)


def test_shape_sees_a_first_binding():
    s = make_state()
    s.top.store["x"] = ops.bv(1, 8)
    key = with_region(s)
    # A second name for an existing region: same store, same regions.
    changes_shape(s, lambda s: s.top.arrays.__setitem__("alias", ArrayBinding(key)))


def test_shape_sees_a_row_view_binding():
    s = make_state()
    key = with_region(s, "grid", cells=6, cols=3)
    plain = s.clone(2)
    changes_shape(s, lambda s: s.top.arrays.__setitem__("row", ArrayBinding(key, ops.bv(1, 32))))
    changes_shape(plain, lambda s: s.top.arrays.__setitem__("row", ArrayBinding(key)))
    assert s.shape_fingerprint() != plain.shape_fingerprint()


def test_shape_sees_an_added_region():
    s = make_state()
    with_region(s)
    changes_shape(
        s, lambda s: s.regions.__setitem__((0, "global", "g$t"), Region((ops.bv(0, 8),), None, 8))
    )


def call(state, func, arrays):
    """What a call does to the stack: push a frame, allocate its arrays."""
    depth = len(state.frames) + 1
    state.frames.append(Frame(func, "entry", 0, {}, {}, "r", depth))
    for name, cells in arrays.items():
        key = (depth, func, name)
        state.regions[key] = Region(tuple(ops.bv(0, 8) for _ in range(cells)), None, 8)
        state.top.arrays[name] = ArrayBinding(key)


def ret(state):
    frame = state.frames.pop()
    state.gc_frame_regions(frame.depth, frame.func)


def test_shape_sees_a_region_key_swapped_at_equal_count():
    s = make_state()
    with_region(s)
    call(s, "f", {"a": 4})

    def swap(s):
        ret(s)
        call(s, "g", {"b": 4})

    regions = len(s.regions)
    changes_shape(s, swap)
    assert len(s.regions) == regions


def test_shape_sees_a_pushed_and_a_popped_frame():
    s = make_state()
    with_region(s)
    changes_shape(s, lambda s: call(s, "f", {}))
    changes_shape(s, ret)
    changes_shape(s, lambda s: call(s, "f", {"a": 2}))
    changes_shape(s, ret)


def test_shape_of_a_clone_mutated_after_the_cache_was_filled():
    s = make_state()
    s.top.store["x"] = ops.bv(1, 8)
    with_region(s)
    c = s.clone(2)
    assert c.shape_fingerprint() == s.shape_fingerprint()
    changes_shape(c, lambda c: c.assign("y", ops.bv(2, 8)))
    changes_shape(c, lambda c: call(c, "f", {"a": 2}))
    assert s.shape_fingerprint() == fresh_shape(s) != c.shape_fingerprint()


def test_array_bindings_are_frozen():
    binding = ArrayBinding((1, "main", "buf"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        binding.row = ops.bv(0, 32)


def test_add_constraint_skips_true():
    s = make_state()
    s.add_constraint(ops.TRUE)
    assert s.pc == ()
    c = ops.ult(ops.bv_var("v", 8), ops.bv(3, 8))
    s.add_constraint(c)
    assert s.pc == (c,)
    assert s.pc_expr() is c

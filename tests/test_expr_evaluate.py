"""Concrete evaluation, incl. hypothesis agreement with constant folding."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.expr import ops
from repro.expr.evaluate import EvalError, evaluate
from repro.expr.sorts import to_signed, to_unsigned

X = ops.bv_var("evx", 8)
Y = ops.bv_var("evy", 8)

BINOPS = [
    ops.add, ops.sub, ops.mul, ops.udiv, ops.urem, ops.sdiv, ops.srem,
    ops.bvand, ops.bvor, ops.bvxor, ops.shl, ops.lshr, ops.ashr,
]
CMPS = [ops.eq, ops.ult, ops.ule, ops.slt, ops.sle]


def test_unbound_variable_raises():
    with pytest.raises(EvalError):
        evaluate(X, {})


def test_evaluate_variable_normalizes_width():
    assert evaluate(X, {"evx": -1}) == 255
    assert evaluate(X, {"evx": 300}) == 44


def test_evaluate_ite_lazy_on_branches():
    c = ops.ult(X, ops.bv(5, 8))
    e = ops.ite(c, ops.bv(1, 8), ops.bv(2, 8))
    assert evaluate(e, {"evx": 3}) == 1
    assert evaluate(e, {"evx": 9}) == 2


def test_evaluate_extract_concat_extensions():
    e = ops.concat(ops.extract(X, 7, 4), ops.extract(X, 3, 0))
    assert evaluate(e, {"evx": 0xC5}) == 0xC5
    assert evaluate(ops.zext(X, 16), {"evx": 0xFF}) == 0xFF
    assert evaluate(ops.sext(X, 16), {"evx": 0xFF}) == 0xFFFF


@given(st.integers(0, 255), st.integers(0, 255), st.sampled_from(BINOPS))
@settings(max_examples=300, deadline=None)
def test_folding_matches_evaluation_binops(a, b, op):
    """Constant folding in the smart constructors == concrete evaluation."""
    folded = op(ops.bv(a, 8), ops.bv(b, 8))
    assert folded.is_const()
    symbolic = op(X, Y)
    assert evaluate(symbolic, {"evx": a, "evy": b}) == folded.value


@given(st.integers(0, 255), st.integers(0, 255), st.sampled_from(CMPS))
@settings(max_examples=200, deadline=None)
def test_folding_matches_evaluation_comparisons(a, b, op):
    folded = op(ops.bv(a, 8), ops.bv(b, 8))
    assert folded.is_const()
    symbolic = op(X, Y)
    assert evaluate(symbolic, {"evx": a, "evy": b}) == folded.value


@given(st.integers(0, 255), st.integers(0, 15))
@settings(max_examples=100, deadline=None)
def test_shift_semantics(a, s):
    expected_shl = to_unsigned(a << s, 8) if s < 8 else 0
    assert evaluate(ops.shl(X, Y), {"evx": a, "evy": s}) == expected_shl
    expected_lshr = (a >> s) if s < 8 else 0
    assert evaluate(ops.lshr(X, Y), {"evx": a, "evy": s}) == expected_lshr
    expected_ashr = to_unsigned(to_signed(a, 8) >> min(s, 7), 8)
    assert evaluate(ops.ashr(X, Y), {"evx": a, "evy": s}) == expected_ashr


@given(st.sampled_from([1, 8, 32]), st.data(),
       st.sampled_from([ops.sdiv, ops.srem, ops.ashr]))
@settings(max_examples=300, deadline=None)
def test_signed_folds_match_the_unfolded_node(width, data, op):
    """sdiv / srem / ashr have one definition (``repro.expr.sorts``): the
    constant fold and the evaluation of the unfolded node agree at every
    width, on divisor 0, on the most negative value and on shift
    amounts >= width."""
    top = (1 << width) - 1
    operand = st.one_of(
        st.sampled_from(sorted({0, 1, top, 1 << (width - 1), min(width, top)})),
        st.integers(0, top),
    )
    a, b = data.draw(operand), data.draw(operand)
    x, y = ops.bv_var(f"sg{width}x", width), ops.bv_var(f"sg{width}y", width)
    node = op(x, y)
    assert not node.is_const()
    folded = op(ops.bv(a, width), ops.bv(b, width))
    assert folded.is_const()
    assert evaluate(node, {x.name: a, y.name: b}) == folded.value


def test_bool_ops_evaluate():
    c = ops.and_(ops.ult(X, ops.bv(5, 8)), ops.ult(ops.bv(1, 8), X))
    assert evaluate(c, {"evx": 3}) == 1
    assert evaluate(c, {"evx": 7}) == 0
    assert evaluate(ops.not_(c), {"evx": 7}) == 1


# ---------------------------------------------------------------------------
# The caller-owned node memo: unobservable, errors included.
# ---------------------------------------------------------------------------

Z = ops.bv_var("evz", 8)

_bv_leaf = st.one_of(
    st.sampled_from([X, Y, Z]),
    st.integers(0, 255).map(lambda v: ops.bv(v, 8)),
)
_bv = st.recursive(
    _bv_leaf,
    lambda ch: st.one_of(
        st.tuples(st.sampled_from(BINOPS), ch, ch).map(lambda t: t[0](t[1], t[2])),
        st.tuples(st.sampled_from(CMPS), ch, ch, ch, ch).map(
            lambda t: ops.ite(t[0](t[1], t[2]), t[3], t[4])),
    ),
    max_leaves=4,
)
_atom = st.tuples(st.sampled_from(CMPS), _bv, _bv).map(lambda t: t[0](t[1], t[2]))
_CONNECTIVES = [
    lambda new, old: ops.or_(new, old),
    lambda new, old: ops.or_(old, new),
    lambda new, old: ops.and_(new, old),
    lambda new, old: ops.and_(old, new),
    lambda new, old: ops.xor(new, old),
    lambda new, old: ops.not_(old),
    lambda new, old: ops.eq(ops.ite(new, ops.bv(1, 8), ops.bv(2, 8)),
                            ops.ite(old, ops.bv(1, 8), ops.bv(3, 8))),
]


@st.composite
def _constraint_lists(draw):
    """Constraints the way path conditions grow: later ones reuse earlier
    ones — whole, as children, behind short-circuits or not."""
    out = []
    for _ in range(draw(st.integers(1, 5))):
        c = draw(_atom)
        if out and draw(st.booleans()):
            c = draw(st.sampled_from(_CONNECTIVES))(c, draw(st.sampled_from(out)))
        out.append(c)
    return out


def _outcome(expr, assignment, memo=None):
    try:
        return evaluate(expr, assignment, memo)
    except EvalError:
        return "unbound"


@given(
    _constraint_lists(),
    st.dictionaries(st.sampled_from(["evx", "evy", "evz"]), st.integers(0, 255)),
)
@settings(max_examples=100, deadline=None)
def test_shared_memo_equals_fresh_evaluation(constraints, assignment):
    """One memo across a constraint list == each constraint on its own,
    also when a constraint raises mid-list (a variable is unbound) and a
    later one holds the failed constraint as a child."""
    fresh = [_outcome(c, assignment) for c in constraints]
    memo: dict[int, int] = {}
    assert [_outcome(c, assignment, memo) for c in constraints] == fresh
    # Only values were written: the memo answers a second pass the same,
    # and never holds a mark for a failure.
    assert all(type(v) is int for v in memo.values())
    assert [_outcome(c, assignment, memo) for c in constraints] == fresh
    for c, value in zip(constraints, fresh):
        assert (c.eid in memo) == (value != "unbound") or c.is_const()


def test_failed_constraint_as_child_of_a_later_one():
    failed = ops.ult(Y, ops.bv(5, 8))              # evy is unbound
    holds = ops.ult(X, ops.bv(5, 8))
    memo: dict[int, int] = {}
    with pytest.raises(EvalError):
        evaluate(failed, {"evx": 3}, memo)
    assert failed.eid not in memo
    # A lazy ite steps around the unbound variable ...
    guarded = ops.ite(holds, X, ops.ite(failed, Y, Z))
    assert evaluate(guarded, {"evx": 3}, memo) == 3
    # ... and where nothing does, the failure is raised again, not
    # replayed as a value.
    with pytest.raises(EvalError):
        evaluate(ops.not_(failed), {"evx": 3}, memo)
    assert evaluate(holds, {"evx": 3}, memo) == 1 and memo[holds.eid] == 1

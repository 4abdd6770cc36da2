"""Substitution: memoization, folding, flattening helpers."""

import gc

import pytest

from repro.expr import ops
from repro.expr.subst import conjuncts, disjuncts, substitute

X = ops.bv_var("sx", 8)
Y = ops.bv_var("sy", 8)


def test_substitute_noop_when_var_absent():
    e = ops.add(X, ops.bv(1, 8))
    assert substitute(e, {"other": ops.bv(1, 8)}) is e
    assert substitute(e, {}) is e


def test_substitute_variable():
    e = ops.add(X, Y)
    out = substitute(e, {"sx": ops.bv(3, 8)})
    assert out is ops.add(Y, ops.bv(3, 8))


def test_substitute_folds_constants():
    cond = ops.ult(ops.add(X, ops.bv(1, 8)), ops.bv(10, 8))
    out = substitute(cond, {"sx": ops.bv(3, 8)})
    assert out.is_true()


def test_substitute_with_expression():
    e = ops.mul(X, X)
    out = substitute(e, {"sx": ops.add(Y, ops.bv(1, 8))})
    assert out.variables == frozenset({"sy"})


def test_substitute_sort_mismatch_raises():
    with pytest.raises(TypeError):
        substitute(X, {"sx": ops.bv_var("wide", 16)})


def test_substitute_shared_subtrees_once():
    shared = ops.add(X, Y)
    e = ops.mul(shared, shared)
    out = substitute(e, {"sx": ops.bv(2, 8)})
    assert out is ops.mul(ops.add(Y, ops.bv(2, 8)), ops.add(Y, ops.bv(2, 8)))


def test_conjuncts_flattening():
    a, b, c = (ops.ult(X, ops.bv(k, 8)) for k in (10, 20, 30))
    e = ops.and_(ops.and_(a, b), c)
    assert set(conjuncts(e)) == {a, b, c}
    assert conjuncts(a) == [a]


def test_disjuncts_flattening():
    a, b = ops.ult(X, ops.bv(10, 8)), ops.ult(ops.bv(20, 8), X)
    e = ops.or_(a, b)
    assert set(disjuncts(e)) == {a, b}


def test_substitute_rebuilds_extract_zext():
    e = ops.zext(ops.extract(ops.bv_var("sw", 16), 7, 0), 32)
    out = substitute(e, {"sw": ops.bv(0x1234, 16)})
    assert out is ops.bv(0x34, 32)


def test_substitute_leaves_no_cyclic_garbage():
    """Nothing a call allocates outlives it by refcount — comparisons it
    rebuilds included: no closure cycle is left for the cyclic collector."""
    e = ops.ult(ops.ite(ops.eq(X, Y), ops.add(X, ops.bv(1, 8)), ops.bv(3, 8)), ops.bv(9, 8))
    gc.collect()
    gc.disable()
    try:
        for i in range(1000):
            substitute(e, {"sx": ops.bv(i, 8)})
        assert gc.collect() == 0
    finally:
        gc.enable()

"""Independent-constraint splitting and relevance filtering."""

from repro.expr import ops
from repro.expr.independence import relevant_constraints, split_independent

X = ops.bv_var("ix", 8)
Y = ops.bv_var("iy", 8)
Z = ops.bv_var("iz", 8)


def test_disjoint_groups_split():
    a = ops.ult(X, ops.bv(5, 8))
    b = ops.ult(Y, ops.bv(5, 8))
    groups = split_independent([a, b])
    assert len(groups) == 2


def test_shared_variable_joins():
    a = ops.ult(X, Y)
    b = ops.ult(Y, Z)
    groups = split_independent([a, b])
    assert len(groups) == 1
    assert set(groups[0]) == {a, b}


def test_transitive_joining():
    a = ops.ult(X, Y)
    b = ops.ult(Y, ops.bv(9, 8))
    c = ops.ult(Z, ops.bv(3, 8))
    groups = split_independent([a, b, c])
    sizes = sorted(len(g) for g in groups)
    assert sizes == [1, 2]


def test_ground_constraints_isolated():
    t = ops.eq(ops.bv(1, 8), ops.bv(1, 8))  # folds to TRUE
    a = ops.ult(X, ops.bv(5, 8))
    groups = split_independent([t, a])
    assert len(groups) == 2


def test_relevant_constraints_filters():
    a = ops.ult(X, Y)
    b = ops.ult(Z, ops.bv(3, 8))
    query = ops.eq(X, ops.bv(1, 8))
    relevant = relevant_constraints([a, b], query)
    assert relevant == [a]


def test_relevant_constraints_transitive():
    a = ops.ult(X, Y)
    b = ops.ult(Y, Z)
    query = ops.eq(X, ops.bv(1, 8))
    relevant = relevant_constraints([a, b], query)
    assert set(relevant) == {a, b}


def test_relevant_constraints_ground_query():
    a = ops.ult(X, Y)
    assert relevant_constraints([a], ops.TRUE) == []

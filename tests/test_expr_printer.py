"""The infix printer."""

from repro.expr import ops
from repro.expr.printer import to_str

X = ops.bv_var("px", 8)


def test_to_str_infix():
    e = ops.add(X, ops.bv(1, 8))
    assert to_str(e) == "(px + 1)"


def test_to_str_ite_and_not():
    c = ops.ult(X, ops.bv(5, 8))
    assert "ite(" in to_str(ops.ite(c, ops.bv(1, 8), ops.bv(2, 8)))


def test_to_str_depth_elision():
    e = X
    for k in range(20):
        e = ops.add(e, ops.bv_var(f"p{k}", 8))
    assert "…" in to_str(e, max_depth=3)


def test_to_str_signed_constant_display():
    assert to_str(ops.bv(255, 8)) == "-1"
    assert to_str(ops.bv(100, 8)) == "100"

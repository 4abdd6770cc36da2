"""Expression layer: hash-consed bitvector/boolean terms.

Public API::

    from repro.expr import ops
    x = ops.bv_var("x", 8)
    cond = ops.ult(x, ops.bv(10, 8))
"""

from . import nodes, ops
from .evaluate import EvalError, evaluate
from .nodes import Expr, interned_count
from .printer import to_str
from .sorts import BOOL, BV8, BV16, BV32, BV64, BoolSort, BVSort, Sort, to_signed, to_unsigned
from .subst import conjuncts, disjuncts, rebuild, substitute

__all__ = [
    "BOOL",
    "BV8",
    "BV16",
    "BV32",
    "BV64",
    "BVSort",
    "BoolSort",
    "EvalError",
    "Expr",
    "Sort",
    "conjuncts",
    "disjuncts",
    "evaluate",
    "interned_count",
    "nodes",
    "ops",
    "rebuild",
    "substitute",
    "to_signed",
    "to_str",
    "to_unsigned",
]

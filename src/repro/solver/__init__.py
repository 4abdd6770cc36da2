"""Constraint-solving substrate: the role STP plays under KLEE.

Layers (top to bottom): :class:`SolverChain` facade, query cache,
independent-constraint splitting, incomplete fast path, bit-blasting to
CNF, and a from-scratch CDCL SAT solver.
"""

from ..expr.independence import relevant_constraints, split_independent
from .bitblast import BitBlaster, check_sat
from .cache import QueryCache
from .presolve import PresolveEnv, PresolveManager, simplify_group
from .portfolio import (
    CheckResult,
    IncrementalChain,
    SolverChain,
    SolverTimeout,
    complete_model,
)
from .sat import CDCLSolver, SatResult, luby

__all__ = [
    "BitBlaster",
    "CDCLSolver",
    "CheckResult",
    "IncrementalChain",
    "PresolveEnv",
    "PresolveManager",
    "QueryCache",
    "SatResult",
    "SolverChain",
    "SolverTimeout",
    "check_sat",
    "complete_model",
    "luby",
    "relevant_constraints",
    "simplify_group",
    "split_independent",
]

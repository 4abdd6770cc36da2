"""Test-case generation from terminal states (the output of Algorithm 1).

Every completed path (and every error) yields a concrete input assignment
obtained from the solver model of its path condition.  Test cases can be
replayed on the concrete interpreter to validate the engine end to end.

Determinism under partitioning: the engine's long-lived solver chain gives
*order-dependent* models — its caches do subset-UNSAT and model-reuse
lookups and its CDCL cores carry VSIDS activity, so the model for a pc
depends on every query that came before it.  :func:`deterministic_model`
instead seeds a history-free solve from the path prefix alone, making the
generated test a pure function of the pc — which is what lets a 1-worker
run and an N-worker partitioned run emit the *same* test set regardless of
exploration order (see :mod:`repro.parallel`).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from ..env.argv import ArgvSpec
from ..expr.canon import named_key
from ..expr.independence import split_independent
from ..solver.portfolio import SolverChain, complete_model
from .stats import EngineStats


@dataclass(frozen=True)
class TestCase:
    """A generated test input.

    kind: 'path' for a normally completed path, 'assert' for an assertion
    failure, 'bounds' for an out-of-bounds access.
    """

    __test__ = False  # keep pytest from collecting this as a test class

    kind: str
    argv: tuple[bytes, ...]
    model: tuple[tuple[str, int], ...]
    exit_code: int | None = None
    line: int | None = None
    multiplicity: int = 1
    stdin: bytes = b""
    # α-canonical key of the path condition that produced this test (see
    # repro.expr.canon): a stable cross-process path-prefix identity, used
    # by the persistent test corpus to deduplicate across runs.
    path_id: str = ""

    def model_dict(self) -> dict[str, int]:
        return dict(self.model)


@dataclass
class TestSuite:
    __test__ = False  # not a pytest class

    spec: ArgvSpec
    cases: list[TestCase] = field(default_factory=list)

    def add(self, case: TestCase) -> None:
        self.cases.append(case)

    def paths(self) -> list[TestCase]:
        return [c for c in self.cases if c.kind == "path"]

    def errors(self) -> list[TestCase]:
        return [c for c in self.cases if c.kind != "path"]


# History-free model per independence group, keyed by the group's *ordered*
# eid tuple (eids are never reused in a process).  The order matters: the
# solve is a pure function of the constraint list, not of the set, so a
# set key would make the model depend on which ordering was seen first —
# i.e. on exploration order.  Same shape and eviction rule as
# ``presolve._REWRITE_MEMO``; losing an entry only loses acceleration.
_GROUP_MEMO: OrderedDict[tuple[int, ...], dict[str, int] | None] = OrderedDict()
_GROUP_MEMO_MAX = 65536


def clear_group_memo() -> None:
    """Drop the process-wide group-model memo (tests only)."""
    _GROUP_MEMO.clear()


def deterministic_model(pc, stats_sink=None) -> dict[str, int] | None:
    """History-free model of ``pc``: a pure function of the constraint list.

    The pc is flattened and split into variable-disjoint groups exactly as
    a solver chain would; each group's model comes from a fresh chain (no
    cache, no persistent blasters, no carried-over activity) run on that
    group alone, memoised process-wide.  Groups share no variables, hence
    no presolve signature and no blaster, so solving them apart gives the
    model a single fresh chain over the whole pc would — any process
    solving the same pc decodes the same test input.

    ``stats_sink`` (an :class:`~repro.engine.stats.EngineStats`) receives
    the extra solver work: one ``testgen_queries`` per call, a
    ``testgen_group_hits``/``testgen_group_solves`` per group, and the
    ``testgen_cost_units`` of the solves actually run — none of it is part
    of the engine chain's own balanced ledger.
    """
    if stats_sink is None:
        stats_sink = EngineStats()
    stats_sink.testgen_queries += 1
    flat, const_false = SolverChain._flatten(pc)
    if const_false:
        return None
    model: dict[str, int] = {}
    for group in split_independent(flat):
        key = tuple(c.eid for c in group)
        if key in _GROUP_MEMO:
            stats_sink.testgen_group_hits += 1
            sub = _GROUP_MEMO[key]
        else:
            chain = SolverChain(use_cache=False)
            result = chain.check(group)
            stats_sink.testgen_group_solves += 1
            stats_sink.testgen_cost_units += chain.stats.cost_units
            sub = result.model if result.is_sat else None
            _GROUP_MEMO[key] = sub
            if len(_GROUP_MEMO) > _GROUP_MEMO_MAX:
                _GROUP_MEMO.popitem(last=False)
        if sub is None:
            return None
        model.update(sub)
    return model


def build_test_case(
    spec: ArgvSpec,
    model: dict[str, int],
    pc,
    kind: str,
    exit_code: int | None = None,
    line: int | None = None,
    multiplicity: int = 1,
) -> TestCase:
    """Decode a model of ``pc`` into a concrete test input."""
    full = complete_model(model, spec.input_variables())
    items = tuple(
        sorted((k, v) for k, v in full.items() if k.startswith(("arg", "stdin")))
    )
    return TestCase(
        kind=kind,
        argv=tuple(spec.decode(full)),
        model=items,
        exit_code=exit_code,
        line=line,
        multiplicity=multiplicity,
        stdin=spec.decode_stdin(full),
        path_id=named_key(pc),
    )


def make_test_case(
    solver: SolverChain,
    spec: ArgvSpec,
    pc,
    kind: str,
    exit_code: int | None = None,
    line: int | None = None,
    multiplicity: int = 1,
    deterministic: bool = False,
    stats_sink=None,
) -> TestCase | None:
    """Solve the path condition and decode a concrete argv; None if UNSAT."""
    if deterministic:
        model = deterministic_model(pc, stats_sink=stats_sink)
    else:
        model = solver.get_model(list(pc))
    if model is None:
        return None
    return build_test_case(spec, model, pc, kind, exit_code, line, multiplicity)

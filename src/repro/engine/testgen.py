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

from dataclasses import dataclass, field
from functools import partial

from ..env.argv import ArgvSpec
from ..expr.canon import named_key
from ..expr.evaluate import EvalError, evaluate
from ..expr.independence import split_independent
from ..memo import BoundedMemo
from ..solver.portfolio import SolverChain, complete_model
from ..solver.presolve import group_signature
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

    def multiset(self) -> list[tuple]:
        """The suite as an order-free value: what two explorations of the
        same path space agree on, in whatever order they met the paths
        (see :func:`repro.experiments.harness.same_exploration`)."""
        return sorted((c.kind, c.argv, c.model, c.line, c.stdin) for c in self.cases)


# History-free model per independence group, keyed by the group's *ordered*
# eid tuple (eids are never reused in a process).  The order matters: the
# solve is a pure function of the constraint list, not of the set, so a
# set key would make the model depend on which ordering was seen first —
# i.e. on exploration order.
_GROUP_MEMO = BoundedMemo(65536, process_wide=True)

_UNASKED = object()  # the corpus row of the test at hand, before the first miss


def deterministic_model(pc, stats_sink=None, stored=None) -> dict[str, int] | None:
    """History-free model of ``pc``: a pure function of the constraint list.

    The pc is flattened and split into variable-disjoint groups exactly as
    a solver chain would; each group's model comes from a fresh chain (no
    cache, no persistent blasters, no carried-over activity) run on that
    group alone, memoised process-wide.  Groups share no variables, hence
    no presolve signature and no blaster, so solving them apart gives the
    model a single fresh chain over the whole pc would — any process
    solving the same pc decodes the same test input.

    ``stored`` (zero-argument callable, asked at most once and only when a
    group misses the memo) returns the input an earlier run's corpus row
    holds for this very test, or None.  Restricted to a missing group's
    variables and **verified by evaluating every constraint of the
    group**, it stands in for the fresh solve: a row this generator wrote
    for the same pc *is* the union of the groups' fresh models, so the
    answer is bit-for-bit the one a solve would give; a row that fails,
    lacks a variable or came from elsewhere falls through to the solve.

    ``stats_sink`` (an :class:`~repro.engine.stats.EngineStats`) receives
    the extra solver work: one ``testgen_queries`` per call, a
    ``testgen_group_hits``/``testgen_group_solves`` per group (corpus
    answers are hits, also counted in ``testgen_corpus_hits``), and the
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
    row = _UNASKED
    for group in split_independent(flat):
        key = tuple(c.eid for c in group)
        if key in _GROUP_MEMO:
            stats_sink.testgen_group_hits += 1
            sub = _GROUP_MEMO[key]
        else:
            if row is _UNASKED:
                row = stored() if stored is not None else None
            sub = _stored_group_model(group, row)
            if sub is not None:
                stats_sink.testgen_group_hits += 1
                stats_sink.testgen_corpus_hits += 1
            else:
                chain = SolverChain(use_cache=False)
                result = chain.check(group)
                stats_sink.testgen_group_solves += 1
                stats_sink.testgen_cost_units += chain.stats.cost_units
                sub = result.model if result.is_sat else None
            _GROUP_MEMO.put(key, sub)
        if sub is None:
            return None
        model.update(sub)
    return model


def _stored_group_model(group, stored: dict[str, int] | None) -> dict[str, int] | None:
    """``stored`` cut down to ``group``'s variables, if it satisfies it."""
    if stored is None:
        return None
    try:
        sub = {name: stored[name] for name in group_signature(group)}
        memo: dict[int, int] = {}
        if all(evaluate(c, sub, memo) for c in group):
            return sub
    except (KeyError, EvalError):
        pass
    return None


def build_test_case(
    spec: ArgvSpec,
    model: dict[str, int],
    pc,
    kind: str,
    exit_code: int | None = None,
    line: int | None = None,
    multiplicity: int = 1,
    path_id: str | None = None,
) -> TestCase:
    """Decode a model of ``pc`` into a concrete test input.

    ``path_id`` spares the digest when the caller already holds
    ``named_key(pc)``.
    """
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
        path_id=named_key(pc) if path_id is None else path_id,
    )


def make_test_case(
    solver: SolverChain,
    spec: ArgvSpec,
    pc,
    kind: str,
    exit_code: int | None = None,
    line: int | None = None,
    multiplicity: int = 1,
    stats_sink=None,
) -> TestCase | None:
    """Solve the path condition and decode a concrete argv; None if UNSAT.

    The model is :func:`deterministic_model`'s, never ``solver``'s own
    (order-dependent) one.  Under a solver with a persistent tier the
    corpus is asked first: the row filed under this test's own identity
    (``kind``, ``path_id``, ``line``) answers the independence groups the
    process-wide memo misses.
    """
    path_id = stored = None
    tier = solver.persistent
    if tier is not None:
        path_id = named_key(pc)
        stored = partial(tier.test_model, kind, path_id, line)
    model = deterministic_model(pc, stats_sink=stats_sink, stored=stored)
    if model is None:
        return None
    return build_test_case(spec, model, pc, kind, exit_code, line, multiplicity, path_id)

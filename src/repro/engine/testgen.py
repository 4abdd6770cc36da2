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

The same purity lets a sequential exploration move those solves off its
critical path: :mod:`repro.engine.solve_helper` ships each group that
misses the memo and the corpus to one forked helper, and the test waits
in its slot (a :class:`PendingCase`) until ``explore()`` joins.
:func:`solve_group` is the one solve either side runs.
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
from ..stats import Stats


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
    # Named key of the path condition that produced this test (see
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
        return sorted((c.kind, c.argv, c.model, c.line, c.multiplicity, c.stdin)
                      for c in self.cases)


# History-free model per independence group, keyed by the group's *ordered*
# eid tuple (eids are never reused in a process).  The order matters: the
# solve is a pure function of the constraint list, not of the set, so a
# set key would make the model depend on which ordering was seen first —
# i.e. on exploration order.
_GROUP_MEMO = BoundedMemo(65536, process_wide=True)

_UNASKED = object()  # the corpus row of the test at hand, before the first miss


def solve_group(group) -> tuple[dict[str, int] | None, int]:
    """The history-free solve of one independence group: a fresh chain's
    model (None if UNSAT) and the cost units it spent.  Raises
    :class:`~repro.solver.portfolio.SolverTimeout` past the conflict
    budget.  In-process runs and the forked helper both call this."""
    chain = SolverChain(use_cache=False)
    result = chain.check(group)
    return (result.model if result.is_sat else None), chain.stats.cost_units


class Pending:
    """A group in flight to the solve helper, filed in the memo under its
    key until its answer replaces it there: a second test meeting the
    group meanwhile is a memo hit that waits for the same answer."""

    __slots__ = ("key", "model", "done")

    def __init__(self, key: tuple) -> None:
        self.key = key
        self.model: dict[str, int] | None = None
        self.done = False

    def settle(self, model: dict[str, int] | None) -> None:
        self.model, self.done = model, True
        if _GROUP_MEMO.get(self.key) is self:
            _GROUP_MEMO[self.key] = model  # in place: the FIFO order stays

    def forget(self) -> None:
        """Unfile an answer that will never come (an aborted run)."""
        if _GROUP_MEMO.get(self.key) is self:
            del _GROUP_MEMO[self.key]


class PendingModel:
    """A model some of whose groups are still :class:`Pending`: the parts,
    models and pendings, in group order."""

    __slots__ = ("parts",)

    def __init__(self, parts: list) -> None:
        self.parts = parts

    def resolve(self) -> dict[str, int] | None:
        """The model :func:`deterministic_model` would have returned; every
        pending part must have settled."""
        model: dict[str, int] = {}
        for sub in self.parts:
            if type(sub) is Pending:
                assert sub.done, "a pending group was never answered"
                sub = sub.model
            if sub is None:
                return None
            model.update(sub)
        return model


def deterministic_model(
    pc, stats_sink=None, stored=None, helper=None
) -> dict[str, int] | PendingModel | None:
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

    ``helper`` (a :class:`~repro.engine.solve_helper.SolveHelper`) takes
    the groups that miss both instead of solving them here; while any of
    the pc's groups is in flight the result is a :class:`PendingModel`.
    An engine pc is satisfiable, so no shipped group comes back UNSAT;
    were one to, the test would still be dropped, but the groups after it
    would have been counted where an in-process run stops at the first.

    ``stats_sink`` (a :class:`~repro.stats.Stats`) receives
    the extra solver work: one ``testgen_queries`` per call, a
    ``testgen_group_hits``/``testgen_group_solves`` per group (corpus
    answers are hits, also counted in ``testgen_corpus_hits``), and the
    ``testgen_cost_units`` of the solves actually run (a shipped group's
    when its answer arrives) — none of it touches the engine chain's own
    balanced ``queries`` ledger.
    """
    if stats_sink is None:
        stats_sink = Stats()
    stats_sink.testgen_queries += 1
    flat, const_false = SolverChain._flatten(pc)
    if const_false:
        return None
    parts: list = []
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
            elif helper is None:
                sub, cost = solve_group(group)
                stats_sink.testgen_group_solves += 1
                stats_sink.testgen_cost_units += cost
            else:
                # Filed before it is submitted: an answer the helper gives
                # at once (solved in-process, before its fork or after its
                # death) settles it in place.
                sub = Pending(key)
                stats_sink.testgen_group_solves += 1
                _GROUP_MEMO.put(key, sub)
                helper.submit(sub, group, stats_sink)
            if type(sub) is not Pending:
                _GROUP_MEMO.put(key, sub)
        if type(sub) is Pending and sub.done:
            sub = sub.model
        if sub is None:
            return None
        parts.append(sub)
    model = PendingModel(parts)
    return model if any(type(sub) is Pending for sub in parts) else model.resolve()


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
    helper=None,
) -> TestCase | PendingCase | None:
    """Solve the path condition and decode a concrete argv; None if UNSAT.

    The model is :func:`deterministic_model`'s, never ``solver``'s own
    (order-dependent) one.  Under a solver with a persistent tier the
    corpus is asked first: the row filed under this test's own identity
    (``kind``, ``path_id``, ``line``) answers the independence groups the
    process-wide memo misses.  With a ``helper`` whose answers are not
    all in yet, the test is a :class:`PendingCase` to resolve after
    ``helper.join()``.
    """
    path_id = stored = None
    tier = solver.persistent
    if tier is not None:
        path_id = named_key(pc)
        stored = partial(tier.test_model, kind, path_id, line)
    model = deterministic_model(pc, stats_sink=stats_sink, stored=stored, helper=helper)
    if model is None:
        return None
    if type(model) is PendingModel:
        if path_id is None:
            path_id = named_key(pc)
        return PendingCase(
            kind, model, partial(build_test_case, spec, pc=pc, kind=kind, exit_code=exit_code,
                                 line=line, multiplicity=multiplicity, path_id=path_id)
        )
    return build_test_case(spec, model, pc, kind, exit_code, line, multiplicity, path_id)


class PendingCase:
    """A test waiting in its suite slot for the helper's answers."""

    __slots__ = ("kind", "model", "build")

    def __init__(self, kind: str, model: PendingModel, build) -> None:
        self.kind = kind
        self.model = model
        self.build = build  # model -> TestCase

    def resolve(self) -> TestCase | None:
        model = self.model.resolve()
        return None if model is None else self.build(model)


def fill_pending(cases: list, first: int) -> int:
    """Resolve the :class:`PendingCase` slots of ``cases[first:]`` in place
    (a test whose pc turned out UNSAT leaves its slot); returns how many
    path tests were dropped so."""
    filled, dropped = [], 0
    for case in cases[first:]:
        if type(case) is PendingCase:
            kind, case = case.kind, case.resolve()
            if case is None:
                dropped += kind == "path"
                continue
        filled.append(case)
    cases[first:] = filled
    return dropped

"""The slice law: a branch decided on its slice is a branch decided whole.

``SolverChain.check_branch`` / ``check_sliced`` send the solver only the
conjuncts of the path condition transitively connected to the branch
condition through shared variables, and skip the ``¬cond`` query when the
``cond`` arm is infeasible.  Both rest on the **satisfiable-pc
invariant** (every pc the engine hands in is satisfiable).  The law, held
against ``SolverChain.check`` on the whole set — which assumes nothing:

(a) on generated pcs that are satisfiable by construction (built around a
    concrete witness) × generated conditions, both chains return the
    verdicts of ``(check(pc + [cond]), check(pc + [¬cond]))`` on a fresh
    chain, what they send is *exactly* the slice a from-scratch fixpoint
    computes, and an infeasible ``cond`` arm costs one query;
(b) whole runs equal an engine whose chain answers every branch on the
    whole pc — same picked states, paths, tests (``path_id`` included)
    and coverage — while that oracle asserts the invariant on every call;
(c) the mutants at the bottom break one clause each and must fail it.
"""

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from repro.engine import executor
from repro.engine.executor import Engine
from repro.env import runner
from repro.env.runner import run_symbolic
from repro.experiments.harness import MODES
from repro.expr import ops
from repro.expr.evaluate import evaluate
from repro.expr.subst import conjuncts
from repro.solver import portfolio
from repro.solver.cache import QueryCache
from repro.solver.portfolio import CheckResult, IncrementalChain, SolverChain
from test_engine_merge_index import PICKS, RecordingEngine
from test_engine_testgen_memo import suite

A, B, C, D, E, F = VARS = [ops.bv_var(f"sl_{name}", 8) for name in "abcdef"]


def k(value: int):
    return ops.bv(value, 8)


# ---------------------------------------------------------------------------
# (a) one branch query against the whole-set oracle
# ---------------------------------------------------------------------------


def oracle_slice(pc, cond):
    """What can bear on ``cond``: leaves of ``pc`` reachable from its
    variables through shared variables, by plain fixpoint."""
    leaves = []
    for constraint in pc:
        for leaf in conjuncts(constraint):
            if not leaf.is_true() and leaf not in leaves:
                leaves.append(leaf)
    reach = set(cond.variables)
    grew = bool(reach)
    while grew:
        grew = False
        for leaf in leaves:
            if leaf.variables & reach and not leaf.variables <= reach:
                reach |= leaf.variables
                grew = True
    return [leaf for leaf in leaves if leaf.variables & reach]


def assert_slice_law(chain, pc, cond) -> tuple[bool, bool]:
    """One ``check_branch`` on ``chain`` (whatever it has seen before)."""
    assert SolverChain().check(pc).is_sat, "the caller's side of the bargain"
    neg = ops.not_(cond)
    want = (SolverChain().check(pc + [cond]).is_sat,
            SolverChain().check(pc + [neg]).is_sat)
    sent = []
    whole_set_check = chain.check

    def spy(constraints):
        sent.append({c.eid for c in constraints})
        return whole_set_check(constraints)

    chain.check = spy  # shadows the method on this instance, as bench/ does
    asked = chain.stats.queries
    try:
        then_res, else_res = chain.check_branch(pc, cond)
        assert chain.check_sliced(pc, cond).is_sat == want[0]
    finally:
        del chain.check
    assert (then_res.is_sat, else_res.is_sat) == want
    # Exactly the slice — no unrelated conjunct, no unflattened one — plus
    # the arm; and no second query when the first arm is infeasible.
    relevant = {c.eid for c in oracle_slice(pc, cond)}
    arms = [cond, neg] if want[0] else [cond]
    assert sent == [relevant | {arm.eid} for arm in arms + [cond]]
    assert chain.stats.queries - asked == len(arms) + 1
    if not want[0]:
        assert else_res.model is None
    return want


NAMED_SHAPES = {
    # x==y, y==z: the bound on c reaches a only through the closure.
    "chain": ([ops.eq(A, B), ops.eq(B, C), ops.ult(C, k(5))], ops.ult(k(10), A)),
    "chain, other arm": ([ops.eq(A, B), ops.eq(B, C), ops.ult(C, k(5))], ops.ult(A, k(5))),
    "two groups": ([ops.ult(A, k(5)), ops.ult(B, k(5)), ops.ult(D, k(9))],
                   ops.ult(k(20), ops.add(A, B))),
    "two groups, nested cond": ([ops.ult(A, k(5)), ops.ult(B, k(5)), ops.eq(D, E)],
                                ops.and_(ops.ult(k(2), A), ops.ult(k(7), B))),
    "no group": ([ops.ult(A, k(5)), ops.eq(B, C)], ops.ult(k(3), D)),
    "no variable, true": ([ops.ult(A, k(5))], ops.TRUE),
    "no variable, false": ([ops.ult(A, k(5))], ops.FALSE),
    "empty pc": ([], ops.eq(A, k(1))),
    "duplicates and nested ands": (
        [ops.and_(ops.ult(A, k(5)), ops.eq(B, A)), ops.ult(A, k(5)),
         ops.and_(ops.eq(B, A), ops.and_(ops.ult(C, k(9)), ops.ult(D, k(9))))],
        ops.ult(k(7), B)),
    "cond already in pc": ([ops.ult(A, k(5)), ops.ult(B, k(3))], ops.ult(A, k(5))),
    "merged or": (
        [ops.ult(A, k(5)),
         ops.or_(ops.and_(ops.eq(B, k(1)), ops.eq(C, k(2))),
                 ops.and_(ops.eq(B, k(3)), ops.eq(C, k(4))))],
        ops.and_(ops.eq(B, k(1)), ops.eq(C, k(4)))),
    "merged ite": (
        [ops.ult(A, k(2)), ops.eq(D, ops.ite(ops.eq(A, k(0)), k(7), k(9))), ops.ult(E, k(4))],
        ops.ult(D, k(7))),
    "implied": ([ops.ult(A, k(5)), ops.ult(B, k(5))], ops.ult(A, k(10))),
}


@pytest.mark.parametrize("chain_cls", [SolverChain, IncrementalChain])
def test_named_shapes(chain_cls):
    verdicts = set()
    chain = chain_cls()  # one chain: later shapes meet the earlier ones' cache
    for pc, cond in NAMED_SHAPES.values():
        verdicts.add(assert_slice_law(chain, pc, cond))
        verdicts.add(assert_slice_law(chain_cls(use_cache=False), pc, cond))
    assert verdicts == {(True, True), (True, False), (False, True)}


@st.composite
def terms(draw, depth=1):
    var = draw(st.sampled_from(VARS))
    shape = draw(st.integers(0, 4 if depth else 2))
    if shape == 0:
        return var
    if shape == 1:
        return k(draw(st.integers(0, 4)))
    if shape == 2:
        return ops.add(var, k(draw(st.integers(1, 3))))
    if shape == 3:
        return ops.add(var, draw(st.sampled_from(VARS)))
    # The value a merge leaves behind.
    return ops.ite(draw(formulas(0)), var, draw(terms(0)))


@st.composite
def formulas(draw, depth=2):
    shape = draw(st.integers(0, 6 if depth else 2))
    if shape <= 2:
        cmp = (ops.eq, ops.ult, ops.ule)[shape]
        return cmp(draw(terms(min(depth, 1))), draw(terms(min(depth, 1))))
    sub = formulas(depth - 1)
    if shape == 3:
        return ops.not_(draw(sub))
    if shape == 4:
        return ops.and_(draw(sub), draw(sub))
    if shape == 5:
        return ops.or_(draw(sub), draw(sub))
    return ops.ite(draw(sub), draw(sub), draw(sub))


@st.composite
def walks(draw):
    """(a pc its witness satisfies, conditions to branch on in turn)."""
    # A small value range makes equalities hold and bounds bite.
    witness = {v.name: draw(st.integers(0, 3)) for v in VARS}
    pc = []
    for formula in draw(st.lists(formulas(), max_size=6)):
        pc.append(formula if evaluate(formula, witness) else ops.not_(formula))
    if pc and draw(st.booleans()):
        pc.append(draw(st.sampled_from(pc)))
    conds = draw(st.lists(st.one_of(formulas(), st.sampled_from([ops.TRUE, ops.FALSE])),
                          min_size=1, max_size=3))
    return pc, conds


def walk_law(walk):
    pc, conds = walk
    for chain in (SolverChain(), IncrementalChain()):
        path = list(pc)
        for cond in conds:
            then_sat, _ = assert_slice_law(chain, path, cond)
            # Follow a feasible arm, as the executor does: the invariant
            # is kept, and the chain's caches see a growing pc.
            path.append(cond if then_sat else ops.not_(cond))


LAW_SETTINGS = dict(
    deadline=None, derandomize=True, database=None,
    suppress_health_check=list(HealthCheck),
)


@settings(max_examples=150, **LAW_SETTINGS)
@given(walks())
def test_generated_walks(walk):
    walk_law(walk)


# ---------------------------------------------------------------------------
# (b) whole runs against an engine that asks about the whole pc
# ---------------------------------------------------------------------------

JUDGED: list[int] = []  # one entry per pc the invariant's oracle was shown


class WholePcChain(IncrementalChain):
    """The oracle: every arm asked, on everything the state carries."""

    invariant_oracle = SolverChain()

    def check_sliced(self, pc, cond):
        JUDGED.append(len(pc))
        assert self.invariant_oracle.check(list(pc)).is_sat, "an UNSAT pc reached the solver"
        return self.check(list(pc) + [cond])

    def check_branch(self, pc, cond):
        return self.check_sliced(pc, cond), self.check(list(pc) + [ops.not_(cond)])


def observed(result):
    return {
        "picks": list(PICKS),
        "tests": suite(result.tests.cases),
        "covered": frozenset(result.engine.coverage.covered),
        "paths": result.stats.paths_completed,
        "exact_paths": result.stats.exact_paths,
        "errors": result.stats.errors_found,
        "infeasible": result.stats.states_infeasible,
        "merges": result.stats.merges,
    }


def run_both_ways(monkeypatch, program, mode, **kwargs):
    """(the run as shipped, the run on the whole-pc oracle), observed."""
    monkeypatch.setattr(runner, "Engine", RecordingEngine)
    seen = []
    for chain_cls in (IncrementalChain, WholePcChain):
        monkeypatch.setattr(executor, "IncrementalChain", chain_cls)
        PICKS.clear()
        JUDGED.clear()
        seen.append(observed(run_symbolic(program, **MODES[mode], **kwargs)))
    assert JUDGED, "the oracle chain was never asked"
    return seen


# factor's default 1x2 blasts a multiplier per whole-pc query (15-25 s a cell).
SIZES = {"factor": {"n_args": 1, "arg_len": 1}}


@pytest.mark.parametrize("mode", ["plain", "ssm-qce", "dsm-qce"])
@pytest.mark.parametrize("program", ["echo", "cat", "wc", "uniq", "tsort", "factor"])
def test_run_equals_whole_pc_oracle(monkeypatch, program, mode):
    sliced, whole = run_both_ways(monkeypatch, program, mode, **SIZES.get(program, {}))
    assert sliced["picks"] and sliced == whole


@pytest.mark.parametrize("mode", ["ssm-qce", "dsm-qce"])
def test_exact_pcs_are_split_on_their_slices(monkeypatch, mode):
    """Fig. 3's constituent pcs go through ``check_sliced``, one arm each."""
    sliced, whole = run_both_ways(monkeypatch, "wc", mode, track_exact_paths=True)
    assert sliced["merges"] and sliced["exact_paths"] and sliced == whole


# ---------------------------------------------------------------------------
# where the invariant starts, and what keeps merged queries cheap
# ---------------------------------------------------------------------------

FIRST_BYTE = ops.bv_var("arg1_b0", 8)


def test_unsatisfiable_preconditions_are_caught_at_seed():
    """No later query sees the whole pc, so the seed decides it — once."""
    run = run_symbolic("echo", preconditions=(ops.ult(FIRST_BYTE, k(3)), ops.ult(k(5), FIRST_BYTE)))
    assert run.stats.states_infeasible == 1
    assert run.paths == 0 and run.tests.cases == [] and run.stats.blocks_executed == 0
    assert run.stats.queries == 1


def test_satisfiable_preconditions_cost_one_query_and_bind_every_test(monkeypatch):
    free = run_symbolic("echo")
    asked = free.stats
    # Every query is a branch arm: an empty precondition tuple asks nothing.
    assert asked.queries + asked.branch_elisions == 2 * asked.branch_batches
    bound = (ops.ult(FIRST_BYTE, k(3)),)
    asked = run_symbolic("echo", preconditions=bound).stats
    assert asked.queries + asked.branch_elisions == 2 * asked.branch_batches + 1
    sliced, whole = run_both_ways(monkeypatch, "echo", "plain", preconditions=bound)
    assert sliced == whole and 0 < sliced["paths"] < free.paths
    assert all(dict(model)["arg1_b0"] < 3 for _, _, model, *_ in sliced["tests"])


def test_composite_models_answer_queries_that_join_slices():
    """A slice's model binds the slice; ``QueryCache.store`` folds it over
    the composite so a merged pc spanning several slices still finds a
    model to reuse instead of a probe (``tsort dsm-qce 2x2``: 19 probes;
    23 with a composite that forgets, 18 before branches were sliced)."""
    run = run_symbolic("tsort", n_args=2, arg_len=2, generate_tests=False, **MODES["dsm-qce"])
    assert run.stats.merges > 0
    assert run.stats.assumption_probes <= 19

    cache = QueryCache()
    cache.store([ops.ult(A, k(5))], True, {"sl_a": 4})
    cache.store([ops.eq(B, k(7))], True, {"sl_b": 7})
    cache.store([ops.ult(A, k(3))], True, {"sl_a": 1})
    joined = [ops.ult(A, k(2)), ops.ult(k(6), B), ops.eq(ops.add(A, B), k(8))]
    assert cache.lookup(joined) == (True, {"sl_a": 1, "sl_b": 7})
    assert cache.lookup([ops.ult(A, k(5))]) == (True, {"sl_a": 4})  # exact: as given
    assert cache.lookup([ops.ult(k(9), B)]) is None  # a candidate, never a verdict


# ---------------------------------------------------------------------------
# (c) the law catches what it is there to catch
# ---------------------------------------------------------------------------


def _direct_sharing_only(monkeypatch):
    def mutant(constraints, query):
        return [c for c in constraints if c.variables & query.variables]

    monkeypatch.setattr(portfolio, "relevant_constraints", mutant)


def _slice_of_the_unflattened_pc(monkeypatch):
    def mutant(self, pc, cond):
        return portfolio.relevant_constraints(list(pc), cond)

    monkeypatch.setattr(SolverChain, "_slice", mutant)


def _elision_whatever_the_first_arm_says(monkeypatch):
    def mutant(self, pc, cond):
        self.stats.branch_batches += 1
        self.stats.branch_elisions += 1
        return self.check(self._slice(pc, cond) + [cond]), CheckResult(True, None)

    monkeypatch.setattr(SolverChain, "check_branch", mutant)


def _composite_replaces(monkeypatch):
    store = QueryCache.store

    def mutant(self, constraints, is_sat, model):
        self._composite = {}
        store(self, constraints, is_sat, model)

    monkeypatch.setattr(QueryCache, "store", mutant)


def _precondition_check_dropped(monkeypatch):
    make_initial_state = Engine.make_initial_state

    def mutant(self):
        self.solver.check = lambda constraints: CheckResult(True, {})
        try:
            return make_initial_state(self)
        finally:
            del self.solver.check

    monkeypatch.setattr(Engine, "make_initial_state", mutant)


def _walks_without_shrinking():
    settings(max_examples=150, phases=[Phase.generate], **LAW_SETTINGS)(
        given(walks())(walk_law))()


@pytest.mark.parametrize("mutate,law", [
    (_direct_sharing_only, _walks_without_shrinking),
    (_direct_sharing_only, lambda: test_named_shapes(IncrementalChain)),
    (_slice_of_the_unflattened_pc, _walks_without_shrinking),
    (_elision_whatever_the_first_arm_says, _walks_without_shrinking),
    (_composite_replaces, test_composite_models_answer_queries_that_join_slices),
    (_precondition_check_dropped, test_unsatisfiable_preconditions_are_caught_at_seed),
])
def test_the_law_catches_a_broken_slice(mutate, law, monkeypatch):
    mutate(monkeypatch)
    with pytest.raises(AssertionError):
        law()

"""The CDCL trail survives between ``solve`` calls (retained assumption prefix).

A solver that keeps its shared assumption prefix on the trail must give
the answers of one that starts from root every time, and must stay
*propagation-complete* at every level it keeps: clauses that join a live
trail imply their unit literal there and keep implying it when later
backtracks stay inside the kept region.  The oracle is the only place
the from-root behaviour survives: a fresh :class:`CDCLSolver` fed every
clause plus the assumptions as unit clauses.
"""

import copy
import random

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.env.runner import run_symbolic
from repro.expr import ops
from repro.solver.portfolio import IncrementalChain
from repro.solver.sat import UNASSIGNED, CDCLSolver, SatResult


def oracle(num_vars: int, clauses, units=()) -> bool:
    """From-scratch satisfiability of ``clauses`` plus ``units``."""
    fresh = CDCLSolver(max_learned=None)
    for _ in range(num_vars):
        fresh.new_var()
    for clause in clauses:
        if not fresh.add_clause(list(clause)):
            return False
    for lit in units:
        if not fresh.add_clause([lit]):
            return False
    return fresh.solve() == SatResult.SAT


def lit_true(solver: CDCLSolver, lit: int) -> bool:
    return solver.value(abs(lit)) is (lit > 0)


def unit_closure(clauses, seeds):
    """Naive unit-propagation fixpoint; None when it runs into a conflict."""
    true = set(seeds)
    if any(-lit in true for lit in true):
        return None
    changed = True
    while changed:
        changed = False
        for clause in clauses:
            if any(lit in true for lit in clause):
                continue
            open_lits = [lit for lit in clause if -lit not in true]
            if not open_lits:
                return None
            if len(open_lits) == 1:
                true.add(open_lits[0])
                changed = True
    return true


def gate_clauses(kind: str, z: int, ins: list[int]) -> list[list[int]]:
    """Tseitin clauses of ``z <-> kind(ins)``, as the bit-blaster emits them."""
    if kind == "and":
        a, b = ins
        return [[-z, a], [-z, b], [z, -a, -b]]
    if kind == "xor":
        a, b = ins
        return [[-z, a, b], [-z, -a, -b], [z, -a, b], [z, a, -b]]
    c, t, e = ins
    return [[-z, -c, t], [-z, c, e], [z, -c, -t], [z, c, -e]]


def check_trail(solver: CDCLSolver) -> None:
    """Structural invariants of the kept trail."""
    levels = [solver.level[abs(lit)] for lit in solver.trail]
    assert levels == sorted(levels), "levels must stay monotone along the trail"
    position = {abs(lit): i for i, lit in enumerate(solver.trail)}
    assigned = {v for v in range(1, solver.num_vars + 1) if solver.assign[v] != UNASSIGNED}
    assert assigned == set(position)
    for i, lit in enumerate(solver.trail):
        ci = solver.reason[abs(lit)]
        if ci is None:
            continue
        clause = solver.clauses[ci]
        assert lit in clause
        for other in clause:
            if other != lit:
                assert lit_true(solver, -other) and position[abs(other)] < i
    kept = min(len(solver.trail_lim), len(solver._assumed))
    for var, (ci, forced_at) in solver._late.items():
        assert solver.assign[var] != UNASSIGNED
        assert 1 <= forced_at <= solver.level[var] <= kept
        assert var in map(abs, solver.clauses[ci])
    if not solver.trail_lim:
        assert not solver._late


class TrailReuse(RuleBasedStateMachine):
    """Random interleavings of new_var / add_clause / solve(assumptions)."""

    @initialize(max_learned=st.sampled_from([0, 2, 8, None]), seed=st.integers(0, 2**16))
    def start(self, max_learned, seed):
        self.solver = CDCLSolver(max_learned=max_learned)
        self.clauses: list[list[int]] = []
        self.last: list[int] = []
        self.assumption_lits = 0
        rng = random.Random(seed)
        # A random 3-SAT block near the threshold, switched on by a
        # selector: assuming it is what produces conflicts, learned
        # clauses and (with a small cap) reductions mid-sequence.
        self.selector = self.solver.new_var()
        block = [self.solver.new_var() for _ in range(rng.randint(8, 12))]
        for _ in range(int(4.3 * len(block))):
            picks = rng.sample(block, 3)
            self._add([-self.selector] + [v if rng.random() < 0.5 else -v for v in picks])
        for _ in range(rng.randint(2, 5)):
            self.solver.new_var()

    # -- helpers -------------------------------------------------------------

    def _lits(self, data, n):
        var = st.integers(1, self.solver.num_vars)
        return [
            v if pos else -v
            for v, pos in data.draw(st.lists(st.tuples(var, st.booleans()), min_size=n, max_size=n))
        ]

    def _add(self, clause: list[int]) -> None:
        self.clauses.append(list(clause))
        assert self.solver.add_clause(list(clause)) == self.solver.ok
        if not self.solver.ok:
            assert not oracle(self.solver.num_vars, self.clauses)

    # -- rules ---------------------------------------------------------------

    @rule()
    def new_var(self):
        if self.solver.num_vars < 40:
            self.solver.new_var()

    @rule(data=st.data(), size=st.integers(2, 4))
    def add_random_clause(self, data, size):
        self._add(self._lits(data, size))

    @rule(data=st.data())
    def add_clause_against_the_trail(self, data):
        """A clause over assigned literals: falsified, unit or satisfied."""
        trail = self.solver.trail
        if len(trail) < 2:
            return
        picks = data.draw(st.lists(st.sampled_from(trail), min_size=1, max_size=3, unique=True))
        clause = [-lit for lit in picks]
        if data.draw(st.booleans()):
            clause.append(data.draw(st.sampled_from(trail)))  # maybe satisfied by one
        if data.draw(st.booleans()):
            clause.extend(self._lits(data, 1))
        self._add(clause)

    @rule(data=st.data())
    def add_clause_forced_below_the_top_level(self, data):
        """False literals from the lower kept levels plus one literal that
        is true above them, false above them, or anything."""
        solver = self.solver
        kept = min(len(solver.trail_lim), len(solver._assumed))
        if kept < 2:
            return
        cut = solver.trail_lim[data.draw(st.integers(1, kept - 1))]
        low, high = solver.trail[:cut], solver.trail[cut:]
        if not low:
            return
        picks = data.draw(st.lists(st.sampled_from(low), min_size=1, max_size=2, unique=True))
        head = self._lits(data, 1)[0]
        if high and data.draw(st.booleans()):
            head = data.draw(st.sampled_from(high))
            if data.draw(st.booleans()):
                head = -head
        self._add([-lit for lit in picks] + [head])

    @rule(data=st.data(), kind=st.sampled_from(["and", "xor", "ite"]))
    def add_gate(self, data, kind):
        """A Tseitin gate; with a live trail its inputs are often assigned."""
        if self.solver.num_vars >= 40:
            return
        ins = self._lits(data, 3 if kind == "ite" else 2)
        z = self.solver.new_var()
        for clause in gate_clauses(kind, z, ins):
            self._add(clause)

    @rule(data=st.data())
    def add_root_unit(self, data):
        """Mostly a literal the trail already holds (so the formula stays
        satisfiable and the run goes on), sometimes any literal."""
        trail = self.solver.trail
        if trail and data.draw(st.integers(0, 3)):
            self._add([data.draw(st.sampled_from(trail))])
        else:
            self._add(self._lits(data, 1))

    @rule(data=st.data(), shape=st.sampled_from(["extend", "shrink", "sibling", "permute", "fresh"]))
    def solve(self, data, shape):
        last = self.last
        if shape == "extend":
            assumptions = last + self._lits(data, data.draw(st.integers(0, 3)))
        elif shape == "shrink":
            assumptions = last[: data.draw(st.integers(0, len(last)))]
        elif shape == "sibling":
            assumptions = last[:-1] + [-last[-1]] if last else []
        elif shape == "permute":
            assumptions = data.draw(st.permutations(last))
        else:
            assumptions = self._lits(data, data.draw(st.integers(0, 5)))
        assumptions = list(assumptions)
        if self.selector not in assumptions and data.draw(st.booleans()):
            assumptions.insert(data.draw(st.integers(0, len(assumptions))), self.selector)
        self.last = list(assumptions)
        self.assumption_lits += len(assumptions)
        solver = self.solver
        verdict = solver.solve(assumptions=list(assumptions))
        expected = oracle(solver.num_vars, self.clauses, assumptions)
        assert (verdict == SatResult.SAT) == expected
        if verdict == SatResult.SAT:
            assert solver.last_core is None
            for clause in self.clauses:
                assert any(lit_true(solver, lit) for lit in clause)
            for lit in assumptions:
                assert lit_true(solver, lit)
        elif solver.ok:
            core = solver.last_core
            assert core is not None and set(core) <= set(assumptions)
            assert not oracle(solver.num_vars, self.clauses, core)
        else:
            assert solver.last_core is None
            assert not oracle(solver.num_vars, self.clauses)

    # -- invariants ----------------------------------------------------------

    @invariant()
    def trail_is_well_formed(self):
        if hasattr(self, "solver"):
            check_trail(self.solver)

    @invariant()
    def every_kept_level_is_propagation_complete(self):
        """On a copy: walk down the kept levels, drain the queue at each;
        the trail is then exactly the unit-propagation closure of the
        assumptions behind it (a conflict where the closure has one)."""
        if not hasattr(self, "solver") or not self.solver.ok:
            return
        probe = copy.deepcopy(self.solver)
        kept = min(len(probe.trail_lim), len(probe._assumed))
        root = probe.trail[: probe.trail_lim[0]] if probe.trail_lim else list(probe.trail)
        for depth in range(kept, -1, -1):
            probe._backtrack(depth)
            conflict = probe._propagate()
            # Closure over the solver's own database (learned clauses
            # propagate too), seeded with the root assignments it
            # simplified clauses by.
            expected = unit_closure(probe.clauses, root + probe._assumed[:depth])
            if expected is None:
                assert conflict is not None
            else:
                assert conflict is None and set(probe.trail) == expected

    @invariant()
    def level_ledger_balances(self):
        if hasattr(self, "solver"):
            s = self.solver
            assert s.stats_levels_reused + s.stats_levels_opened == self.assumption_lits


TrailReuse.TestCase.settings = settings(max_examples=200, stateful_step_count=40, deadline=None)
test_trail_reuse_matches_from_scratch_oracle = TrailReuse.TestCase


# -- pinned regressions --------------------------------------------------------


def _gate_tower(solver: CDCLSolver, inputs: list[int]) -> list[int]:
    """AND/XOR/ITE gates over ``inputs`` and over each other."""
    outs: list[int] = []
    pool = list(inputs)
    for i, kind in enumerate(["and", "xor", "ite", "xor", "and", "ite", "and", "xor"]):
        arity = 3 if kind == "ite" else 2
        ins = [pool[(i * 3 + k * 5) % len(pool)] * (-1 if (i + k) % 3 == 0 else 1) for k in range(arity)]
        z = solver.new_var()
        for clause in gate_clauses(kind, z, ins):
            assert solver.add_clause(clause)
        outs.append(z)
        pool.append(z)
    return outs


def test_gates_over_assigned_inputs_are_propagated_not_decided():
    """The completeness pin: circuits that join a live trail are computed
    by BCP at every kept level, for the same, a shorter and a sibling
    assumption list — never decided."""
    solver = CDCLSolver()
    inputs = [solver.new_var() for _ in range(6)]
    assumptions = [x if i % 2 else -x for i, x in enumerate(inputs)]
    assert solver.solve(assumptions=assumptions) == SatResult.SAT
    assert solver.stats_decisions == 0
    outs = _gate_tower(solver, inputs)
    assert solver.trail_lim, "the clauses joined a live trail"
    for probe, free_inputs in (
        (assumptions, 0),
        (assumptions[:-1], 1),
        (assumptions[:-1] + [-assumptions[-1]], 0),
        (assumptions[:3], 3),
        (assumptions[:2] + [-assumptions[2]], 3),
        (assumptions, 0),
    ):
        before = solver.stats_decisions
        assert solver.solve(assumptions=list(probe)) == SatResult.SAT
        assert solver.stats_decisions - before <= free_inputs
        # Every gate output has the value its inputs dictate.
        pool = {v: solver.value(v) for v in range(1, solver.num_vars + 1)}
        reference = CDCLSolver()
        for _ in range(solver.num_vars):
            reference.new_var()
        for clause in solver.clauses:
            reference.add_clause(list(clause))
        for x in inputs:
            reference.add_clause([x if pool[x] else -x])
        assert reference.solve() == SatResult.SAT
        assert all(reference.value(z) == pool[z] for z in outs)


def test_clause_unit_under_a_lower_level_survives_backtracks_inside_the_kept_region():
    """``b`` is forced by level 1 alone but learned about under three open
    levels; dropping levels 3 and 2 must keep it."""
    solver = CDCLSolver()
    a, b, c, d = (solver.new_var() for _ in range(4))
    solver.add_clause([a, b, c, d])
    assert solver.solve(assumptions=[a, c, d]) == SatResult.SAT
    solver.add_clause([-a, b])  # unit under level 1, arrives at level 3
    assert solver.value(b) is True
    before = solver.stats_decisions
    assert solver.solve(assumptions=[a, c]) == SatResult.SAT
    assert solver.solve(assumptions=[a]) == SatResult.SAT
    assert solver.value(b) is True
    assert solver.stats_decisions - before <= 2 + 1  # c and d at most, never b
    assert solver.level[b] == 1
    assert solver.solve(assumptions=[-a, -c, -d]) == SatResult.SAT
    assert solver.value(b) is True  # now by the long clause


def test_clause_satisfied_only_above_its_forcing_level_is_reimplied():
    """The satisfying literal is an assumption two levels above the false
    one; once that level goes, the clause must imply it."""
    solver = CDCLSolver()
    a, b, c = (solver.new_var() for _ in range(3))
    solver.add_clause([a, b, c])
    assert solver.solve(assumptions=[a, b, c]) == SatResult.SAT
    solver.add_clause([-a, c])
    before = solver.stats_decisions
    assert solver.solve(assumptions=[a]) == SatResult.SAT
    assert solver.value(c) is True and solver.reason[c] is not None
    assert solver.stats_decisions - before <= 1  # b only


def test_falsified_clause_undoes_only_the_levels_that_falsify_it():
    solver = CDCLSolver()
    a, b, c, d = (solver.new_var() for _ in range(4))
    solver.add_clause([a, b, c, d])
    assert solver.solve(assumptions=[a, b, c, d]) == SatResult.SAT
    assert solver.add_clause([-b, -c])
    assert len(solver.trail_lim) == 2 and solver.ok
    assert solver.value(c) is False  # implied at level 2 on the spot
    assert solver.solve(assumptions=[a, b, c, d]) == SatResult.UNSAT
    assert set(solver.last_core) == {b, c}
    assert solver.stats_levels_reused == 2
    assert solver.solve(assumptions=[a, b, d]) == SatResult.SAT


def test_which_levels_survive_which_answer():
    solver = CDCLSolver()
    a, b, c, d, e = (solver.new_var() for _ in range(5))
    solver.add_clause([-a, -b, -c])
    solver.add_clause([d, e])
    # UNSAT by propagation conflict-free: c is already false when placed.
    assert solver.solve(assumptions=[a, b, c, d]) == SatResult.UNSAT
    assert len(solver.trail_lim) == 2
    # SAT keeps the assumption levels (and the model's free decisions).
    assert solver.solve(assumptions=[a, b, -d]) == SatResult.SAT
    assert solver.stats_levels_reused == 2 and len(solver.trail_lim) >= 3
    # A unit clause goes to root.
    assert solver.add_clause([e])
    assert not solver.trail_lim
    # Conflict while propagating level 2: level 1 stays.
    solver.add_clause([-a, -b, d])
    solver.add_clause([-a, -b, -d])
    assert solver.solve(assumptions=[a, b]) == SatResult.UNSAT
    assert len(solver.trail_lim) == 1 and solver.ok
    assert sorted(solver.last_core) == sorted([a, b])


def test_due_reduction_gives_the_prefix_up_for_one_call():
    solver = CDCLSolver(max_learned=None)
    selector, spare = solver.new_var(), solver.new_var()
    v = [[solver.new_var() for _ in range(4)] for _ in range(5)]
    for row in v:
        solver.add_clause([-selector] + row)
    for h in range(4):
        for p1 in range(5):
            for p2 in range(p1 + 1, 5):
                solver.add_clause([-v[p1][h], -v[p2][h]])
    assert solver.solve(assumptions=[spare, selector]) == SatResult.UNSAT
    assert solver.num_learned > 0
    solver.max_learned = 0  # a reduction is now due: it needs root level
    assert solver.solve(assumptions=[spare, -selector]) == SatResult.SAT
    assert solver.stats_levels_reused == 0 and solver.max_learned > 0
    solver.max_learned = None
    assert solver.solve(assumptions=[spare, selector]) == SatResult.UNSAT
    assert solver.stats_levels_reused == 1


# -- a solver never given assumptions runs the parent's search -------------------


def _pigeonhole(solver: CDCLSolver, pigeons: int, holes: int):
    v = [[solver.new_var() for _ in range(holes)] for _ in range(pigeons)]
    for p in range(pigeons):
        solver.add_clause([v[p][h] for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                solver.add_clause([-v[p1][h], -v[p2][h]])
    return v


def _random_3sat(seed: int, n_vars: int, n_clauses: int) -> CDCLSolver:
    rng = random.Random(seed)
    solver = CDCLSolver()
    for _ in range(n_vars):
        solver.new_var()
    for _ in range(n_clauses):
        lits = set()
        for _ in range(3):
            v = rng.randint(1, n_vars)
            lits.add(v if rng.random() < 0.5 else -v)
        solver.add_clause(sorted(lits))
    return solver


def _search_stats(solver: CDCLSolver) -> tuple[int, ...]:
    return (
        solver.stats_decisions,
        solver.stats_propagations,
        solver.stats_conflicts,
        solver.stats_learned,
        solver.stats_restarts,
        solver.stats_bcp_props,
    )


def _model_bits(solver: CDCLSolver) -> int:
    return sum(1 << v for v in range(1, solver.num_vars + 1) if solver.value(v))


# Recorded at the parent commit (from-root kernel): decisions, propagations,
# conflicts, learned, restarts, bcp_props — and the model as a bit set.
PARENT_PHP_5_4 = (38, 297, 28, 23, 0, 669)
PARENT_PHP_7_7 = ((21, 49, 0, 0, 0, 64), 8935713546368)
PARENT_3SAT = [
    ("sat", (21, 180, 10, 10, 0, 679), 1541063534812),
    ("unsat", (28, 255, 22, 18, 0, 1004), None),
    ("sat", (7, 61, 1, 1, 0, 210), 1203993410992),
    ("unsat", (28, 358, 23, 19, 0, 1370), None),
    ("unsat", (24, 241, 19, 15, 0, 983), None),
    ("sat", (23, 121, 8, 7, 0, 448), 1097065000886),
]


def test_no_assumption_search_equals_the_parents():
    unsat = CDCLSolver()
    _pigeonhole(unsat, 5, 4)
    assert unsat.solve() == SatResult.UNSAT
    assert _search_stats(unsat) == PARENT_PHP_5_4

    sat = CDCLSolver()
    _pigeonhole(sat, 7, 7)
    assert sat.solve() == SatResult.SAT
    assert (_search_stats(sat), _model_bits(sat)) == PARENT_PHP_7_7
    # Solving again, and adding a clause in between, restart from root
    # exactly as they always did.
    assert sat.solve() == SatResult.SAT
    sat.add_clause([-1, -2, 3])
    assert not sat.trail_lim

    rows = []
    for seed in range(6):
        solver = _random_3sat(seed, 40, 165)
        verdict = solver.solve()
        rows.append(
            (verdict, _search_stats(solver), _model_bits(solver) if verdict == SatResult.SAT else None)
        )
    assert rows == PARENT_3SAT
    assert unsat.stats_levels_reused == unsat.stats_levels_opened == 0


# -- the ledger law, on a chain and on an engine run ---------------------------------


def _count_assumption_literals(monkeypatch) -> list[int]:
    carried = [0]
    kernel_solve = CDCLSolver.solve

    def counting_solve(self, conflict_budget=None, assumptions=None):
        carried[0] += len(assumptions or ())
        return kernel_solve(self, conflict_budget, assumptions=assumptions)

    monkeypatch.setattr(CDCLSolver, "solve", counting_solve)
    return carried


def test_chain_level_ledger_and_reuse_on_a_growing_path_condition(monkeypatch):
    carried = _count_assumption_literals(monkeypatch)
    chain = IncrementalChain(use_cache=False, use_fastpath=False)
    x = ops.bv_var("tx", 8)
    y = ops.bv_var("ty", 8)
    pc = []
    for k in range(6):
        pc.append(ops.ult(ops.bv(k, 8), ops.add(x, ops.mul(y, ops.bv(3, 8)))))
        chain.check(pc + [ops.eq(ops.urem(x, ops.bv(7, 8)), ops.bv(k, 8))])
        chain.check(pc + [ops.ult(y, ops.bv(9 + k, 8))])
    s = chain.stats
    assert s.assumption_probes == 12
    assert s.assumption_levels_reused + s.assumption_levels_opened == carried[0]
    assert s.assumption_levels_reused > s.assumption_levels_opened


def test_engine_run_level_ledger(monkeypatch):
    carried = _count_assumption_literals(monkeypatch)
    result = run_symbolic("factor", n_args=1, arg_len=1)
    s = result.stats
    assert s.assumption_probes > 0
    assert s.assumption_levels_reused + s.assumption_levels_opened == carried[0]

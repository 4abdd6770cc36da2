"""Micro-benchmarks of the solver substrate (the STP stand-in)."""

import random

import pytest

from repro.expr import ops
from repro.solver import CDCLSolver, SatResult, SolverChain, check_sat


def _pigeonhole_clauses(holes: int):
    """PHP(holes+1, holes): classically hard UNSAT family for resolution."""
    pigeons = holes + 1
    solver = CDCLSolver()
    var = [[solver.new_var() for _ in range(holes)] for _ in range(pigeons)]
    for p in range(pigeons):
        solver.add_clause([var[p][h] for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                solver.add_clause([-var[p1][h], -var[p2][h]])
    return solver


def test_cdcl_pigeonhole(benchmark):
    def run():
        solver = _pigeonhole_clauses(5)
        return solver.solve()

    assert benchmark(run) == SatResult.UNSAT


def test_cdcl_random_3sat(benchmark):
    rng = random.Random(42)
    n_vars, n_clauses = 60, 240

    def run():
        solver = CDCLSolver()
        variables = [solver.new_var() for _ in range(n_vars)]
        local = random.Random(7)
        for _ in range(n_clauses):
            clause = [local.choice(variables) * local.choice((1, -1)) for _ in range(3)]
            solver.add_clause(clause)
        return solver.solve()

    benchmark(run)
    assert rng  # silence lint; determinism via local rng


def test_bitblast_mul_equation(benchmark):
    x = ops.bv_var("x", 8)
    y = ops.bv_var("y", 8)
    goal = [ops.eq(ops.mul(x, y), ops.bv(221, 8)), ops.ult(ops.bv(1, 8), x), ops.ult(x, y)]

    def run():
        sat, model, _ = check_sat(goal)
        return sat, model

    sat, model = benchmark(run)
    assert sat


def test_solver_chain_cached_requeries(benchmark):
    x = ops.bv_var("x", 8)
    constraints = [ops.ult(x, ops.bv(100, 8)), ops.ult(ops.bv(50, 8), x)]

    def run():
        chain = SolverChain()
        for _ in range(200):
            assert chain.check(constraints).is_sat
        return chain.stats.queries

    assert benchmark(run) == 200


def test_incremental_branch_stream(benchmark):
    """The executor's hot pattern: a growing pc probed at every branch.

    The incremental chain answers the whole stream off one persistent
    blaster; the verdict sequence must match the fresh-blast chain while
    re-blasting (sat_solver_runs) collapses to the blaster-build count.
    """
    from repro.solver.portfolio import IncrementalChain

    x = ops.bv_var("ix", 8)
    y = ops.bv_var("iy", 8)
    conds = [ops.ult(ops.bv(k, 8), ops.add(x, ops.mul(y, ops.bv(3, 8))))
             for k in range(12)]

    def drive(chain):
        verdicts = []
        pc = []
        for cond in conds:
            then_res, else_res = chain.check_branch(pc, cond)
            verdicts.append((then_res.is_sat, else_res.is_sat))
            if then_res.is_sat:
                pc = pc + [cond]
            elif else_res.is_sat:
                pc = pc + [ops.not_(cond)]
        return verdicts

    fresh = SolverChain(use_cache=False, use_fastpath=False)
    fresh_verdicts = drive(fresh)

    def run():
        chain = IncrementalChain(use_cache=False, use_fastpath=False)
        return drive(chain), chain

    verdicts, chain = benchmark(run)
    assert verdicts == fresh_verdicts
    assert chain.stats.sat_solver_runs < fresh.stats.sat_solver_runs
    assert chain.stats.incremental_reuses > 0


def test_presolve_branch_stream(benchmark):
    """The same branch stream with the pre-solve tier enabled.

    The abstract domains answer a share of the probes before blasting and
    incrementally extend per-prefix environments; verdicts must match the
    tier-less chain exactly (the fastpath neutrality law).
    """
    from repro.solver.portfolio import IncrementalChain

    x = ops.bv_var("ix", 8)
    y = ops.bv_var("iy", 8)
    conds = [ops.ult(ops.bv(k, 8), ops.add(x, ops.mul(y, ops.bv(3, 8))))
             for k in range(12)]

    def drive(chain):
        verdicts = []
        pc = []
        for cond in conds:
            then_res, else_res = chain.check_branch(pc, cond)
            verdicts.append((then_res.is_sat, else_res.is_sat))
            if then_res.is_sat:
                pc = pc + [cond]
            elif else_res.is_sat:
                pc = pc + [ops.not_(cond)]
        return verdicts

    bare = IncrementalChain(use_cache=False, use_fastpath=False)
    bare_verdicts = drive(bare)

    def run():
        chain = IncrementalChain(use_cache=False)
        return drive(chain), chain

    verdicts, chain = benchmark(run)
    assert verdicts == bare_verdicts
    assert chain.stats.fastpath_hits > 0
    assert chain.stats.fastpath_hits == (
        chain.stats.presolve_hits_sat + chain.stats.presolve_hits_unsat
    )
    assert chain.stats.presolve_env_reuses > 0
    assert chain.stats.cost_units < bare.stats.cost_units


def test_factor_probes_keep_their_prefix_on_the_trail(benchmark):
    """bench/'s ``blast_factor`` cell (factor plain 1x2, first byte <= '2').

    Its 100 assumption probes extend one path condition, so the CDCL
    trail keeps most assumption levels from probe to probe and BCP only
    runs over what is new.  Counts are deterministic; from-root probing
    took 1 564 623 watched-clause visits on this cell.
    """
    from repro.env.runner import run_symbolic

    first_byte = ops.ule(ops.bv_var("arg1_b0", 8), ops.bv(ord("2"), 8))

    def run():
        return run_symbolic("factor", n_args=1, arg_len=2, preconditions=(first_byte,))

    stats = benchmark.pedantic(run, rounds=1, iterations=1).stats
    assert stats.assumption_probes == 100
    assert stats.bcp_props <= 400_000
    carried = stats.assumption_levels_reused + stats.assumption_levels_opened
    assert stats.assumption_levels_reused / carried >= 0.8


@pytest.mark.parametrize("program, mode, paths, tests", [
    ("uniq", "dsm-qce", 184, 14),
    ("wc", "plain", 84, 84),
])
def test_store_answers_blasts_not_lookups(tmp_path, program, mode, paths, tests):
    """Count gate (no wall time) for where a run consults its store.

    Cold then warm 2x2 cell against one store (a cell starts from cleared
    memos, as a second process would find them).  The store is told only what
    the bottom tier solved and asked only what it would have to solve;
    warm test generation reads every group the cold run solved.
    """
    from repro.experiments.harness import run_cell

    def run():
        return run_cell(program, mode, n_args=2, arg_len=2, generate_tests=True,
                        store_path=str(tmp_path / "store.sqlite"))

    cold, warm = run(), run()
    for result in (cold, warm):
        assert (result.paths, len(result.tests.cases)) == (paths, tests)
    c, w = cold.stats, warm.stats
    assert cold.stats.testgen_group_solves > 0
    assert warm.stats.testgen_group_solves == 0
    assert warm.stats.testgen_corpus_hits == cold.stats.testgen_group_solves
    assert c.store_hits == 0 and c.store_misses == c.assumption_probes
    assert c.store_inserts <= c.assumption_probes + c.unsat_cores
    assert w.store_hits + w.store_misses <= c.assumption_probes
    assert w.sat_solver_runs <= c.sat_solver_runs


@pytest.mark.parametrize("n, l, paths, queries, max_misses, max_presolve, min_exact", [
    (2, 2, 84, 201, 60, 40, 0.5),      # whole-pc queries: 154 misses, 113 presolve decisions
    (3, 2, 588, 1209, 120, 80, 0.6),   # 920 and 1 070 (bench/'s ``plain_wc`` cell)
])
def test_branch_queries_are_slices(n, l, paths, queries, max_misses, max_presolve, min_exact):
    """Count gate (no wall time) for what a branch sends the solver.

    On plain ``wc`` a branch tests one input byte and the path condition
    is a conjunction over all of them, so the slice is the handful of
    conjuncts on that byte: it recurs across paths (exact cache hits)
    where the whole pc never does (a miss, then presolve).  Paths, tests
    and the query count are those of whole-pc branch queries.
    """
    from repro.env.runner import run_symbolic

    result = run_symbolic("wc", n_args=n, arg_len=l)
    stats = result.stats
    assert (result.paths, len(result.tests.cases), stats.queries) == (paths, paths, queries)
    assert stats.cache_misses <= max_misses
    assert stats.fastpath_hits <= max_presolve
    lookups = (stats.cache_hits_exact + stats.cache_hits_subset
               + stats.cache_hits_model + stats.cache_misses)
    assert stats.cache_hits_exact / lookups >= min_exact


def test_presolve_fixpoint_deep_ite():
    """Count gate (no wall time): a 24-deep ite chain under a growing
    path condition is decided by the presolve fixpoint alone — every
    query a fast-path hit, nothing blasted."""
    from repro.solver.portfolio import IncrementalChain

    chain = IncrementalChain(use_cache=False)
    x = ops.bv_var("px", 8)
    acc = ops.bv(0, 8)
    for k in range(24):
        acc = ops.ite(ops.ult(x, ops.bv(200 - k, 8)), ops.add(acc, ops.bv(1, 8)), acc)
    pc = [ops.ult(ops.bv(3, 8), x)]
    for k in range(12):
        chain.check(pc + [ops.ule(acc, ops.bv(30 - k, 8))])
        pc = pc + [ops.ult(ops.bv(4 + k, 8), x)]
    stats = chain.stats
    assert (stats.queries, stats.fastpath_hits) == (12, 12)
    assert stats.presolve_batch_rounds == 144
    assert stats.sat_solver_runs == 0 and stats.assumption_probes == 0


def _engine_kernel_counts(program, mode, n, l, monkeypatch, restrict=True):
    """The engine chain's solver counters of one cell (cold memos)."""
    from repro.experiments.harness import run_cell
    from repro.solver import portfolio
    from repro.solver.bitblast import BitBlaster

    class UnrestrictedBlaster(BitBlaster):
        def probe_cone(self, assumptions):
            return None

    with monkeypatch.context() as patch:
        if not restrict:
            patch.setattr(portfolio, "BitBlaster", UnrestrictedBlaster)
        return run_cell(program, mode, n_args=n, arg_len=l).stats


def test_merged_probes_decide_only_their_cone(monkeypatch):
    """Count gate (no wall time): ``echo dsm-qce 3x3``'s probes decide and
    propagate only the circuits their assumptions reach.  An engine whose
    persistent blasters search the whole formula took 2 425 decisions,
    15 324 propagations and 30 202 watched-clause visits on this cell."""
    here = _engine_kernel_counts("echo", "dsm-qce", 3, 3, monkeypatch)
    whole = _engine_kernel_counts("echo", "dsm-qce", 3, 3, monkeypatch, restrict=False)
    fields = ("sat_decisions", "sat_propagations", "bcp_props")
    assert tuple(getattr(here, f) for f in fields) == (1232, 13492, 28152)
    assert tuple(getattr(whole, f) for f in fields) == (2425, 15324, 30202)
    assert all(getattr(here, f) < getattr(whole, f) for f in fields)


def test_assumption_levels_keep_full_propagation(monkeypatch):
    """Count gate (no wall time): ``factor plain 1x1`` pins the probes'
    decisions and conflicts.  The cone restriction stops at the last
    assumption level; restricting the assumption levels too leaves
    later probes implications to decide, and moves both counts."""
    stats = _engine_kernel_counts("factor", "plain", 1, 1, monkeypatch)
    assert (stats.sat_decisions, stats.sat_conflicts) == (9, 2)

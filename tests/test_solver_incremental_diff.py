"""Differential harness: incremental vs. fresh-blast solver chains.

A seeded random constraint-set corpus (same spirit as the golden corpus in
``test_corpus_symbolic.py``, but at the solver layer) is pushed through one
long-lived :class:`IncrementalChain` and a fresh-blast :class:`SolverChain`.
Both must return identical SAT/UNSAT verdicts on every case, and every
returned model must evaluate all of the case's constraints to true.  The
incremental chain is *shared* across all cases so its persistent blasters,
guard tables, and learned clauses carry over — exactly the reuse pattern
the executor produces as path conditions grow.
"""

import random

import pytest

from repro.engine import executor
from repro.env.runner import run_symbolic
from repro.expr import ops
from repro.expr.evaluate import evaluate
from repro.solver.portfolio import IncrementalChain, SolverChain, complete_model

WIDTH = 4
VARS = [ops.bv_var(name, WIDTH) for name in ("dx", "dy", "dz")]

_BINOPS = [ops.add, ops.sub, ops.mul, ops.bvand, ops.bvor, ops.bvxor, ops.shl, ops.lshr]
_RARE_BINOPS = [ops.udiv, ops.urem, ops.sdiv, ops.srem, ops.ashr]
_CMPS = [ops.eq, ops.ne, ops.ult, ops.ule, ops.slt, ops.sle]


def gen_bv(rng: random.Random, depth: int):
    """A random bitvector expression over the shared variable pool."""
    if depth == 0 or rng.random() < 0.35:
        if rng.random() < 0.6:
            return rng.choice(VARS)
        return ops.bv(rng.randrange(1 << WIDTH), WIDTH)
    roll = rng.random()
    if roll < 0.08:
        return ops.ite(gen_bool(rng, depth - 1), gen_bv(rng, depth - 1), gen_bv(rng, depth - 1))
    if roll < 0.12:
        op = rng.choice(_RARE_BINOPS)
    else:
        op = rng.choice(_BINOPS)
    return op(gen_bv(rng, depth - 1), gen_bv(rng, depth - 1))


def gen_bool(rng: random.Random, depth: int):
    """A random boolean constraint (comparison or connective tree)."""
    if depth == 0 or rng.random() < 0.55:
        cmp = rng.choice(_CMPS)
        return cmp(gen_bv(rng, max(0, depth - 1)), gen_bv(rng, max(0, depth - 1)))
    roll = rng.random()
    if roll < 0.35:
        return ops.and_(gen_bool(rng, depth - 1), gen_bool(rng, depth - 1))
    if roll < 0.7:
        return ops.or_(gen_bool(rng, depth - 1), gen_bool(rng, depth - 1))
    if roll < 0.85:
        return ops.not_(gen_bool(rng, depth - 1))
    return ops.xor(gen_bool(rng, depth - 1), gen_bool(rng, depth - 1))


def gen_constraint_set(rng: random.Random):
    return [gen_bool(rng, rng.randrange(1, 3)) for _ in range(rng.randrange(1, 5))]


def _assert_model_satisfies(constraints, model):
    full = complete_model(model, [v.name for v in VARS])
    for c in constraints:
        assert evaluate(c, full) == 1, (c, full)


N_CASES = 240


def test_differential_random_corpus():
    """≥200 seeded cases: identical verdicts, models evaluate true."""
    rng = random.Random(0xC0FFEE)
    incremental = IncrementalChain(use_cache=False, use_fastpath=False)
    fresh = SolverChain(use_cache=False, use_fastpath=False)
    sat_cases = unsat_cases = 0
    for case in range(N_CASES):
        constraints = gen_constraint_set(rng)
        r_inc = incremental.check(constraints)
        r_fresh = fresh.check(constraints)
        assert r_inc.is_sat == r_fresh.is_sat, (case, constraints)
        if r_inc.is_sat:
            sat_cases += 1
            _assert_model_satisfies(constraints, r_inc.model)
            _assert_model_satisfies(constraints, r_fresh.model)
        else:
            unsat_cases += 1
    # The corpus must actually exercise both verdicts...
    assert sat_cases > 20 and unsat_cases > 20, (sat_cases, unsat_cases)
    # ...and the incremental chain must have reused persistent blasters:
    # the fresh chain re-blasts every bottom-tier query, the incremental
    # one only on a new group signature.
    assert incremental.stats.incremental_reuses > N_CASES / 2
    assert incremental.stats.sat_solver_runs < fresh.stats.sat_solver_runs / 4
    assert incremental.stats.assumption_probes == (
        incremental.stats.sat_solver_runs + incremental.stats.incremental_reuses
    )
    assert incremental.stats.clauses_retained > 0


def test_differential_branch_walks():
    """Simulated executor walks: grow a pc via check_branch on both chains."""
    rng = random.Random(1234)
    incremental = IncrementalChain()
    fresh = SolverChain()
    for _walk in range(30):
        pc: list = []
        for _step in range(8):
            cond = gen_bool(rng, rng.randrange(0, 2))
            then_i, else_i = incremental.check_branch(pc, cond)
            then_f, else_f = fresh.check_branch(pc, cond)
            assert then_i.is_sat == then_f.is_sat
            assert else_i.is_sat == else_f.is_sat
            # Follow a feasible arm, exactly like the executor does.
            if then_i.is_sat:
                pc.append(cond)
            elif else_i.is_sat:
                pc.append(ops.not_(cond))
            else:
                break
    assert incremental.stats.branch_batches == fresh.stats.branch_batches


def test_differential_model_reuse_across_growing_pc():
    """A pc grown one constraint at a time hits the same blaster each time."""
    x = ops.bv_var("dgx", 8)
    chain = IncrementalChain(use_cache=False, use_fastpath=False)
    pc = []
    for bound in range(200, 190, -1):
        pc.append(ops.ult(x, ops.bv(bound, 8)))
        result = chain.check(pc)
        assert result.is_sat
        assert result.model["dgx"] < bound
    assert chain.stats.blasters_created == 1
    assert chain.stats.incremental_reuses == 9


ENGINE_PROGRAMS = ["echo", "test", "wc", "tr", "uniq"]


@pytest.fixture(scope="module")
def fresh_and_incremental():
    """program -> (fresh-blast run, incremental run), each program once."""
    # The presolve tier answers most of these small programs' queries
    # outright; disable it so the differential actually exercises the
    # incremental bottom tier this test is about.
    runs = {}
    for program in ENGINE_PROGRAMS:
        pair = []
        for chain_cls in (SolverChain, IncrementalChain):
            with pytest.MonkeyPatch.context() as patched:
                # The engine builds executor.IncrementalChain.
                patched.setattr(executor, "IncrementalChain", chain_cls)
                pair.append(run_symbolic(program, solver_fastpath=False))
        runs[program] = tuple(pair)
    return runs


@pytest.mark.parametrize("program", ENGINE_PROGRAMS)
def test_engine_differential_incremental_vs_fresh(fresh_and_incremental, program):
    """Whole-engine differential: identical path space and test counts —
    and, over the five programs, the incremental tier's reason to exist:
    far fewer full blasts at no more cost units."""
    fresh, incr = fresh_and_incremental[program]
    assert type(fresh.engine.solver) is SolverChain
    assert incr.paths == fresh.paths
    assert incr.stats.forks == fresh.stats.forks
    assert incr.engine.stats.errors_found == fresh.engine.stats.errors_found
    assert len(incr.tests.cases) == len(fresh.tests.cases)
    assert incr.stats.sat_solver_runs <= fresh.stats.sat_solver_runs
    assert incr.stats.assumption_probes > 0
    assert incr.stats.incremental_reuses > 0

    def total(runs, counter):
        return sum(getattr(run.stats, counter) for run in runs)

    all_fresh, all_incr = zip(*fresh_and_incremental.values())
    blast_ratio = total(all_incr, "sat_solver_runs") / total(all_fresh, "sat_solver_runs")
    cost_ratio = total(all_incr, "cost_units") / total(all_fresh, "cost_units")
    assert blast_ratio < 0.6, "incremental tier should re-blast far less"
    assert cost_ratio <= 1.0, "cost units should not regress"

"""Pre-solve tier tests: soundness differentials and incrementality.

Three layers of evidence for the fastpath neutrality law:

* **hypothesis differential** — on random constraint groups (including the
  ite-heavy shapes state merging produces), a presolve SAT verdict must
  come with a model that evaluates true, and a presolve UNSAT verdict must
  agree with the bit-blaster;
* **boundary-rewrite differential** — :func:`simplify_group` output must be
  equisatisfiable with its input, with models transferring both ways;
* **incremental-vs-from-scratch equivalence** — extending an environment
  constraint-by-constraint reaches the same abstract facts (and the same
  decision) as building it from the full set in one shot.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.expr import ops
from repro.expr.evaluate import EvalError, evaluate
from repro.solver.bitblast import check_sat
from repro.solver.portfolio import IncrementalChain, SolverChain, SolverTimeout, complete_model
from repro.solver.presolve import (
    SAT,
    UNKNOWN,
    UNSAT,
    PresolveEnv,
    PresolveManager,
    group_signature,
    simplify_group,
)

WIDTH = 8
VAR_NAMES = ("pva", "pvb", "pvc")


def decide(group):
    """One group, decided from scratch: ``SolverChain._solve_group``'s call."""
    return PresolveManager().check_group(group, group_signature(group))


VARS = [ops.bv_var(name, WIDTH) for name in VAR_NAMES]

_BINOPS = [ops.add, ops.sub, ops.mul, ops.bvand, ops.bvor, ops.bvxor, ops.shl, ops.lshr]
_CMPS = [ops.eq, ops.ne, ops.ult, ops.ule, ops.slt, ops.sle]


def gen_bv(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.55:
            return rng.choice(VARS)
        return ops.bv(rng.randrange(1 << WIDTH), WIDTH)
    roll = rng.random()
    if roll < 0.2:
        # ite-heavy: exactly the shape merged states produce.
        return ops.ite(gen_bool(rng, depth - 1), gen_bv(rng, depth - 1), gen_bv(rng, depth - 1))
    if roll < 0.28:
        return ops.zext(ops.extract(gen_bv(rng, depth - 1), 3, 0), WIDTH)
    if roll < 0.34:
        return ops.concat(ops.extract(gen_bv(rng, depth - 1), 3, 0),
                          ops.extract(gen_bv(rng, depth - 1), 3, 0))
    op = rng.choice(_BINOPS)
    return op(gen_bv(rng, depth - 1), gen_bv(rng, depth - 1))


def gen_bool(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.5:
        cmp = rng.choice(_CMPS)
        return cmp(gen_bv(rng, max(0, depth - 1)), gen_bv(rng, max(0, depth - 1)))
    roll = rng.random()
    if roll < 0.35:
        return ops.and_(gen_bool(rng, depth - 1), gen_bool(rng, depth - 1))
    if roll < 0.7:
        return ops.or_(gen_bool(rng, depth - 1), gen_bool(rng, depth - 1))
    return ops.not_(gen_bool(rng, depth - 1))


def gen_group(rng: random.Random):
    group = [gen_bool(rng, rng.randrange(1, 4)) for _ in range(rng.randrange(1, 5))]
    return [c for c in group if not c.is_true() and not c.is_false()]


def _truth(group):
    is_sat, _, _ = check_sat(group)
    return is_sat


# ---------------------------------------------------------------------------
# Differential: presolve verdicts vs. the bit-blaster
# ---------------------------------------------------------------------------


@given(st.integers(0, 10**9))
@settings(max_examples=150, deadline=None)
def test_presolve_differential_random_groups(seed):
    rng = random.Random(seed)
    group = gen_group(rng)
    if not group:
        return
    verdict, model = decide(group)
    if verdict == SAT:
        full = complete_model(model, VAR_NAMES)
        for c in group:
            assert evaluate(c, full) == 1, (seed, c, full)
        assert _truth(group)
    elif verdict == UNSAT:
        assert not _truth(group), (seed, group)


@given(st.integers(0, 10**9))
@settings(max_examples=100, deadline=None)
def test_boundary_rewrite_equisatisfiable(seed):
    rng = random.Random(seed)
    group = gen_group(rng)
    if not group:
        return
    rewritten = simplify_group(group)
    if rewritten is None:
        return
    blast = [c for c in rewritten if not c.is_true()]
    truth_orig = _truth(group)
    if any(c.is_false() for c in blast):
        assert not truth_orig, (seed, group)
        return
    is_sat, model, _ = check_sat(blast)
    assert is_sat == truth_orig, (seed, group, blast)
    if is_sat:
        # The rewritten set is model-preserving: its solutions (zero-filled
        # for dropped unconstrained vars) satisfy the original group.
        full = complete_model(model, VAR_NAMES)
        for c in group:
            assert evaluate(c, full) == 1, (seed, c, full)


def test_presolve_decides_ite_heavy_merged_shapes():
    """Merge-produced ite expressions stay analyzable through the domains."""
    x, y = VARS[0], VARS[1]
    cond = ops.ult(x, ops.bv(4, WIDTH))
    merged = ops.ite(cond, ops.bv(2, WIDTH), ops.bv(200, WIDTH))
    # Both arms below 201, so == 255 is refutable without blasting.
    verdict, _ = decide([ops.eq(merged, ops.bv(255, WIDTH))])
    assert verdict == UNSAT
    # Interval join of the arms: value is always >= 2.
    verdict, _ = decide([ops.ult(merged, ops.bv(2, WIDTH))])
    assert verdict == UNSAT
    # Requiring the value to be in the else-arm's range decides the cond:
    # env learns cond == False, so x >= 4 — contradiction with x == 0.
    verdict, _ = decide(
        [ops.eq(merged, ops.bv(200, WIDTH)), ops.eq(x, ops.bv(0, WIDTH))]
    )
    assert verdict == UNSAT
    # Known bits flow through ite: both arms are even, so & 1 == 1 fails.
    even = ops.ite(cond, ops.mul(y, ops.bv(2, WIDTH)), ops.bv(6, WIDTH))
    verdict, _ = decide(
        [ops.eq(ops.bvand(even, ops.bv(1, WIDTH)), ops.bv(1, WIDTH))]
    )
    assert verdict == UNSAT


def test_known_bits_through_structure():
    x = VARS[0]
    # zext pins the high bits; extract slices them back out.
    verdict, _ = decide(
        [ops.eq(ops.bvand(x, ops.bv(0x0F, WIDTH)), ops.bv(5, WIDTH)),
         ops.eq(ops.bvand(x, ops.bv(0x01, WIDTH)), ops.bv(0, WIDTH))]
    )
    assert verdict == UNSAT  # bit 0 cannot be both 1 (from 5) and 0
    # Shifted values keep their low zero bits.
    verdict, _ = decide(
        [ops.eq(ops.shl(x, ops.bv(2, WIDTH)), ops.bv(3, WIDTH))]
    )
    assert verdict == UNSAT


# ---------------------------------------------------------------------------
# Incremental environments
# ---------------------------------------------------------------------------


@given(st.integers(0, 10**9))
@settings(max_examples=80, deadline=None)
def test_incremental_env_equals_from_scratch(seed):
    """Extending an env constraint-by-constraint reaches the same facts."""
    rng = random.Random(seed)
    group = gen_group(rng)
    if not group:
        return
    scratch = PresolveEnv()
    scratch.absorb(group)
    incremental = PresolveEnv()
    split = rng.randrange(0, len(group) + 1)
    incremental.absorb(group[:split])
    incremental.absorb(group[split:])
    assert incremental.infeasible == scratch.infeasible, (seed, group)
    if scratch.infeasible:
        return
    assert incremental.ranges == scratch.ranges, (seed, group)
    assert incremental.bits == scratch.bits, (seed, group)
    assert incremental.bools == scratch.bools, (seed, group)
    assert incremental.decide(group)[0] == scratch.decide(group)[0]


def test_clone_isolation():
    x = VARS[0]
    base = PresolveEnv()
    base.absorb([ops.ult(x, ops.bv(100, WIDTH))])
    child = base.clone()
    child.absorb([ops.ult(ops.bv(50, WIDTH), x)])
    assert child.ranges[x.name] == (51, 99)
    assert base.ranges[x.name] == (0, 99), "clone must not leak into its parent"


def test_manager_snapshot_reuse_and_exact_match():
    x = VARS[0]
    mgr = PresolveManager()
    pc = [ops.ult(x, ops.bv(100, WIDTH))]
    verdict, _ = mgr.check_group(pc)
    assert verdict == SAT
    assert mgr.env_builds == 1 and mgr.env_reuses == 0
    # The grown set extends the pc snapshot instead of rebuilding...
    grown = pc + [ops.ult(ops.bv(10, WIDTH), x)]
    verdict, model = mgr.check_group(grown)
    assert verdict == SAT and 10 < model[x.name] < 100
    assert mgr.env_reuses == 1 and mgr.env_builds == 1
    # ...the sibling branch query still finds the shared pc snapshot...
    sibling = pc + [ops.ule(x, ops.bv(10, WIDTH))]
    verdict, _ = mgr.check_group(sibling)
    assert verdict == SAT
    assert mgr.env_reuses == 2 and mgr.env_builds == 1
    # ...and an exact repeat returns the memoized verdict outright.
    verdict, _ = mgr.check_group(grown)
    assert verdict == SAT
    assert mgr.env_reuses == 3 and mgr.env_builds == 1


def test_manager_subset_infeasibility_is_sound_for_supersets():
    """An infeasible snapshot stays UNSAT for any superset group."""
    x = VARS[0]
    mgr = PresolveManager()
    contradiction = [ops.ult(x, ops.bv(5, WIDTH)), ops.ult(ops.bv(10, WIDTH), x)]
    assert mgr.check_group(contradiction)[0] == UNSAT
    grown = contradiction + [ops.ult(x, ops.bv(50, WIDTH))]
    assert mgr.check_group(grown)[0] == UNSAT


# ---------------------------------------------------------------------------
# Chain integration: counters, ledger, resets
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("chain_cls", [SolverChain, IncrementalChain])
def test_presolve_counter_ledger(chain_cls):
    x = VARS[0]
    chain = chain_cls(use_cache=False)
    chain.check([ops.ult(x, ops.bv(100, WIDTH))])
    chain.check([ops.ult(x, ops.bv(100, WIDTH)), ops.ult(ops.bv(200, WIDTH), x)])
    chain.check([ops.eq(ops.mul(x, VARS[1]), ops.bv(143, WIDTH)),
                 ops.ult(ops.bv(1, WIDTH), x), ops.ult(x, VARS[1])])
    stats = chain.stats
    assert stats.presolve_hits_sat >= 1
    assert stats.presolve_hits_unsat >= 1
    assert stats.fastpath_hits == stats.presolve_hits_sat + stats.presolve_hits_unsat
    assert stats.queries == stats.sat_answers + stats.unsat_answers + stats.timeouts
    assert stats.presolve_env_reuses + stats.presolve_env_builds > 0


def test_boundary_rewrite_counted_and_verdict_neutral():
    """A group the domains cannot decide still gets boundary-simplified."""
    x, y = VARS[0], VARS[1]
    group = [
        ops.eq(x, ops.bv(11, WIDTH)),
        ops.eq(ops.mul(y, y), ops.mul(x, ops.bv(11, WIDTH))),
    ]
    plain = SolverChain(use_cache=False, use_fastpath=False)
    fast = SolverChain(use_cache=False)
    r_plain = plain.check(group)
    r_fast = fast.check(group)
    assert r_plain.is_sat == r_fast.is_sat
    if r_fast.is_sat and fast.stats.fastpath_hits == 0:
        # Reached the bottom tier: the substituted group must have been
        # rewritten (x == 11 folded into the quadratic constraint).
        assert fast.stats.presolve_rewrites >= 1
    if r_fast.is_sat:
        full = complete_model(r_fast.model, VAR_NAMES)
        for c in group:
            assert evaluate(c, full) == 1


def test_timeout_resets_presolve_envs_with_blaster():
    """The presolve reset rule mirrors the blaster reset invariant."""
    holes = 5
    constraints = []
    for p in range(holes + 1):
        constraints.append(ops.or_all([ops.bool_var(f"pt{p}_{h}") for h in range(holes)]))
    for h in range(holes):
        for p1 in range(holes + 1):
            for p2 in range(p1 + 1, holes + 1):
                constraints.append(
                    ops.not_(ops.and_(ops.bool_var(f"pt{p1}_{h}"),
                                      ops.bool_var(f"pt{p2}_{h}")))
                )
    chain = IncrementalChain(conflict_budget=5, use_cache=False,
                             use_independence=False)
    with pytest.raises(SolverTimeout):
        chain.check(constraints)
    assert not chain.presolve._sigs, "timed-out signature must drop its envs"
    chain.reset_blasters()
    assert not chain.presolve._sigs


def test_quick_check_legacy_contract():
    """What the retired one-shot facade promised, from the production
    entry: a from-scratch group decision, and constants folded by the chain."""
    x = VARS[0]
    verdict, model = decide([ops.eq(x, ops.bv(7, WIDTH))])
    assert verdict == SAT and model[x.name] == 7
    chain = SolverChain()
    assert chain.check([ops.TRUE]).is_sat
    assert not chain.check([ops.FALSE]).is_sat
    assert chain.stats.const_answers == 2
    verdict, _ = decide([ops.ult(x, ops.bv(5, WIDTH)),
                                 ops.ult(ops.bv(10, WIDTH), x)])
    assert verdict == UNSAT


# ---------------------------------------------------------------------------
# Engine-level neutrality: presolve on vs. off
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode_kwargs", [
    dict(merging="none", similarity="never", strategy="dfs"),
    dict(merging="static", similarity="qce", strategy="topological"),
])
def test_engine_neutrality_presolve_on_off(mode_kwargs):
    """Identical tests, coverage and paths; only which tier answers moves."""
    from repro.env.runner import run_symbolic
    from repro.experiments.harness import same_exploration

    results = {}
    for fastpath in (False, True):
        results[fastpath] = run_symbolic(
            "echo", n_args=2, arg_len=2, generate_tests=True,
            solver_fastpath=fastpath, **mode_kwargs,
        )
    off, on = results[False], results[True]
    same_exploration(off, on, "presolve tier")
    assert on.solver_stats.fastpath_hits > 0
    assert on.solver_stats.sat_solver_runs <= off.solver_stats.sat_solver_runs

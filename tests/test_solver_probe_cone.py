"""A probe decides only its cone (:mod:`repro.solver.sat`, "The probe cone").

A persistent :class:`BitBlaster` hands its CDCL kernel the fan-in closure
of a probe's assumed guards; above the assumption levels the kernel
decides and propagates only that.  Two laws hold it to an unrestricted
search:

* **blaster level** — random constraint sets over a few 8-bit variables
  (``udiv``/``urem`` by a variable among them) go into one persistent
  blaster and random guard subsets are probed in random order: each
  verdict is a fresh blast's, each SAT model satisfies every assumed
  constraint, each UNSAT core is UNSAT on its own, and the kept trail
  keeps its invariants;
* **chain level** — an engine whose persistent blasters do not restrict
  (:class:`UnrestrictedBlaster` swapped in for ``portfolio.BitBlaster``)
  is the oracle: the engine chain's verdict sequence, every test (every
  field, ``path_id`` included), coverage, paths and every engine
  counter of its ``Stats`` are the oracle's, on the corpus under three
  modes and on generated programs.  Only solver counters (and the models
  behind them) may move; the test prints them.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.executor import Engine, EngineConfig
from repro.env.argv import ArgvSpec
from repro.experiments.harness import MODES
from repro.expr import ops
from repro.expr.evaluate import evaluate
from repro.lang import compile_program
from repro.memo import clear_memos
from repro.programs.registry import PROGRAMS, get_program
from repro.solver import portfolio
from repro.solver.bitblast import BitBlaster, check_sat
from repro.solver.portfolio import IncrementalChain, complete_model
from repro.stats import Stats

from minic_gen import minic_programs
from test_solver_trail_reuse import check_trail


class UnrestrictedBlaster(BitBlaster):
    """A blaster whose probes search the whole formula (the oracle)."""

    def probe_cone(self, assumptions):
        return None


# -- blaster level ------------------------------------------------------------------

WIDTH = 8
VARS = [ops.bv_var(f"cone_{name}", WIDTH) for name in ("x", "y", "z")]
_BINOPS = [ops.add, ops.sub, ops.mul, ops.bvand, ops.bvor, ops.bvxor, ops.lshr]
_DIVS = [ops.udiv, ops.urem]
_CMPS = [ops.eq, ops.ne, ops.ult, ops.ule, ops.slt]


def gen_bv(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.7:
            return rng.choice(VARS)
        return ops.bv(rng.randrange(1 << WIDTH), WIDTH)
    roll = rng.random()
    if roll < 0.25:
        # Division by a variable: the free quotient/remainder circuit.
        return rng.choice(_DIVS)(gen_bv(rng, depth - 1), rng.choice(VARS))
    if roll < 0.35:
        return ops.ite(gen_bool(rng, depth - 1), gen_bv(rng, depth - 1), gen_bv(rng, depth - 1))
    return rng.choice(_BINOPS)(gen_bv(rng, depth - 1), gen_bv(rng, depth - 1))


def gen_bool(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.7:
        return rng.choice(_CMPS)(gen_bv(rng, max(0, depth - 1)), gen_bv(rng, max(0, depth - 1)))
    if rng.random() < 0.5:
        return ops.or_(gen_bool(rng, depth - 1), gen_bool(rng, depth - 1))
    return ops.not_(gen_bool(rng, depth - 1))


def fresh_verdict(constraints) -> bool:
    return check_sat(list(constraints))[0]


def probe(blaster: BitBlaster, subset):
    """One assumption probe, held to every blaster-level law."""
    guards = [blaster.guard_literal(c) for c in subset]
    # A budget no correct probe of formulas this small comes near: a
    # kernel that skips a unit it owes may search forever instead.
    model = blaster.solve(conflict_budget=20_000, assumptions=guards)
    check_trail(blaster.sat)
    assert (model is not None) == fresh_verdict(subset), subset
    if model is not None:
        full = complete_model(model, [v.name for v in VARS])
        for c in subset:
            assert evaluate(c, full) == 1, (c, full)
    else:
        core = blaster.core_exprs(blaster.sat.last_core or [])
        assert set(map(id, core)) <= set(map(id, subset))
        if core:
            assert not fresh_verdict(core), core
    return model


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1))
def test_probes_agree_with_fresh_blasts(seed):
    rng = random.Random(seed)
    pool = [gen_bool(rng, rng.randrange(1, 4)) for _ in range(rng.randrange(4, 9))]
    blaster = BitBlaster(max_learned=rng.choice([8, 4000]))
    for _ in range(rng.randrange(6, 14)):
        subset = rng.sample(pool, rng.randrange(1, min(4, len(pool)) + 1))
        if rng.random() < 0.5:
            # A probe that extends the previous one keeps its prefix.
            subset = pool[: rng.randrange(1, len(pool) + 1)]
        probe(blaster, subset)


def test_divmod_cone_pins_quotient_and_remainder():
    """The quotient/remainder bits are free variables: only their
    side-condition clauses make them a quotient and a remainder, so a
    probe whose cone reaches them must hold those clauses too — also
    after unrelated circuits filled the blaster."""
    x, y = VARS[:2]
    blaster = BitBlaster()
    unrelated = [ops.ult(ops.mul(VARS[2], VARS[2]), ops.bv(k, WIDTH)) for k in (9, 40, 77)]
    for c in unrelated:
        probe(blaster, [c])
    for k in range(1, 6):
        asks = [ops.eq(ops.urem(x, y), ops.bv(k, WIDTH)), ops.ult(ops.bv(k + 3, WIDTH), y),
                ops.eq(ops.udiv(x, y), ops.bv(k, WIDTH))]
        model = probe(blaster, asks)
        assert model is not None
        assert model["cone_x"] == k * model["cone_y"] + k
    assert probe(blaster, [ops.eq(ops.urem(x, y), ops.bv(7, WIDTH)),
                           ops.ult(y, ops.bv(7, WIDTH)),
                           ops.ne(y, ops.bv(0, WIDTH))]) is None


def test_probe_cone_is_the_fan_in_closure():
    """The cone holds the assumed guard, the circuit it guards and the
    input bits that circuit reads — and no other constraint's circuit."""
    x, y, z = VARS
    blaster = BitBlaster()
    asked = ops.ult(ops.add(x, y), ops.bv(10, WIDTH))
    other = ops.eq(ops.mul(z, z), ops.bv(49, WIDTH))
    g_asked, g_other = blaster.guard_literal(asked), blaster.guard_literal(other)
    cone = blaster.probe_cone([g_asked])
    assert cone[g_asked] and not cone[g_other]
    assert all(cone[abs(bit)] for name in ("cone_x", "cone_y") for bit in blaster.var_bits[name])
    assert not any(cone[abs(bit)] for bit in blaster.var_bits["cone_z"])
    assert sum(cone) < sum(blaster.probe_cone([g_asked, g_other]))
    assert UnrestrictedBlaster().probe_cone([g_asked]) is None


# -- chain level --------------------------------------------------------------------


def run_engine(make, restrict: bool, monkeypatch):
    """An engine run from cold memos, in-process test generation, and
    the verdict of every query its own chain answered."""
    verdicts: list[bool] = []
    check = IncrementalChain.check

    def recorded(chain, constraints):
        result = check(chain, constraints)
        verdicts.append(result.is_sat)
        return result

    with monkeypatch.context() as patch:
        patch.setattr(IncrementalChain, "check", recorded)
        if not restrict:
            patch.setattr(portfolio, "BitBlaster", UnrestrictedBlaster)
        clear_memos()
        engine = make()
        engine.testgen_helper = False
        engine.run()
    return engine, verdicts


_KERNEL = ("sat_decisions", "sat_conflicts", "sat_propagations", "bcp_props", "cost_units")
# The engine's counters, seconds aside: the record declares them ahead of
# the solver chain's, which start at ``queries``.
_FIELDS = list(Stats.__dataclass_fields__)
ENGINE_COUNTERS = [name for name in _FIELDS[:_FIELDS.index("queries")]
                   if name not in ("wall_time", "cpu_time")]


def assert_same_run(make, monkeypatch, label):
    here, here_verdicts = run_engine(make, True, monkeypatch)
    oracle, oracle_verdicts = run_engine(make, False, monkeypatch)
    assert here_verdicts == oracle_verdicts, label
    assert here.tests.cases == oracle.tests.cases, label  # in order, every field
    assert here.coverage.covered == oracle.coverage.covered, label
    assert here.stats.paths_completed == oracle.stats.paths_completed, label

    def counters(stats):
        return {name: getattr(stats, name) for name in ENGINE_COUNTERS}

    assert counters(here.stats) == counters(oracle.stats), label
    print(label, " ".join(
        f"{name}={getattr(here.stats, name)}/{getattr(oracle.stats, name)}" for name in _KERNEL
    ))


CORPUS_DIMS = {"factor": (1, 1), "seq": (1, 1)}


@pytest.mark.parametrize("mode", ["plain", "ssm-qce", "dsm-qce"])
@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_cone_probes_equal_unrestricted_on_corpus(monkeypatch, program, mode):
    info = get_program(program)
    module = info.compile()
    n, length = CORPUS_DIMS.get(program, (2, 2))

    def make():
        cfg = EngineConfig(**MODES[mode], max_steps=5000)
        return Engine(module, info.spec(n, length), cfg, program=program)

    assert_same_run(make, monkeypatch, f"{program} {mode}")


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(source=minic_programs(control=True))
def test_cone_probes_equal_unrestricted_on_generated_programs(monkeypatch, source):
    module = compile_program(source)
    spec = ArgvSpec(n_args=2, arg_len=2)
    for mode in ("plain", "dsm-qce"):
        assert_same_run(
            lambda: Engine(module, spec, EngineConfig(**MODES[mode], max_steps=2000)),
            monkeypatch, mode,
        )

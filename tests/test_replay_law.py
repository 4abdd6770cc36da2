"""The replay law on generated programs.

Every test the engine emits, run concretely by ``repro.lang.interp.replay``,
must do what the engine predicted: a ``path`` test runs to completion
(with the predicted exit code, when the test carries one), an
``assert``/``bounds`` test stops with that error at its recorded line.
The blocks the replays enter lie inside the engine's coverage — and in
plain mode, where every path ends in a test, they are exactly it.

A test's ``argv`` holds C strings, cut at each argument's first NUL, while
the argv model keeps the bytes after a terminator symbolic.  A program
that reads past one — generated programs index ``argv[1]`` by loop
counters — can take a path the cut strings do not reproduce.  So the law
replays each test with an argv carrying its whole model, and checks that
the test's own ``argv`` is exactly that argv cut at the terminators.

Some generated programs divide input-derived ints (``print_int`` does, per
digit); bit-blasting those divisions can hold one query for minutes.  The
law bounds each run: a time budget ends exploration early (such a run is
held to the containment half of the coverage law), and a conflict budget
on every solver the run makes — the engine's and test generation's — turns
a hard query into a ``SolverTimeout``, which discards the example.
"""

import dataclasses

import pytest
from hypothesis import given, reject, settings

from repro.engine import testgen
from repro.engine.executor import Engine, EngineConfig
from repro.env.argv import ArgvSpec
from repro.experiments.harness import MODES
from repro.lang import compile_program, replay
from repro.solver.portfolio import SolverChain, SolverTimeout

from minic_gen import minic_programs

SPEC = ArgvSpec(n_args=2, arg_len=2)
CONFLICTS = 1000


@dataclasses.dataclass
class _BudgetedChain(SolverChain):
    conflict_budget: int | None = CONFLICTS


def whole_model(case):
    """``case`` with every modelled argv byte, terminators and all."""
    model = dict(case.model)
    rows = [bytes(model[SPEC.var_name(i, j)] for j in range(SPEC.arg_len))
            for i in range(1, SPEC.argc)]
    assert case.argv == (SPEC.prog_name, *(row.split(b"\0")[0] for row in rows))
    return dataclasses.replace(case, argv=(SPEC.prog_name, *rows))


@pytest.mark.parametrize("mode", ["plain", "dsm-qce"])
@settings(max_examples=75, deadline=None)
@given(source=minic_programs(control=True))
def test_emitted_tests_replay_as_predicted(mode, source):
    module = compile_program(source)
    engine = Engine(module, SPEC, EngineConfig(**MODES[mode], time_budget=1.0))
    engine.solver.conflict_budget = CONFLICTS
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(testgen, "SolverChain", _BudgetedChain)
        try:
            engine.run()
        except SolverTimeout:
            reject()
    replayed = set()
    for case in engine.tests.cases:
        got = replay(module, whole_model(case))
        assert (got.outcome, got.line) == (case.kind, None if case.kind == "path" else case.line)
        if case.exit_code is not None:
            assert got.exit_code == case.exit_code
        replayed |= got.coverage
    covered = engine.coverage.covered
    exhaustive = mode == "plain" and not engine.stats.timed_out
    assert replayed == covered if exhaustive else replayed <= covered

"""The cached structural shape is the shape.

``SymState.shape_fingerprint`` is cached (per frame: sorted names and
bindings; per state: region geometry) and recomputed only after a first
name, a call or a return.  The law: after every move of every state, in
merging runs on the corpus and on generated programs, the cached shape
equals one computed from nothing.  The merging runs are the ones that
read it — DSM hashes it on every move, ``merge_states`` compares it.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro.engine.executor import Engine, EngineConfig
from repro.env.argv import ArgvSpec
from repro.experiments.harness import MODES
from repro.lang import compile_program
from repro.programs.registry import PROGRAMS, get_program

from minic_gen import minic_programs
from test_engine_state import fresh_shape

# As the other corpus laws cap them.
CORPUS_DIMS = {"factor": (1, 1), "seq": (1, 1)}
MAX_STEPS = 3000


class CheckingEngine(Engine):
    """Checks every state that enters the worklist: each moved successor,
    each fork's clone, each merged state."""

    checked = 0

    def _add_state(self, state, try_merge):
        assert state.shape_fingerprint() == fresh_shape(state)
        self.checked += 1
        super()._add_state(state, try_merge)


def run_checked(module, spec, mode) -> CheckingEngine:
    engine = CheckingEngine(
        module, spec, EngineConfig(**MODES[mode], max_steps=MAX_STEPS, generate_tests=False)
    )
    engine.run()
    return engine


@pytest.mark.parametrize("mode", ["ssm-qce", "dsm-qce"])
@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_cached_shape_is_fresh_after_every_move_on_corpus(program, mode):
    info = get_program(program)
    engine = run_checked(info.compile(), info.spec(*CORPUS_DIMS.get(program, (2, 2))), mode)
    assert engine.checked >= engine.stats.states_created


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(source=minic_programs(control=True))
def test_cached_shape_is_fresh_after_every_move_on_generated_programs(source):
    module = compile_program(source)
    for mode in ("ssm-qce", "dsm-qce"):
        run_checked(module, ArgvSpec(n_args=2, arg_len=2), mode)

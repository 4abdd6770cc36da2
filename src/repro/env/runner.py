"""One-call runners: compile a corpus program and explore it symbolically.

This is the public convenience API examples and experiments use::

    from repro.env.runner import run_symbolic
    result = run_symbolic("echo", n_args=2, arg_len=2,
                          merging="dynamic", similarity="qce")
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine.executor import Engine, EngineConfig
from ..engine.testgen import TestSuite
from ..lang import Module
from ..qce.qce import QceParams
from ..stats import Stats
from .argv import ArgvSpec


@dataclass
class SymbolicRunResult:
    """Everything an experiment needs from one exploration."""

    program: str
    spec: ArgvSpec
    config: EngineConfig
    stats: Stats
    tests: TestSuite
    coverage_blocks: int
    statement_coverage: float
    engine: Engine

    @property
    def paths(self) -> int:
        return self.stats.paths_completed

    @property
    def covered(self) -> set:
        return self.engine.coverage.covered

    @property
    def solver_stats(self) -> Stats:
        """The solver's counters: the same record as ``stats``."""
        return self.stats

    @property
    def cost_units(self) -> int:
        return self.stats.cost_units

    @property
    def completed(self) -> bool:
        return not self.stats.timed_out


def run_symbolic_module(
    module: Module,
    spec: ArgvSpec,
    config: EngineConfig | None = None,
    program_name: str = "<module>",
) -> SymbolicRunResult:
    engine = Engine(module, spec, config, program=program_name)
    stats = engine.run()
    return SymbolicRunResult(
        program=program_name,
        spec=spec,
        config=engine.config,
        stats=stats,
        tests=engine.tests,
        coverage_blocks=engine.coverage.blocks_covered,
        statement_coverage=engine.coverage.statement_coverage(),
        engine=engine,
    )


def run_symbolic(
    program: str,
    n_args: int | None = None,
    arg_len: int | None = None,
    merging: str = "none",
    similarity: str = "never",
    strategy: str = "dfs",
    qce_params: QceParams | None = None,
    **engine_kwargs,
) -> SymbolicRunResult:
    """Explore a corpus program with one line of configuration."""
    from ..programs.registry import get_program

    info = get_program(program)
    config = EngineConfig(
        merging=merging,
        similarity=similarity,
        strategy=strategy,
        qce_params=qce_params or QceParams(),
        **engine_kwargs,
    )
    return run_symbolic_module(
        info.compile(), info.spec(n_args, arg_len), config, program_name=program
    )

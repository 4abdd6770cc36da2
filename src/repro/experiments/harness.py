"""Shared experiment machinery.

Experiments run corpus programs under named *modes* (plain KLEE-style,
SSM+QCE, DSM+QCE, merge-everything, ...) with deterministic budgets and
collect comparable metrics.  Cost is reported both as wall-clock and as
deterministic *cost units* (solver decisions + conflicts + one per query),
because absolute pure-Python timings are not meaningful against the
paper's C++/STP testbed — shapes and ratios are.
"""

from __future__ import annotations

from ..env.runner import SymbolicRunResult, run_symbolic
from ..memo import clear_memos

# The paper's evaluation modes (§5.2–§5.5).
MODES: dict[str, dict[str, str]] = {
    "plain": {"merging": "none", "similarity": "never", "strategy": "dfs"},
    "plain-cov": {"merging": "none", "similarity": "never", "strategy": "coverage"},
    "plain-rand": {"merging": "none", "similarity": "never", "strategy": "random"},
    "ssm-qce": {"merging": "static", "similarity": "qce", "strategy": "topological"},
    "ssm-all": {"merging": "static", "similarity": "always", "strategy": "topological"},
    "dsm-qce": {"merging": "dynamic", "similarity": "qce", "strategy": "coverage"},
    "dsm-topo": {"merging": "dynamic", "similarity": "qce", "strategy": "topological"},
    "ssm-qce-full": {"merging": "static", "similarity": "qce-full", "strategy": "topological"},
}


def run_cell(program: str, mode: str = "plain", **overrides) -> SymbolicRunResult:
    """Execute one experiment cell: program × mode × whatever
    :func:`~repro.env.runner.run_symbolic` takes (input size, budget,
    ``qce_params``, store, ...).

    Two things make a cell a cell.  Tests are off unless asked for — the
    figures' cost columns are the exploration's solver cost, not the test
    generator's.  And it starts from cleared process-wide memos, so the
    second arm of an in-process comparison costs what it would in a
    process of its own.
    """
    overrides.setdefault("generate_tests", False)
    clear_memos()
    return run_symbolic(program, **MODES[mode], **overrides)


def same_exploration(ref, other, label: str) -> None:
    """The identity law: ``other`` explored what ``ref`` explored — same
    test multiset (:meth:`~repro.engine.testgen.TestSuite.multiset`), same
    covered blocks, same path count.  Raises :class:`AssertionError`
    naming ``label`` and what changed.

    Both arguments are run results (:class:`SymbolicRunResult` or
    :class:`~repro.parallel.ParallelResult`; anything with ``tests``,
    ``covered`` and ``paths``).
    """
    if other.tests.multiset() != ref.tests.multiset():
        raise AssertionError(
            f"{label} changed the test multiset ({len(ref.tests.cases)} vs "
            f"{len(other.tests.cases)} tests and/or contents)"
        )
    if other.covered != ref.covered:
        raise AssertionError(f"{label} changed coverage")
    if other.paths != ref.paths:
        raise AssertionError(
            f"{label} changed the path space ({ref.paths} vs {other.paths})"
        )


def cost_of(result: SymbolicRunResult) -> int:
    """Deterministic cost proxy for 'solving time': the solver's cost units."""
    return result.solver_stats.cost_units


# Programs small enough for quick exhaustive exploration in CI-scale runs.
FAST_EXHAUSTIVE = [
    "echo",
    "cat",
    "comm",
    "cut",
    "dirname",
    "fold",
    "head",
    "link",
    "nice",
    "pr",
    "rev",
    "sleep",
    "test",
    "tsort",
    "uniq",
    "wc",
    "yes",
    "true",
    "false",
]

# The full corpus, for budgeted (incomplete) experiments.
BUDGETED_CORPUS = FAST_EXHAUSTIVE + ["basename", "expand", "join", "paste", "tr"]

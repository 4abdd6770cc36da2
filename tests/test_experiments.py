"""Experiment harness: cells, the exploration law, the figure registry,
path-count fitting, reporting."""

import dataclasses
import inspect
import math
from types import SimpleNamespace

import pytest

from repro.engine.testgen import TestSuite
from repro.env.runner import run_symbolic
from repro.experiments import __main__ as cli
from repro.experiments import figures
from repro.experiments.harness import MODES, cost_of, run_cell, same_exploration
from repro.experiments.pathcount import PathFit, calibrate, collect_points, fit_points
from repro.experiments.report import ascii_series, render_table, save_json
from repro.parallel import run_parallel
from repro.qce.qce import QceParams


def test_modes_cover_paper_configurations():
    assert {"plain", "ssm-qce", "dsm-qce", "ssm-all"} <= set(MODES)
    for mode in MODES.values():
        assert set(mode) == {"merging", "similarity", "strategy"}


def test_run_cell_plain():
    result = run_cell("echo", "plain", max_steps=2000)
    assert result.paths > 0
    assert cost_of(result) >= 0
    assert not result.tests.cases  # a cell generates tests only when asked to


def test_run_cell_respects_size_override():
    small = run_cell("echo", n_args=1, arg_len=1)
    big = run_cell("echo", n_args=2, arg_len=2)
    assert big.paths > small.paths


def test_run_cell_alpha_override():
    merged = run_cell("echo", "ssm-qce", qce_params=QceParams(alpha=math.inf))
    assert merged.stats.merges > 0


@pytest.mark.parametrize("program", ["wc-stdin", "tac-stdin"])
def test_run_cell_explores_what_run_symbolic_explores(program):
    """One spelling of a program's default input (``ProgramInfo.spec``): a
    cell of a stdin-reading program gets its symbolic stdin, as every other
    entry point's does (the hand-copied spec used to drop it: 1 path and 8
    blocks on wc-stdin, where the program has 40 and 25)."""
    reference = run_symbolic(program)
    cell = run_cell(program, generate_tests=True)
    partitioned = run_parallel(program, workers=1)
    assert reference.spec.stdin_len > 0
    for run in (cell, partitioned):
        assert run.spec == reference.spec
        same_exploration(reference, run, program)
    if program == "wc-stdin":
        assert (cell.paths, cell.coverage_blocks) == (40, 25)


def test_a_cell_run_twice_does_the_same_work():
    """Every cell starts from cleared process-wide memos, so the second arm
    of an in-process comparison is not served the first arm's answers."""
    first = run_cell("wc", "dsm-qce", generate_tests=True)
    second = run_cell("wc", "dsm-qce", generate_tests=True)
    assert first.stats.testgen_group_solves == second.stats.testgen_group_solves > 0
    assert first.stats.testgen_cost_units == second.stats.testgen_cost_units > 0


# -- the exploration law, with mutants ----------------------------------------


@pytest.fixture(scope="module")
def explored():
    return run_cell("cut", generate_tests=True)


def mutant(run, **changed):
    """``run`` as the law sees it, with one observable replaced."""
    seen = dict(tests=run.tests, covered=run.covered, paths=run.paths)
    seen.update(changed)
    return SimpleNamespace(**seen)


def test_same_exploration_accepts_a_reordered_rerun(explored):
    shuffled = TestSuite(explored.spec, cases=explored.tests.cases[::-1])
    same_exploration(explored, mutant(explored, tests=shuffled), "rerun")


def test_same_exploration_names_what_changed(explored):
    cases = list(explored.tests.cases)
    cases[0] = dataclasses.replace(cases[0], line=7)
    one_line_off = TestSuite(explored.spec, cases=cases)
    one_block_less = set(explored.covered)
    one_block_less.pop()
    mutants = [
        (dict(tests=one_line_off), "mutant changed the test multiset"),
        (dict(covered=one_block_less), "mutant changed coverage"),
        (dict(paths=explored.paths + 1), "mutant changed the path space"),
    ]
    for changed, message in mutants:
        with pytest.raises(AssertionError, match=message):
            same_exploration(explored, mutant(explored, **changed), "mutant")


# -- one registry of figures ----------------------------------------------------


def test_every_figure_driver_is_reachable_from_the_cli(monkeypatch, capsys):
    drivers = {
        fn for name, fn in inspect.getmembers(figures, inspect.isfunction)
        if fn.__module__ == figures.__name__ and not name.startswith("_")
        and "scale" in inspect.signature(fn).parameters
    }
    assert drivers == set(figures.FIGURES.values())
    import repro.experiments as package
    for driver in drivers:
        assert getattr(package, driver.__name__) is driver
        assert driver.__name__ in package.__all__
    # ... and the CLI dispatches on that very table.
    assert cli.FIGURES is figures.FIGURES
    ran = []
    for name in figures.FIGURES:
        def stub(scale, name=name):
            ran.append((name, scale))
            return SimpleNamespace(table=lambda: "")
        monkeypatch.setitem(figures.FIGURES, name, stub)
        assert cli.main([name, "--scale", "ci"]) == 0
    assert ran == [(name, "ci") for name in figures.FIGURES]
    capsys.readouterr()


@pytest.mark.parametrize("figure", [figures.parallel_scaling, figures.cache_report])
def test_report_only_figures_run_and_render(figure):
    """No law test calls these two: this keeps them running."""
    result = figure(programs=["echo"])
    assert [row.program for row in result.rows] == ["echo"]
    assert "echo" in result.table()


def test_fit_points_perfect_line():
    points = [(m, 2 * m) for m in (1, 2, 4, 8, 16)]
    fit = fit_points(points)
    assert math.isclose(fit.c2, 1.0, abs_tol=1e-9)
    assert math.isclose(fit.r_squared, 1.0, abs_tol=1e-9)
    assert math.isclose(fit.estimate(32), 64.0, rel_tol=1e-6)


def test_fit_points_degenerate():
    assert fit_points([]).c2 == 1.0
    assert fit_points([(5, 10)]).c2 == 1.0
    fit = fit_points([(3, 7), (3, 7)])
    assert fit.estimate(3) > 0


def test_collect_points_monotone():
    points = collect_points("echo", mode="ssm-qce", max_steps=500)
    assert points
    ms = [m for m, _ in points]
    ps = [p for _, p in points]
    assert ms == sorted(ms) and ps == sorted(ps)
    # multiplicity over-estimates paths (paper §5.2)
    assert all(m >= p for m, p in points)


def test_calibrate_end_to_end():
    fit = calibrate("echo", max_steps=500)
    assert isinstance(fit, PathFit)
    assert fit.c2 >= 0


def test_render_table_alignment():
    table = render_table(["a", "bb"], [[1, 2.5], [10, 0.001]], title="T")
    lines = table.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bb" in lines[1]
    assert len(lines) == 5


def test_ascii_series():
    art = ascii_series([(1, 1), (2, 4), (3, 9)])
    assert "*" in art
    assert ascii_series([]) == "(no data)"


def test_save_json(tmp_path):
    path = tmp_path / "out.json"
    save_json(path, {"rows": [1, 2, 3]})
    assert path.read_text().startswith("{")

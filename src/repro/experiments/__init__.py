"""Experiment harness reproducing the paper's evaluation (Figures 3-9).

The figure drivers are exported under their own names, read from the one
registry (:data:`repro.experiments.figures.FIGURES`) the CLI dispatches on.
"""

from .figures import FIGURES
from .harness import (
    BUDGETED_CORPUS,
    FAST_EXHAUSTIVE,
    MODES,
    cost_of,
    run_cell,
    same_exploration,
)
from .pathcount import PathFit, calibrate, collect_points, fit_points
from .report import ascii_series, render_table, save_json

globals().update({driver.__name__: driver for driver in FIGURES.values()})

__all__ = [
    "BUDGETED_CORPUS",
    "FAST_EXHAUSTIVE",
    "FIGURES",
    "MODES",
    "PathFit",
    "ascii_series",
    "calibrate",
    "collect_points",
    "cost_of",
    "fit_points",
    "render_table",
    "run_cell",
    "same_exploration",
    "save_json",
    *(driver.__name__ for driver in FIGURES.values()),
]

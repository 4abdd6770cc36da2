"""Estimating exact path counts from state multiplicity (paper §5.2).

Multiplicity over-estimates the number of feasible paths represented by a
merged state (it doubles at every post-merge fork whether or not both
sides are feasible for every constituent).  The paper validates the model
``log p ≈ c1 + c2 · log m`` empirically (Fig. 3) and then uses fitted
``c1, c2`` to convert cheap multiplicity tracking into path estimates.
This module reproduces both halves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .harness import run_cell


@dataclass(frozen=True)
class PathFit:
    """Least-squares fit of log p = c1 + c2 log m."""

    c1: float
    c2: float
    r_squared: float
    points: tuple[tuple[int, int], ...]  # (multiplicity, exact paths)

    def estimate(self, multiplicity: int) -> float:
        if multiplicity <= 0:
            return 0.0
        return math.exp(self.c1 + self.c2 * math.log(multiplicity))


def collect_points(
    program: str,
    mode: str = "ssm-qce",
    n_args: int | None = None,
    arg_len: int | None = None,
    max_steps: int | None = 4000,
) -> list[tuple[int, int]]:
    """Run with exact-path instrumentation; sample (m, p) per terminal state."""
    result = run_cell(
        program,
        mode,
        n_args=n_args,
        arg_len=arg_len,
        max_steps=max_steps,
        track_exact_paths=True,
    )
    points: list[tuple[int, int]] = []
    running_m = 0
    running_p = 0
    engine = result.engine
    for case_m, case_p in engine.exact_path_samples:
        running_m += case_m
        running_p += case_p
        points.append((running_m, running_p))
    return points


def fit_points(points) -> PathFit:
    """Ordinary least squares on the log-log pairs."""
    usable = [(m, p) for m, p in points if m > 0 and p > 0]
    if len(usable) < 2:
        return PathFit(0.0, 1.0, 0.0, tuple(usable))
    xs = [math.log(m) for m, _ in usable]
    ys = [math.log(p) for _, p in usable]
    n = len(usable)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    if sxx == 0:
        return PathFit(mean_y, 0.0, 1.0, tuple(usable))
    c2 = sxy / sxx
    c1 = mean_y - c2 * mean_x
    ss_res = sum((y - (c1 + c2 * x)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return PathFit(c1, c2, r2, tuple(usable))


def calibrate(program: str, **kwargs) -> PathFit:
    """The paper's two-phase protocol, phase one: fit c1/c2 for a tool."""
    return fit_points(collect_points(program, **kwargs))

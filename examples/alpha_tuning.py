"""Tuning the QCE threshold alpha by hill climbing (paper §3.2/§5.4).

The paper determines alpha/beta "using a simple hill-climbing method" on
four randomly chosen tools, then reuses the values everywhere.  This
script does the same at library scale: it hill-climbs alpha over a small
log-spaced grid on a training set, then validates the winner on held-out
tools against the no-merge and merge-everything extremes.

    python examples/alpha_tuning.py
"""

import math

from repro.experiments.harness import cost_of, run_cell
from repro.experiments.report import render_table
from repro.qce.qce import QceParams

TRAIN = ["link", "nice", "paste", "pr"]  # the paper's Fig. 7 tools
VALIDATE = ["echo", "cut", "test", "fold"]
GRID = [1e-6, 1e-3, 1e-2, 0.05, 0.1, 0.3, 1.0]
CAP = 20000


def cost_at(program: str, alpha: float) -> int:
    result = run_cell(program, "ssm-qce", qce_params=QceParams(alpha=alpha),
                      max_steps=CAP)
    penalty = 2 if result.stats.timed_out else 1  # timeouts are lower bounds
    return cost_of(result) * penalty


def train_cost(alpha: float) -> int:
    return sum(cost_at(p, alpha) for p in TRAIN)


def hill_climb() -> float:
    index = len(GRID) // 2
    best = train_cost(GRID[index])
    while True:
        moved = False
        for delta in (-1, +1):
            j = index + delta
            if 0 <= j < len(GRID):
                cost = train_cost(GRID[j])
                if cost < best:
                    best, index, moved = cost, j, True
        if not moved:
            return GRID[index]


def main() -> None:
    alpha_star = hill_climb()
    print(f"hill-climbed alpha* = {alpha_star:g} on {TRAIN}\n")

    rows = []
    for program in VALIDATE:
        plain = run_cell(program, "plain", max_steps=CAP)
        tuned = run_cell(program, "ssm-qce", qce_params=QceParams(alpha=alpha_star),
                         max_steps=CAP)
        merge_all = run_cell(program, "ssm-qce", qce_params=QceParams(alpha=math.inf),
                             max_steps=CAP)
        rows.append([
            program,
            cost_of(plain),
            cost_of(tuned),
            cost_of(merge_all),
            f"{cost_of(plain) / max(1, cost_of(tuned)):.2f}x",
        ])
    print(render_table(
        ["held-out tool", "no merge", f"QCE(a={alpha_star:g})", "merge-all", "speedup"],
        rows,
        title="Validation: tuned alpha vs. the extremes (solver cost units)",
    ))


if __name__ == "__main__":
    main()

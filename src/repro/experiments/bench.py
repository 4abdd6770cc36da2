"""Perf-trajectory benchmark runner: the ``BENCH_PR*.json`` baseline.

``python -m repro.experiments bench --out BENCH_PR5.json`` runs a fixed
set of micro-solver kernels and merge-heavy engine cells and writes one
JSON document with wall-clock numbers, deterministic cost units,
``sat_solver_runs`` and presolve hit rates.  Committing the file gives
future PRs a baseline to diff perf work against: absolute timings are
host-dependent, but the deterministic counters (queries, blasts, hits,
cost units) must only move when a PR intends them to.

``--baseline BENCH_PR4.json`` diffs the fresh document against a
committed one (:func:`diff_against`): any micro-kernel whose
deterministic counters regress by more than 30% fails the run — that is
the CI gate; wall-clock deltas are reported but never gate, since the
baseline was written on different hardware.
"""

from __future__ import annotations

import json
import platform
import random
import sys
import time

from ..expr import ops
from ..solver.bitblast import check_sat
from ..solver.portfolio import IncrementalChain, SolverChain
from ..solver.sat import CDCLSolver
from .harness import RunSettings, cost_of, run_cell

# Merge-heavy cells: the DSM/SSM mini corpus the presolve ablation targets.
ENGINE_CELLS = [
    ("echo", "ssm-qce"),
    ("cat", "dsm-qce"),
    ("uniq", "ssm-qce"),
    ("wc", "dsm-qce"),
]


def _timed(fn, repeats: int = 3):
    """Best-of-N wall clock plus the final return value."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _pigeonhole_solver(holes: int) -> CDCLSolver:
    pigeons = holes + 1
    solver = CDCLSolver()
    var = [[solver.new_var() for _ in range(holes)] for _ in range(pigeons)]
    for p in range(pigeons):
        solver.add_clause([var[p][h] for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                solver.add_clause([-var[p1][h], -var[p2][h]])
    return solver


def _micro_solver_rows() -> list[dict]:
    rows: list[dict] = []

    t, _ = _timed(lambda: _pigeonhole_solver(5).solve())
    rows.append({"name": "cdcl_pigeonhole_php6_5", "wall_s": round(t, 4)})

    def random_3sat():
        solver = CDCLSolver()
        variables = [solver.new_var() for _ in range(60)]
        rng = random.Random(7)
        for _ in range(240):
            solver.add_clause(
                [rng.choice(variables) * rng.choice((1, -1)) for _ in range(3)]
            )
        return solver.solve()

    t, _ = _timed(random_3sat)
    rows.append({"name": "cdcl_random_3sat_60v_240c", "wall_s": round(t, 4)})

    x = ops.bv_var("bx", 8)
    y = ops.bv_var("by", 8)
    goal = [ops.eq(ops.mul(x, y), ops.bv(221, 8)), ops.ult(ops.bv(1, 8), x),
            ops.ult(x, y)]
    t, _ = _timed(lambda: check_sat(goal))
    rows.append({"name": "bitblast_mul_equation", "wall_s": round(t, 4)})

    conds = [ops.ult(ops.bv(k, 8), ops.add(x, ops.mul(y, ops.bv(3, 8))))
             for k in range(12)]

    def branch_stream(chain):
        pc: list = []
        for cond in conds:
            then_res, else_res = chain.check_branch(pc, cond)
            if then_res.is_sat:
                pc = pc + [cond]
            elif else_res.is_sat:
                pc = pc + [ops.not_(cond)]
        return chain

    for label, factory in (
        ("fresh_noopt", lambda: SolverChain(use_cache=False, use_fastpath=False)),
        ("incremental_noopt", lambda: IncrementalChain(use_cache=False, use_fastpath=False)),
        ("incremental_presolve", lambda: IncrementalChain(use_cache=False)),
    ):
        t, chain = _timed(lambda factory=factory: branch_stream(factory()))
        rows.append(
            {
                "name": f"branch_stream_{label}",
                "wall_s": round(t, 4),
                "sat_solver_runs": chain.stats.sat_solver_runs,
                "queries": chain.stats.queries,
                "fastpath_hits": chain.stats.fastpath_hits,
                "cost_units": chain.stats.cost_units,
            }
        )
    return rows


# Source of the stepping micro-kernel: a purely concrete loop, so every
# block is compiled by the lowering tier after it turns hot.  The lowered
# vs interpreted rows pin the compiled-stepping speedup.
_STEP_LOOP_SRC = """
int main(int argc, char argv[][]) {
  int i; int j; int acc;
  acc = 0;
  for (i = 0; i < 2000; i = i + 1) {
    j = i * 7 + 3;
    acc = acc + (j & 63) - (j % 5) + (j / 9);
  }
  return acc;
}
"""


def _stepping_rows() -> list[dict]:
    """Interpreter-vs-lowered stepping and raw solver-kernel micro-benchmarks."""
    from ..engine.executor import EngineConfig
    from ..env.argv import ArgvSpec
    from ..env.runner import run_symbolic_module
    from ..lang import compile_program

    rows: list[dict] = []
    module = compile_program(_STEP_LOOP_SRC)
    spec = ArgvSpec(n_args=1, arg_len=2)
    for label, lowered in (("lowered", True), ("interp", False)):
        config = EngineConfig(merging="none", strategy="dfs", generate_tests=False,
                              lowering_enabled=lowered)
        t, result = _timed(
            lambda config=config: run_symbolic_module(module, spec, config)
        )
        rows.append(
            {
                "name": f"engine_step_loop_{label}",
                "wall_s": round(t, 4),
                "instructions": result.stats.instructions_executed,
                "compiled_steps": result.stats.compiled_steps,
                "blocks_compiled": result.stats.blocks_compiled,
            }
        )

    def bcp_pigeonhole():
        holes = 6
        pigeons = holes + 1
        solver = CDCLSolver()
        var = [[solver.new_var() for _ in range(holes)] for _ in range(pigeons)]
        for p in range(pigeons):
            solver.add_clause([var[p][h] for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    solver.add_clause([-var[p1][h], -var[p2][h]])
        solver.solve()
        return solver

    t, solver = _timed(bcp_pigeonhole)
    rows.append(
        {
            "name": "cdcl_bcp_pigeonhole_php7_6",
            "wall_s": round(t, 4),
            "bcp_props": solver.stats_bcp_props,
            "propagations": solver.stats_propagations,
            "conflicts": solver.stats_conflicts,
        }
    )

    def presolve_deep_ite():
        chain = IncrementalChain(use_cache=False)
        x = ops.bv_var("px", 8)
        acc = ops.bv(0, 8)
        for k in range(24):
            acc = ops.ite(
                ops.ult(x, ops.bv(200 - k, 8)), ops.add(acc, ops.bv(1, 8)), acc
            )
        pc = [ops.ult(ops.bv(3, 8), x)]
        for k in range(12):
            chain.check(pc + [ops.ule(acc, ops.bv(30 - k, 8))])
            pc = pc + [ops.ult(ops.bv(4 + k, 8), x)]
        return chain

    t, chain = _timed(presolve_deep_ite)
    rows.append(
        {
            "name": "presolve_fixpoint_deep_ite",
            "wall_s": round(t, 4),
            "queries": chain.stats.queries,
            "fastpath_hits": chain.stats.fastpath_hits,
            "cost_units": chain.stats.cost_units,
            "presolve_batch_rounds": chain.stats.presolve_batch_rounds,
        }
    )
    return rows


def _engine_cell_rows(scale: str) -> list[dict]:
    cap = 20000 if scale == "ci" else 120000
    rows: list[dict] = []
    for program, mode in ENGINE_CELLS:
        # Median-of-3 wall clock; the deterministic counters are identical
        # across repeats, so the last run's result serves for all of them.
        walls = []
        for _ in range(3):
            result = run_cell(
                RunSettings(
                    program=program, mode=mode, max_steps=cap, generate_tests=True
                )
            )
            walls.append(result.stats.wall_time)
        median_wall = sorted(walls)[1]
        s = result.solver_stats
        hits = s.presolve_hits_sat + s.presolve_hits_unsat
        # Hit rate over bottom-tier-bound group checks: presolve answers
        # plus the probes that still reached the persistent blasters.
        bound = hits + s.assumption_probes
        rows.append(
            {
                "program": program,
                "mode": mode,
                "wall_s": round(median_wall, 4),
                "paths": result.paths,
                "tests": len(result.tests.cases),
                "queries": s.queries,
                "sat_solver_runs": s.sat_solver_runs,
                "cost_units": cost_of(result),
                "presolve_hits_sat": s.presolve_hits_sat,
                "presolve_hits_unsat": s.presolve_hits_unsat,
                "presolve_rewrites": s.presolve_rewrites,
                "presolve_env_reuses": s.presolve_env_reuses,
                "presolve_hit_rate": round(hits / bound, 4) if bound else 0.0,
            }
        )
    return rows


# Deterministic micro-kernel counters the CI diff gates on; wall_s is
# reported but never gates (the committed baseline ran on other hardware).
GATED_FIELDS = ("sat_solver_runs", "queries", "cost_units")
REGRESSION_THRESHOLD = 0.30


def diff_against(doc: dict, baseline_path: str) -> list[str]:
    """Compare a fresh bench doc against a committed baseline.

    Returns human-readable failure lines for every micro-kernel counter
    that regressed by more than :data:`REGRESSION_THRESHOLD`; an empty
    list means the gate passes.  Kernels present on only one side are
    skipped (renames and new kernels are not regressions).
    """
    with open(baseline_path) as fh:
        base = json.load(fh)
    base_micro = {row["name"]: row for row in base.get("micro_solver", [])}
    failures: list[str] = []
    for row in doc.get("micro_solver", []):
        ref = base_micro.get(row["name"])
        if ref is None:
            continue
        for fld in GATED_FIELDS:
            if fld not in row or not ref.get(fld):
                continue
            if row[fld] > ref[fld] * (1.0 + REGRESSION_THRESHOLD):
                failures.append(
                    f"{row['name']}.{fld}: {ref[fld]} -> {row[fld]} "
                    f"(+{100.0 * (row[fld] / ref[fld] - 1.0):.0f}%)"
                )
    return failures


def run_bench(out_path: str = "BENCH_PR5.json", scale: str = "ci") -> dict:
    """Run the benchmark corpus and persist the baseline document."""
    from .figures import presolve_ablation

    start = time.perf_counter()
    micro = _micro_solver_rows() + _stepping_rows()
    cells = _engine_cell_rows(scale)
    ablation = presolve_ablation(scale=scale)
    doc = {
        "bench": "PR10 batch-and-compile baseline",
        "scale": scale,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "micro_solver": micro,
        "engine_cells": cells,
        "presolve_ablation": {
            "blast_reduction": round(ablation.blast_reduction(), 4),
            "hit_rate": round(ablation.hit_rate(), 4),
            "sat_runs_off": sum(r.sat_runs_off for r in ablation.rows),
            "sat_runs_on": sum(r.sat_runs_on for r in ablation.rows),
        },
        "total_wall_s": round(time.perf_counter() - start, 2),
    }
    with open(out_path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return doc


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.bench",
        description="Write the perf-trajectory baseline (BENCH_PR5.json).",
    )
    parser.add_argument("--out", default="BENCH_PR5.json")
    parser.add_argument("--scale", default="ci", choices=["ci", "paper"])
    parser.add_argument("--baseline", default=None)
    args = parser.parse_args(argv)
    doc = run_bench(args.out, args.scale)
    print(json.dumps(doc, indent=2))
    if args.baseline:
        failures = diff_against(doc, args.baseline)
        if failures:
            print("PERF REGRESSION:", *failures, sep="\n  ")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

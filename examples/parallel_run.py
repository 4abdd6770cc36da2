"""Parallel path exploration: fan one program's path space over workers.

The coordinator explores sequentially until the frontier is wide enough,
exports it as path-prefix partitions, and dispatches them to a pool of
process-based workers (each with its own engine and incremental solver
chain).  Results merge into one ledger; work stealing rebalances when a
worker drains early.  Test generation is a pure function of the path
condition, so the 2-worker run emits exactly the sequential test suite.

    python examples/parallel_run.py [program] [workers]
"""

import sys

from repro.parallel import ParallelConfig, run_parallel


def main() -> int:
    program = sys.argv[1] if len(sys.argv) > 1 else "uniq"
    workers = int(sys.argv[2]) if len(sys.argv) > 2 else 2

    print(f"== sequential ({program}) ==")
    seq = run_parallel(program, workers=1)
    print(f"paths={seq.paths}  tests={len(seq.tests.cases)}  "
          f"coverage={seq.coverage_blocks} blocks  "
          f"wall={seq.wall_time:.2f}s  cpu={seq.stats.cpu_time:.2f}s")

    print(f"\n== {workers} workers ==")
    par = run_parallel(program, parallel=ParallelConfig(workers=workers))
    par.check_ledger()  # merged stats == sum of the participants' records
    print(f"paths={par.paths}  tests={len(par.tests.cases)}  "
          f"coverage={par.coverage_blocks} blocks  "
          f"wall={par.wall_time:.2f}s  partitions={par.partitions}  "
          f"steals={par.steals}")

    print("\nper-participant ledger:")
    for name, stats in par.ledger:
        print(f"  {name:12s} paths={stats.paths_completed:5d}  "
              f"queries={stats.queries:6d}  cpu={stats.cpu_time:.2f}s")

    same = seq.tests.multiset() == par.tests.multiset()
    print(f"\ntest suites identical: {same}  "
          f"({len(seq.tests.cases)} sequential vs {len(par.tests.cases)} parallel)")
    critical = par.ledger[0][1].cpu_time + max(
        (stats.cpu_time for _, stats in par.ledger[1:]), default=0.0
    )
    if critical:
        print(f"critical-path speedup: {seq.stats.cpu_time / critical:.2f}x "
              f"(elapsed ratio {seq.wall_time / par.wall_time:.2f}x)")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())

"""Warm-start exploration against a persistent store (repro.store).

Runs a corpus program twice against the same store file.  The first (cold)
run populates the constraint cache (verdicts filed under each group's
named key, ``repro.expr.canon.named_key``), the UNSAT cores, and the test
corpus; the second (warm) run, asking the same queries over the same
names, answers most of them from the store and from corpus-seeded cache
tiers — fewer full bit-blasts, same tests, same coverage.

The presolve tier is disabled for both runs: it would answer nearly every
bottom-tier query on these small programs itself, hiding exactly the
differential this example is meant to show (what the *store* saves).

    python examples/warm_start.py [program] [store.sqlite]
"""

import json
import sys
import tempfile
from pathlib import Path

from repro.experiments.harness import run_cell
from repro.store import open_store


def describe(label, result):
    s = result.stats
    print(
        f"{label:>5}: paths={result.paths:<4} tests={len(result.tests.cases):<4} "
        f"queries={s.queries:<5} full blasts={s.sat_solver_runs:<4} "
        f"cost={s.cost_units:<7} store hits={s.store_hits:<4} "
        f"cores={s.unsat_cores} seeds={s.warm_models_seeded}+{s.warm_cores_seeded}"
    )


def main() -> int:
    program = sys.argv[1] if len(sys.argv) > 1 else "wc"
    if len(sys.argv) > 2:
        store_path = sys.argv[2]
    else:
        store_path = str(Path(tempfile.mkdtemp(prefix="repro-store-")) / "warm.sqlite")
    print(f"store: {store_path}\n")

    # A cell starts from cleared process-wide memos, so the warm run finds
    # what a second process would: the store, and nothing else.
    cell = dict(generate_tests=True, store_path=store_path, solver_fastpath=False)
    cold = run_cell(program, **cell)
    describe("cold", cold)
    warm = run_cell(program, **cell)
    describe("warm", warm)

    same_tests = cold.tests.multiset() == warm.tests.multiset()
    print(f"\nidentical test multiset: {same_tests}")
    print(
        "full blasts: "
        f"{cold.stats.sat_solver_runs} -> {warm.stats.sat_solver_runs}"
    )

    store = open_store(store_path, readonly=True)
    print(f"store contents: {store.counts()}")
    for run_id, *_, stats_json in store.run_rows(program):
        stats = json.loads(stats_json)
        print(
            f"  run {run_id}: queries={stats['queries']} "
            f"blasts={stats['sat_solver_runs']} "
            f"store_hits={stats['store_hits']} paths={stats['paths_completed']}"
        )
    store.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())

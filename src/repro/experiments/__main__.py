"""Command-line entry point: regenerate the paper's figures.

Usage::

    python -m repro.experiments            # all figures, CI scale
    python -m repro.experiments fig7       # one figure
    python -m repro.experiments fig5 --scale paper
    python -m repro.experiments all --json results/

Each figure prints the same rows the paper plots; ``--json`` additionally
persists the raw data for external plotting.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path

from .figures import FIGURES
from .report import save_json


def _jsonable(figure) -> dict:
    """A figure's title and rows, each row its named fields."""
    rows = [
        {name: dataclasses.asdict(value) if dataclasses.is_dataclass(value) else value
         for name, value in vars(row).items()}
        for row in figure.rows
    ]
    return {"title": figure.title, "rows": rows}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the evaluation figures of Kuznetsov et al., PLDI 2012.",
    )
    parser.add_argument("figure", nargs="?", default="all",
                        choices=["all", "store-gc", *FIGURES],
                        help="which figure (or maintenance command) to run")
    parser.add_argument("--scale", default="ci", choices=["ci", "paper"],
                        help="input sizes / budgets preset")
    parser.add_argument("--json", metavar="DIR", default=None,
                        help="also dump raw rows as JSON into DIR")
    parser.add_argument("--store", metavar="FILE", default=None,
                        help="store-gc: path of the persistent store to compact")
    parser.add_argument("--keep-runs", type=int, default=16, metavar="N",
                        help="store-gc: age out rows older than the newest N runs")
    parser.add_argument("--profile", action="store_true",
                        help="run under cProfile and print the top 20 functions"
                             " by cumulative time")
    args = parser.parse_args(argv)

    if args.profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            return _dispatch(args, parser)
        finally:
            profiler.disable()
            stats = pstats.Stats(profiler, stream=sys.stdout)
            stats.sort_stats("cumulative")
            print("===== profile (top 20 by cumulative time) =====")
            stats.print_stats(20)
    return _dispatch(args, parser)


def _dispatch(args, parser) -> int:
    if args.figure == "store-gc":
        if not args.store:
            parser.error("store-gc requires --store PATH")
        if not Path(args.store).exists():
            # open_store would create a fresh empty store at the (possibly
            # typo'd) path and report a successful no-op GC — refuse.
            parser.error(f"store {args.store!r} does not exist")
        from ..store import open_store

        store = open_store(args.store)
        deleted = store.gc(keep_runs=args.keep_runs)
        counts = store.counts()
        store.close()
        print(f"gc({args.store}, keep_runs={args.keep_runs}): deleted {deleted}")
        print(f"remaining: {counts}")
        return 0

    names = list(FIGURES) if args.figure == "all" else [args.figure]
    for name in names:
        start = time.perf_counter()
        result = FIGURES[name](scale=args.scale)
        elapsed = time.perf_counter() - start
        print(f"===== {name} ({elapsed:.1f}s) =====")
        print(result.table())
        print()
        if args.json:
            out_dir = Path(args.json)
            out_dir.mkdir(parents=True, exist_ok=True)
            save_json(out_dir / f"{name}.json", _jsonable(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

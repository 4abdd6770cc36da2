#!/usr/bin/env python3
"""The repository's performance benchmark: whole explorations, end to end.

Three ways in (see bench/README.md for the metric and workload glossary):

``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``
    One measured run of one workload, the contract BENCHMARK.json
    describes: repeats the workload until S seconds are measured, checks
    the outputs, prints one JSON object as the last line.

``python3 bench/run.py [--seed N] [--repeats K] [--workload W] [--trace]
[--smoke] [--out F]``
    The whole suite: K passes over the workloads, interleaved, then one
    traced pass if asked; prints median/min/max/n per metric and writes
    F.  ``--smoke`` swaps in second-sized programs (the tier-1 test).

``python3 bench/run.py compare A.json B.json``
    Verdict per (metric, workload) between two ``--out`` files.

It is a batch, closed-loop load: one exploration at a time, each in a
fresh interpreter with ``PYTHONHASHSEED`` pinned from ``--seed``, run to
completion with no step or time budget.  Everything written (stores,
checkpoints) goes under ``.bench_work/`` in the checkout and is removed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH))

from verify import EXPECTED_FACTS, Check, expect_checks, same_check  # noqa: E402
from workloads import WORKLOADS, cell_id, cells_of  # noqa: E402

CHILD_TIMEOUT_S = 150
SETUP_SAMPLES = 5
# What a user of the system sees, summed over a workload's cells (peak
# memory: the largest).  The *_raw_s twins are plain seconds, kept beside
# the reference seconds the bounds apply to (see speed.py).
SUMMED = ("wall_s", "cpu_s", "setup_s", "wall_raw_s", "cpu_raw_s", "setup_raw_s")


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


class Runner:
    """Starts measured children and keeps the store files they share."""

    def __init__(self, seed: int, smoke: bool = False, record_expect: bool = False,
                 spans_dir: str | None = None) -> None:
        self.seed = seed
        self.smoke = smoke
        self.spans_dir = spans_dir
        section = "smoke" if smoke else "full"
        with open(BENCH / "expect.json") as fh:
            self.expect = None if record_expect else json.load(fh)[section]
        self.observed: dict[str, dict] = {}   # cell id -> facts (for --update-expect)
        WORK.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(dir=WORK))
        self._n_files = 0
        # cell id -> (store file a cold run wrote, that run's sat_solver_runs)
        self.cold_stores: dict[str, tuple[Path, int]] = {}

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is using it

    # -- children ------------------------------------------------------------

    def _spawn(self, cell: dict, *, trace: bool, replay: bool, setup_only: bool = False,
               store_path: Path | None = None, spans_path: str | None = None) -> dict:
        job = {
            "cell": cell, "engine_seed": 0, "trace": trace, "replay": replay,
            "setup_only": setup_only, "campaign_id": "bench", "spans_path": spans_path,
            "store_path": str(store_path) if store_path else None,
        }
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = str(self.seed % 2**32)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        job["t_spawn"] = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), json.dumps(job)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            cwd=self.workdir, start_new_session=True,
        )
        try:
            stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the child and any workers it forked
            proc.communicate()
            raise RuntimeError(f"{cell_id(cell)}: no result within {CHILD_TIMEOUT_S} s")
        if proc.returncode != 0:
            raise RuntimeError(f"{cell_id(cell)}: child failed\n{stderr[-4000:]}")
        return json.loads(stdout.strip().splitlines()[-1])

    def _store_for(self, cell: dict) -> Path | None:
        """The store file a cell runs against: none, a new one, or a copy
        of what a cold run of the same input left behind."""
        kind = cell.get("store")
        if kind is None:
            return None
        self._n_files += 1
        path = self.workdir / f"store{self._n_files}.db"
        if kind == "warm":
            cid = cell_id(cell)
            if cid not in self.cold_stores:
                # Run alone: the cold run is untimed set-up of the fixture.
                self.run_cell(dict(cell, store="cold"), trace=False, replay=False)
            shutil.copyfile(self.cold_stores[cid][0], path)
        return path

    def run_cell(self, cell: dict, *, trace: bool, replay: bool) -> tuple[dict, list[Check]]:
        cid = cell_id(cell)
        store_path = self._store_for(cell)
        spans_path = None
        if trace and self.spans_dir:
            spans_path = os.path.join(self.spans_dir, cid.replace("/", "_") + ".spans.json")
        out = self._spawn(cell, trace=trace, replay=replay, store_path=store_path,
                          spans_path=spans_path)
        facts = out["facts"]
        self.observed[cid] = facts
        checks = [tuple(c) for c in out.get("checks", [])]
        if self.expect is not None:
            checks += expect_checks(facts, self.expect.get(cid))
        if cell.get("store") == "warm":
            cold_runs = self.cold_stores[cid][1]
            ok = facts["sat_solver_runs"] <= cold_runs
            checks.append(("warm_blasts_le_cold", ok,
                           "" if ok else f"warm {facts['sat_solver_runs']} > cold {cold_runs}"))
        elif cell.get("store") == "cold" and "workers" not in cell:
            self.cold_stores[cid] = (store_path, facts["sat_solver_runs"])
        return out, [(f"{cid}:{name}", ok, detail) for name, ok, detail in checks]

    def setup_sample(self, workload: str) -> float:
        """``setup_s`` of setting the workload's cells up once more, unrun."""
        return sum(
            self._spawn(cell, trace=False, replay=False, setup_only=True,
                        store_path=self._store_for(cell))["setup_s"]
            for cell in cells_of(workload, self.smoke)
        )

    # -- one repeat of one workload -------------------------------------------------

    def measure(self, workload: str, *, trace: bool = False, replay: bool = True) -> dict:
        rep = {"metrics": dict.fromkeys(SUMMED + ("peak_rss_mb",), 0.0), "checks": [],
               "counters": {}, "sequential": {}, "digests": [],
               "layers": {}, "ratios": {}, "layer_self_s": 0.0}
        for cell in cells_of(workload, self.smoke):
            out, checks = self.run_cell(cell, trace=trace, replay=replay)
            for key in SUMMED:
                rep["metrics"][key] += out[key]
            rep["metrics"]["peak_rss_mb"] = max(rep["metrics"]["peak_rss_mb"], out["peak_rss_mb"])
            rep["checks"] += checks
            rep["counters"][cell_id(cell)] = out["counters"]
            rep["sequential"][cell_id(cell)] = "workers" not in cell
            rep["digests"].append(out["facts"]["digest"])
            for name, value in out.get("layers", {}).items():
                rep["layers"][name] = rep["layers"].get(name, 0) + value
            for name, (num, den) in out.get("ratios", {}).items():
                old = rep["ratios"].get(name, (0, 0))
                rep["ratios"][name] = (old[0] + num, old[1] + den)
            rep["layer_self_s"] += out.get("layer_self_s", 0.0)
        return rep


def determinism_checks(reps: list[dict]) -> list[Check]:
    """Counters that must not move between repeats of a sequential cell.
    Partition and steal counts depend on timing; partitioned cells are
    exempt (their paths, tests and digest are pinned by expect.json)."""
    checks = []
    first = reps[0]
    for cid, counters in first["counters"].items():
        if not first["sequential"][cid]:
            continue
        for name in counters:
            values = [(f"repeat {i}", rep["counters"][cid][name]) for i, rep in enumerate(reps)]
            checks.append(same_check(f"{cid}:deterministic.{name}", values))
    return checks


def per_layer_values(spec: dict, traced: dict, untraced_wall: float) -> dict[str, float]:
    """Every per-layer metric BENCHMARK.json names, from one traced repeat
    (a layer the workload never enters reads 0)."""
    values = dict(traced["layers"])
    for name, (num, den) in traced["ratios"].items():
        values[name] = num / den if den else 0.0
    wall = traced["metrics"]["wall_s"]
    values["trace.wall_s"] = wall
    values["trace.overhead_ratio"] = wall / untraced_wall
    values["trace.layer_sum_ratio"] = traced["layer_self_s"] / wall
    return {m["name"]: float(values.get(m["name"], 0.0)) for m in spec["per_layer"]}


def layer_sum_check(traced: dict) -> Check:
    """One op: the layers' self times account for the traced wall time."""
    ratio = traced["layer_self_s"] / traced["metrics"]["wall_s"]
    return ("layer_self_times_sum_to_wall", abs(ratio - 1.0) <= 0.05, f"ratio {ratio:.4f}")


def failures(checks: list[Check]) -> list[str]:
    return [f"{name}: {detail}" for name, ok, detail in checks if not ok]


# -- the contract's single-workload run ---------------------------------------------


def drive(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    spec = benchmark_spec()
    runner = Runner(seed, smoke=smoke)
    try:
        reps = [runner.measure(workload)]
        if trace:
            traced = runner.measure(workload, trace=True, replay=False)
            checks = reps[0]["checks"] + traced["checks"] + [layer_sum_check(traced)]
            values = per_layer_values(spec, traced, reps[0]["metrics"]["wall_s"])
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            measured = last = reps[0]["metrics"]["wall_raw_s"]
            # Another repeat only if at least half of it fits in the window.
            while measured + 0.5 * last < seconds:
                reps.append(runner.measure(workload, replay=False))
                last = reps[-1]["metrics"]["wall_raw_s"]
                measured += last
            setups = [rep["metrics"]["setup_s"] for rep in reps]
            while len(setups) < SETUP_SAMPLES:
                setups.append(runner.setup_sample(workload))
            checks = [c for rep in reps for c in rep["checks"]] + determinism_checks(reps)
            values = {
                m["name"]: statistics.median(rep["metrics"][m["name"]] for rep in reps)
                for m in spec["end_to_end"] if m["name"] != "setup_s"
            }
            values["setup_s"] = statistics.median(setups)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    finally:
        runner.close()
    failed = failures(checks)
    for line in failed[:20]:
        print("FAILED", line, file=sys.stderr)
    return {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }


# -- the whole suite ---------------------------------------------------------------------


def spread(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "n": len(values), "values": values}


def run_suite(args) -> int:
    spec = benchmark_spec()
    names = [args.workload] if args.workload else list(WORKLOADS)
    runner = Runner(args.seed, smoke=args.smoke, record_expect=args.update_expect,
                    spans_dir=args.spans)
    repeats = 1 if args.update_expect else args.repeats
    reps: dict[str, list[dict]] = {name: [] for name in names}
    traced: dict[str, dict] = {}
    try:
        for k in range(repeats):
            for name in names:
                print(f"pass {k + 1}/{repeats} {name} ...", file=sys.stderr, flush=True)
                reps[name].append(runner.measure(name, replay=(k == 0)))
        if args.trace:
            for name in names:
                print(f"traced pass {name} ...", file=sys.stderr, flush=True)
                traced[name] = runner.measure(name, trace=True, replay=False)
    finally:
        runner.close()

    if args.update_expect:
        return write_expectations(runner, reps)

    # The three *_wc workloads share one input: however it is driven, the
    # test multiset must be the same.  One op, on the last of them that ran.
    digests = [(name, reps[name][0]["digests"][0])
               for name in ("plain_wc", "par2_wc", "campaign_wc") if name in reps]

    e2e = [m["name"] for m in spec["end_to_end"]]
    doc = {
        "seed": args.seed, "repeats": repeats, "smoke": args.smoke,
        "python": platform.python_version(), "platform": platform.platform(),
        "note": "n is too small for a percentile; median, min and max are what there is",
        "workloads": {},
    }
    total_failed = 0
    for name in names:
        checks = [c for rep in reps[name] for c in rep["checks"]] + determinism_checks(reps[name])
        row = {
            "metrics": {m: spread([rep["metrics"][m] for rep in reps[name]])
                        for m in e2e + ["wall_raw_s", "cpu_raw_s", "setup_raw_s"]},
            # Of sequential cells only: these must repeat exactly.
            "counters": {cid: c for cid, c in reps[name][0]["counters"].items()
                         if reps[name][0]["sequential"][cid]},
        }
        if name in traced:
            checks += traced[name]["checks"] + [layer_sum_check(traced[name])]
            row["per_layer"] = per_layer_values(
                spec, traced[name], row["metrics"]["wall_s"]["median"])
        if len(digests) > 1 and name == digests[-1][0]:
            checks.append(same_check("wc_digest_same_however_driven", digests))
        failed = failures(checks)
        total_failed += len(failed)
        row.update(ops_attempted=len(checks), ops_failed=len(failed),
                   error_rate=len(failed) / len(checks), failures=failed[:50])
        doc["workloads"][name] = row
    print_report(spec, doc)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 1 if total_failed else 0


def print_report(spec: dict, doc: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"seed {doc['seed']}, {doc['repeats']} repeat(s) per workload "
          f"(median [min..max] n; {doc['note']})")
    for name, row in doc["workloads"].items():
        print(f"\n{name}")
        for metric, s in row["metrics"].items():
            unit = units.get(metric, "s")
            print(f"  {metric:<14} {s['median']:10.4f} {unit:<3} "
                  f"[{s['min']:.4f} .. {s['max']:.4f}] n={s['n']}")
        print(f"  {'error_rate':<14} {row['error_rate']:10.4f}     "
              f"ops_failed={row['ops_failed']} ops_attempted={row['ops_attempted']}")
        for line in row["failures"]:
            print(f"    FAILED {line}")
        for metric, value in row.get("per_layer", {}).items():
            print(f"  {metric:<30} {value:14.6g} {units[metric]}")


def write_expectations(runner: Runner, reps: dict) -> int:
    failed = [line for rows in reps.values() for rep in rows for line in failures(rep["checks"])]
    if failed:
        print("not recording expectations, replay failed:", *failed[:20], sep="\n  ")
        return 1
    path = BENCH / "expect.json"
    with open(path) as fh:
        doc = json.load(fh)
    doc["smoke" if runner.smoke else "full"] = {
        cid: {k: facts[k] for k in EXPECTED_FACTS}
        for cid, facts in sorted(runner.observed.items())
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(runner.observed)} cells in {path}")
    return 0


# -- comparing two suite documents ---------------------------------------------------------


def verdict(a: dict, b: dict, bound: float, lower_is_better: bool = True) -> str:
    """`a`, `b`: a metric's spread in the base and the candidate document."""
    base = a["median"]
    if (a["max"] - a["min"]) / base > bound:
        return "unresolved"
    change = (b["median"] - base) / base
    if not lower_is_better:
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "unchanged"


def compare(path_a: str, path_b: str) -> int:
    spec = benchmark_spec()
    with open(path_a) as fh:
        doc_a = json.load(fh)
    with open(path_b) as fh:
        doc_b = json.load(fh)
    worse = 0
    print(f"base A = {path_a}, candidate B = {path_b}; ratio = B median / A median")
    for name, row_a in doc_a["workloads"].items():
        row_b = doc_b["workloads"].get(name)
        if row_b is None:
            print(f"{name}: only in A")
            continue
        cells = []
        for m in spec["end_to_end"]:
            a, b = row_a["metrics"][m["name"]], row_b["metrics"][m["name"]]
            v = verdict(a, b, m["bound"], m["better"] == "lower")
            worse += v == "worse"
            cells.append(f"{m['name']} {v} (x{b['median'] / a['median']:.3f} of "
                         f"{a['median']:.4g} {m['unit']}, bound {m['bound']:.0%})")
        # error_rate has bound 0: any op that fails in B and not in A is worse.
        v = "worse" if row_b["ops_failed"] > row_a["ops_failed"] else "unchanged"
        worse += v == "worse"
        cells.append(f"error_rate {v} ({row_b['ops_failed']}/{row_b['ops_attempted']} "
                     f"against {row_a['ops_failed']}/{row_a['ops_attempted']})")
        same = row_a["counters"] == row_b["counters"]
        worse += not same
        cells.append("deterministic counters " + ("equal" if same else "DIFFER"))
        print(f"{name}: " + "; ".join(cells))
    print(f"{worse} worse verdict(s)")
    return 1 if worse else 0


def main(argv: list[str]) -> int:
    if not (SRC / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"bench/run.py: needs the repository around it ({SRC}/repro is missing)",
              file=sys.stderr)
        return 2
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measure one workload for this long and print the contract's JSON")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1))
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--spans", help="directory to write every traced cell's spans into")
    parser.add_argument("--update-expect", action="store_true",
                        help="record this run's paths/tests/coverage/digests in expect.json")
    args = parser.parse_args(argv)
    if args.seconds is not None:
        if not args.workload:
            parser.error("--seconds needs --workload")
        result = drive(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
        print(json.dumps(result))
        return 0
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""One measured exploration, in a fresh interpreter.

``run.py`` starts this file once per cell and repeat, with
``PYTHONHASHSEED`` pinned and ``src/`` on ``PYTHONPATH``, and reads one
JSON object from the last line of stdout.  The process does what a user
of the library does — import, compile, construct, run — and marks the
boundary between *set-up* and the *timed region* itself:

* sequential cells: set-up ends when ``Engine(...)`` returns, the timed
  region is ``engine.run()``;
* partitioned cells: set-up ends when ``Coordinator(...)`` returns, the
  timed region is ``Coordinator.run()`` (which compiles, splits, starts
  and drains the pool, and commits).

Output checks run after the timed region closes and are not measured.
With ``trace`` set the same steps run through ``spans.Tracer`` proxies
and the result carries each layer's self time and counters.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

from speed import SpeedSampler, reference_seconds
from spans import Tracer
from workloads import MODES

# Span name -> the per-layer metric its *self* seconds feed.
SELF_TIME_METRICS = {
    "lang.compile": "lang.compile_s",
    "qce.analyze": "qce.analyze_s",
    "engine.init": "engine.init_s",
    "store.open_seed": "store.open_seed_s",
    "engine.step": "engine.step_s",
    "engine.testgen": "engine.testgen_s",
    "engine.similarity.mergeable": "engine.similarity_s",
    "engine.similarity.hash": "engine.similarity_s",
    "engine.merge": "engine.merge_s",
    "search.pick": "search.pick_s",
    "search.track": "search.track_s",
    "sched.select": "sched.select_s",
    "solver.check": "solver.blast_s",
    "solver.cache": "solver.cache_s",
    "solver.presolve": "solver.presolve_s",
    "solver.store_tier": "solver.store_tier_s",
    "store.commit": "store.commit_s",
    "campaign.checkpoint": "campaign.checkpoint_s",
    "parallel.run": "parallel.coord_s",
    "engine.run": "engine.step_s",
}


def _tree_cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _tree_peak_rss_mb() -> float:
    """Largest peak RSS of any process of the tree (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class Cell:
    """The pieces of one exploration, built from the job description."""

    def __init__(self, job: dict, tracer: Tracer | None) -> None:
        from repro.engine.executor import EngineConfig
        from repro.env.argv import ArgvSpec
        from repro.expr import ops
        from repro.programs.registry import get_program

        spec = job["cell"]
        self.job = job
        self.tracer = tracer
        self.partitioned = "workers" in spec
        self.info = get_program(spec["program"])
        self.argv = ArgvSpec(
            n_args=spec["n"], arg_len=spec["l"], stdin_len=self.info.default_stdin
        )
        self.config = EngineConfig(
            **MODES[spec["mode"]],
            seed=job["engine_seed"],
            preconditions=tuple(
                ops.ule(ops.bv_var(name, 8), ops.bv(ord(top), 8))
                for name, top in sorted(spec.get("byte_max", {}).items())
            ),
            store_path=job.get("store_path"),
        )
        self.engine = None
        self.coordinator = None
        self.result = None
        self.checkpoint_bytes = 0

    # -- set-up ----------------------------------------------------------------

    def set_up(self) -> None:
        if self.partitioned:
            self._set_up_coordinator()
        else:
            self._set_up_engine()

    def _set_up_engine(self) -> None:
        import repro.store
        from repro.engine import executor
        from repro.lang import compile_program

        tracer = self.tracer
        if tracer is None:
            module = compile_program(self.info.source, name=self.info.name)
            self.engine = executor.Engine(
                module, self.argv, self.config, program=self.info.name
            )
            return
        tracer.rebind(executor, "analyze_module", "qce.analyze")
        for name in ("open_store", "corpus_covered_blocks", "seed_query_cache"):
            tracer.rebind(repro.store, name, "store.open_seed")
        with tracer.span("lang.compile"):
            module = compile_program(self.info.source, name=self.info.name)
        with tracer.span("engine.init"):
            engine = executor.Engine(module, self.argv, self.config, program=self.info.name)
        self.engine = engine
        self._instrument_engine(engine, executor)

    def _instrument_engine(self, engine, executor) -> None:
        """Timing proxies on the engine's collaborators (traced runs)."""
        from repro.search.strategies import Strategy

        tracer = self.tracer
        solver = engine.solver
        tracer.rebind(solver, "check", "solver.check")
        tracer.rebind(solver.cache, "lookup", "solver.cache")
        tracer.rebind(solver.cache, "store", "solver.cache")
        tracer.delegate(solver, "presolve", {"check_group": "solver.presolve"})
        if solver.persistent is not None:
            for name in ("lookup", "record", "record_core"):
                tracer.rebind(solver.persistent, name, "solver.store_tier")
        tracer.rebind(engine.similarity, "mergeable", "engine.similarity.mergeable")
        tracer.rebind(engine.similarity, "state_hash", "engine.similarity.hash")
        tracer.rebind(executor, "merge_states", "engine.merge")
        tracer.rebind(executor, "make_test_case", "engine.testgen")
        strategy = engine.strategy
        tracer.rebind(strategy, "pick", "search.pick")
        # Worklist hooks that do work (DSM's hash multiset, the heap);
        # DFS inherits the base class's no-ops, which are left alone.
        for hook in ("on_add", "on_remove"):
            if getattr(type(strategy), hook) is not getattr(Strategy, hook):
                tracer.rebind(strategy, hook, "search.track")
        for owner in (strategy, getattr(strategy, "driving", None)):
            if getattr(owner, "sched", None) is not None:
                tracer.rebind(owner.sched, "select", "sched.select")
        if getattr(strategy, "topo", None) is not None:
            tracer.rebind(strategy.topo, "select_among", "sched.select")

    def _set_up_coordinator(self) -> None:
        from repro.parallel import Coordinator, ParallelConfig

        spec = self.job["cell"]
        parallel = ParallelConfig(
            workers=spec["workers"],
            backend=spec["backend"],
            campaign_id=self.job["campaign_id"] if spec.get("campaign") else None,
            checkpoint_every=1,
        )
        self.coordinator = Coordinator(self.info.name, self.argv, self.config, parallel)
        if self.tracer is not None:
            self._instrument_coordinator()

    def _instrument_coordinator(self) -> None:
        """Proxies that only the coordinator process calls: workers fork
        from this process, and anything rebound on the engine's own
        modules would slow them down and record spans nobody reads."""
        import repro.store
        from repro.campaign import CampaignCheckpointer
        from repro.store import ReproStore

        tracer = self.tracer
        tracer.rebind(repro.store, "retry_locked", "store.commit")
        timed_save = tracer.timed("campaign.checkpoint", CampaignCheckpointer.save)
        put_checkpoint = ReproStore.put_checkpoint

        def save(checkpointer, record):
            self.checkpoint_bytes += sum(len(row[1]) for row in record.pending)
            return timed_save(checkpointer, record)

        def counted_put_checkpoint(store, campaign, epoch, phase, state, *rest, **kw):
            self.checkpoint_bytes += len(state)
            return put_checkpoint(store, campaign, epoch, phase, state, *rest, **kw)

        CampaignCheckpointer.save = save
        ReproStore.put_checkpoint = counted_put_checkpoint

    # -- the timed region ----------------------------------------------------------

    def run(self) -> None:
        tracer = self.tracer
        if self.partitioned:
            if tracer is None:
                self.result = self.coordinator.run()
            else:
                with tracer.span("parallel.run"):
                    self.result = self.coordinator.run()
        elif tracer is None:
            self.engine.run()
        else:
            engine = self.engine
            with tracer.span("engine.run"):
                with tracer.span("engine.step"):
                    engine.seed_states([engine.make_initial_state()])
                    engine.explore()
                with tracer.span("store.commit"):
                    engine.commit_to_store()

    # -- after the timed region ------------------------------------------------------

    def outcome(self):
        """(engine stats, solver stats, test cases, covered blocks, facts)."""
        if self.partitioned:
            r = self.result
            try:
                r.check_ledger()
                ledger_error = None
            except AssertionError as exc:
                ledger_error = str(exc)
            return r.stats, r.solver_stats, r.tests.cases, r.covered, {
                "store_warning": r.store_warning, "ledger_error": ledger_error,
            }
        e = self.engine
        return e.stats, e.solver.stats, e.tests.cases, e.coverage.covered, {
            "store_warning": e.store_warning,
        }

    def module(self):
        return self.engine.module if self.engine is not None else self.info.compile()

    def layer_counts(self, estats, sstats, speed: float):
        """Counts, and ratios as (useful, attempted) pairs so that the
        cells of one workload add up before dividing.  ``speed`` brings
        seconds the program measured itself to reference seconds."""
        cache_hits = sstats.cache_hits_exact + sstats.cache_hits_subset + sstats.cache_hits_model
        presolve_hits = sstats.presolve_hits_sat + sstats.presolve_hits_unsat
        layers = {
            "engine.instructions": estats.instructions_executed,
            "engine.forks": estats.forks,
            "engine.tests": estats.tests_generated,
            "engine.merges": estats.merges,
            "lang.blocks_compiled": estats.blocks_compiled,
            "lang.compiled_bailouts": estats.compiled_bailouts,
            "sched.rescores": estats.sched_rescores,
            "store.warm_models_seeded": estats.warm_models_seeded,
            "store.warm_cores_seeded": estats.warm_cores_seeded,
            "solver.queries": sstats.queries,
            "solver.cost_units": sstats.cost_units,
            "solver.sat_solver_runs": sstats.sat_solver_runs,
            "solver.assumption_probes": sstats.assumption_probes,
            "solver.bcp_props": sstats.bcp_props,
            "solver.store_inserts": sstats.store_inserts,
        }
        ratios = {
            "lang.compiled_step_share": (estats.compiled_steps, estats.instructions_executed),
            "solver.cache_hit_ratio": (cache_hits, cache_hits + sstats.cache_misses),
            "solver.presolve_hit_ratio": (
                presolve_hits, presolve_hits + sstats.assumption_probes),
            "solver.store_hit_ratio": (
                sstats.store_hits, sstats.store_hits + sstats.store_misses),
        }
        store_path = self.job.get("store_path")
        if store_path:
            layers["store.bytes"] = sum(
                os.path.getsize(store_path + suffix)
                for suffix in ("", "-wal") if os.path.exists(store_path + suffix)
            )
        if self.partitioned:
            r = self.result
            worker_cpu = [entry[1].cpu_time * speed for entry in r.ledger[1:]]
            split_cpu = r.ledger[0][1].cpu_time * speed
            layers.update({
                # Worker-side solver seconds come from the ledger's sum:
                # the coordinator's proxies do not reach into workers.
                "solver.check_s": sstats.time_total * speed,
                "parallel.split_cpu_s": split_cpu,
                "parallel.worker_cpu_s": sum(worker_cpu),
                "parallel.critical_path_s": split_cpu + max(worker_cpu, default=0.0),
                "parallel.partitions": r.partitions,
                "parallel.steals": r.steals,
                "parallel.imbalance": r.imbalance,
                "campaign.checkpoint_epochs": r.checkpoint_epoch,
                "campaign.checkpoint_bytes": self.checkpoint_bytes,
            })
        return layers, ratios

    def snapshot_kernel(self, speed: float) -> dict:
        """Encode/decode cost per state of the frontier a split exports."""
        import dataclasses

        from repro.engine.executor import Engine
        from repro.engine.state import SymState

        config = dataclasses.replace(self.config, store_path=None)
        engine = Engine(self.module(), self.argv, config, program=self.info.name)
        engine.seed_states([engine.make_initial_state()])
        target = self.job["cell"]["workers"] * 4
        engine.explore(
            interrupt=lambda e: len(e.worklist) >= target or e.stats.blocks_executed >= 512
        )
        frontier = engine.export_frontier(len(engine.worklist))
        if not frontier:
            return {}
        t0 = time.perf_counter()
        blobs = [state.snapshot() for state in frontier]
        t1 = time.perf_counter()
        for sid, blob in enumerate(blobs):
            SymState.from_snapshot(blob, sid)
        t2 = time.perf_counter()
        n = len(frontier)
        return {
            "expr.snapshot_encode_s": (t1 - t0) * speed / n,
            "expr.snapshot_decode_s": (t2 - t1) * speed / n,
            "expr.snapshot_bytes": sum(len(b) for b in blobs) / n,
        }


def traced_layers(cell, tracer, n_setup_spans, estats, sstats, speed_setup, speed_run):
    """Per-layer metrics of one traced run, and the share of the timed
    region its layers' self times account for (1.0 by construction)."""
    layers, ratios = cell.layer_counts(estats, sstats, speed_run)
    if cell.partitioned:
        layers.update(cell.snapshot_kernel(speed_run))
    setup_names = {row[0] for row in tracer.spans[:n_setup_spans]}
    run_self = 0.0
    rows = tracer.summary()
    for name, row in rows.items():
        speed = speed_setup if name in setup_names else speed_run
        metric = SELF_TIME_METRICS[name]
        layers[metric] = layers.get(metric, 0.0) + row["self_s"] * speed
        if name not in setup_names:
            run_self += row["self_s"] * speed

    def calls(*names):
        return sum(rows[n]["calls"] for n in names if n in rows)

    if "solver.check" in rows:
        layers["solver.check_s"] = rows["solver.check"]["total_s"] * speed_run
    layers["engine.similarity_calls"] = calls(
        "engine.similarity.mergeable", "engine.similarity.hash")
    layers["search.picks"] = calls("search.pick")
    ratios["engine.merge_success_ratio"] = (
        estats.merges, calls("engine.similarity.mergeable"))
    return layers, ratios, run_self


def main() -> None:
    job = json.loads(sys.argv[1])
    sampler = SpeedSampler()
    sampler.start()
    tracer = Tracer() if job["trace"] else None

    cell = Cell(job, tracer)
    cell.set_up()
    ready = time.monotonic()
    if job.get("setup_only"):
        sampler.stop()
        print(json.dumps({
            "setup_s": reference_seconds(sampler.smoothed(), job["t_spawn"], ready),
            "setup_raw_s": ready - job["t_spawn"],
        }))
        return

    n_setup_spans = len(tracer.spans) if tracer else 0
    cpu0 = _tree_cpu()
    cell.run()
    end = time.monotonic()
    cpu_raw = _tree_cpu() - cpu0
    peak_rss_mb = _tree_peak_rss_mb()
    sampler.stop()

    samples = sampler.smoothed()
    wall_raw = end - ready
    wall = reference_seconds(samples, ready, end)
    setup_raw = ready - job["t_spawn"]
    setup = reference_seconds(samples, job["t_spawn"], ready)
    out = {
        "wall_s": wall, "wall_raw_s": wall_raw,
        "cpu_s": cpu_raw * wall / wall_raw, "cpu_raw_s": cpu_raw,
        "setup_s": setup, "setup_raw_s": setup_raw,
        "peak_rss_mb": peak_rss_mb,
    }

    estats, sstats, cases, covered, facts = cell.outcome()
    from verify import replay_checks, tests_digest

    facts.update({
        "paths": estats.paths_completed,
        "tests": len(cases),
        "covered": len(covered),
        "digest": tests_digest(cases),
        "timed_out": estats.timed_out,
        "sat_solver_runs": sstats.sat_solver_runs,
    })
    out["facts"] = facts
    out["counters"] = {
        "engine.instructions": estats.instructions_executed,
        "solver.queries": sstats.queries,
        "solver.cost_units": sstats.cost_units,
        "solver.bcp_props": sstats.bcp_props,
        "paths": estats.paths_completed,
        "tests": len(cases),
    }
    if job["replay"]:
        plain = job["cell"]["mode"] == "plain"
        out["checks"] = replay_checks(cell.module(), cases, covered, exhaustive_plain=plain)

    if tracer is not None:
        layers, ratios, run_self = traced_layers(
            cell, tracer, n_setup_spans, estats, sstats,
            speed_setup=setup / setup_raw, speed_run=wall / wall_raw,
        )
        if cell.partitioned:
            layers["parallel.coord_overhead_s"] = wall - layers["parallel.critical_path_s"]
        out["layers"] = layers
        out["ratios"] = ratios
        out["layer_self_s"] = run_self
        if job.get("spans_path"):
            with open(job["spans_path"], "w") as fh:
                json.dump({"columns": ["name", "start", "end", "parent"],
                           "spans": tracer.spans}, fh)
    print(json.dumps(out))


if __name__ == "__main__":
    main()

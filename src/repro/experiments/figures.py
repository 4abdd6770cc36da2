"""Drivers reproducing every figure of the paper's evaluation (§5).

Each ``figN_*`` function runs the corresponding experiment at a chosen
scale and returns a result object with the raw rows and a ``table()``
rendering.  ``scale='ci'`` keeps every figure in the seconds range;
``scale='paper'`` uses larger inputs/budgets for stronger effects.

The benchmarks under ``benchmarks/`` regenerate each paper figure and
assert its expected *shape*.  The ablation figures (``presolve``,
``warm``, ``sched``, ``parallel``, ``cache``) only report: the laws their
rows show are enforced by tier-1 tests, which call these functions.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass, field

from ..memo import clear_memos
from ..parallel import ParallelConfig, run_parallel
from ..qce.qce import QceParams
from ..store import open_store
from .harness import FAST_EXHAUSTIVE, MODES, cost_of, run_cell
from .pathcount import PathFit, collect_points, fit_points
from .report import render_table

CI = "ci"
PAPER = "paper"


def _budget(scale: str, ci_value: int, paper_value: int) -> int:
    return ci_value if scale == CI else paper_value


# ---------------------------------------------------------------------------
# Figure 3 — exact path count vs. state multiplicity (log-log linear)
# ---------------------------------------------------------------------------


@dataclass
class Fig3Result:
    fits: dict[str, PathFit]

    def table(self) -> str:
        rows = [
            [name, len(fit.points), round(fit.c1, 3), round(fit.c2, 3), round(fit.r_squared, 3)]
            for name, fit in self.fits.items()
        ]
        return render_table(
            ["tool", "samples", "c1", "c2", "R^2"],
            rows,
            title="Fig. 3 — log p ~ c1 + c2 log m (expect c2 > 0, high R^2)",
        )


def fig3_multiplicity(scale: str = CI, programs=None) -> Fig3Result:
    # The paper uses seq/join/tsort; seq's atoi chains make exact-path
    # tracking expensive, so the CI preset swaps in echo (same loop shape).
    programs = programs or (("echo", "join", "tsort") if scale == CI else ("seq", "join", "tsort"))
    fits: dict[str, PathFit] = {}
    steps = _budget(scale, 400, 4000)
    for program in programs:
        points = collect_points(program, mode="ssm-qce", max_steps=steps)
        fits[program] = fit_points(points)
    return Fig3Result(fits)


# ---------------------------------------------------------------------------
# Figure 4 — relative increase in explored paths, DSM+QCE vs. plain
# ---------------------------------------------------------------------------


@dataclass
class Fig4Row:
    program: str
    paths_plain: int
    paths_dsm_estimated: float
    ratio: float
    log10_ratio: float


@dataclass
class Fig4Result:
    rows: list[Fig4Row]

    def table(self) -> str:
        data = [
            [r.program, r.paths_plain, round(r.paths_dsm_estimated, 1), f"{r.ratio:.3g}",
             round(r.log10_ratio, 2)]
            for r in sorted(self.rows, key=lambda r: -r.log10_ratio)
        ]
        return render_table(
            ["tool", "paths(plain)", "paths(DSM+QCE est.)", "ratio", "log10"],
            data,
            title="Fig. 4 — path-exploration ratio under a fixed budget",
        )


def fig4_path_ratio(scale: str = CI, programs=None) -> Fig4Result:
    programs = programs or FAST_EXHAUSTIVE
    steps = _budget(scale, 1200, 12000)
    calibration_steps = _budget(scale, 600, 4000)
    rows: list[Fig4Row] = []
    for program in programs:
        plain = run_cell(program, "plain-cov", max_steps=steps, seed=1)
        dsm = run_cell(program, "dsm-qce", max_steps=steps, seed=1)
        fit = fit_points(
            collect_points(program, mode="dsm-qce", max_steps=calibration_steps)
        )
        estimated = fit.estimate(dsm.stats.paths_completed)
        if estimated <= 0:
            estimated = float(dsm.stats.paths_completed)
        plain_paths = max(1, plain.stats.paths_completed)
        ratio = estimated / plain_paths
        rows.append(
            Fig4Row(program, plain_paths, estimated, ratio, math.log10(max(ratio, 1e-12)))
        )
    return Fig4Result(rows)


# ---------------------------------------------------------------------------
# Figure 5 — speedup of SSM+QCE vs. plain as input size grows
# ---------------------------------------------------------------------------


@dataclass
class Fig5Row:
    program: str
    sym_bytes: int
    cost_plain: int
    cost_ssm: int
    speedup: float
    plain_timed_out: bool


@dataclass
class Fig5Result:
    rows: list[Fig5Row]

    def table(self) -> str:
        data = [
            [r.program, r.sym_bytes, r.cost_plain, r.cost_ssm,
             f"{r.speedup:.2f}" + (" (lower bound)" if r.plain_timed_out else "")]
            for r in self.rows
        ]
        return render_table(
            ["tool", "symbolic bytes", "cost(plain)", "cost(SSM+QCE)", "speedup"],
            data,
            title="Fig. 5 — speedup vs. symbolic input size (expect growth with size)",
        )


def fig5_speedup_curve(
    scale: str = CI, programs=("link", "nice", "basename"), sizes=None
) -> Fig5Result:
    if sizes is None:
        sizes = [(1, 1), (1, 2), (2, 1), (2, 2)]
        if scale == PAPER:
            sizes.append((2, 3))
    cap = _budget(scale, 25000, 200000)
    rows: list[Fig5Row] = []
    for program in programs:
        for n, l in sizes:
            plain = run_cell(program, "plain", n_args=n, arg_len=l, max_steps=cap)
            ssm = run_cell(program, "ssm-qce", n_args=n, arg_len=l, max_steps=cap)
            cost_p, cost_s = max(1, cost_of(plain)), max(1, cost_of(ssm))
            rows.append(
                Fig5Row(
                    program,
                    n * l,
                    cost_p,
                    cost_s,
                    cost_p / cost_s,
                    plain.stats.timed_out,
                )
            )
    return Fig5Result(rows)


# ---------------------------------------------------------------------------
# Figure 6 — scatter of SSM+QCE vs. plain completion cost over the corpus
# ---------------------------------------------------------------------------


@dataclass
class Fig6Row:
    program: str
    sym_bytes: int
    cost_plain: int
    cost_ssm: int
    plain_timed_out: bool
    ssm_timed_out: bool


@dataclass
class Fig6Result:
    rows: list[Fig6Row]

    def table(self) -> str:
        data = [
            [r.program, r.sym_bytes,
             str(r.cost_plain) + ("(T)" if r.plain_timed_out else ""),
             str(r.cost_ssm) + ("(T)" if r.ssm_timed_out else ""),
             f"{r.cost_plain / max(1, r.cost_ssm):.2f}"]
            for r in self.rows
        ]
        return render_table(
            ["tool", "symbolic bytes", "cost(plain)", "cost(SSM+QCE)", "ratio"],
            data,
            title="Fig. 6 — corpus scatter (points below the diagonal = speedup)",
        )

    def speedup_fraction(self) -> float:
        """Fraction of instances where SSM+QCE was at least as cheap."""
        wins = sum(1 for r in self.rows if r.cost_ssm <= r.cost_plain or r.plain_timed_out)
        return wins / len(self.rows) if self.rows else 0.0


def fig6_scatter(scale: str = CI, programs=None, sizes=((1, 2), (2, 2))) -> Fig6Result:
    programs = programs or FAST_EXHAUSTIVE
    cap = _budget(scale, 12000, 80000)
    rows: list[Fig6Row] = []
    for program in programs:
        for n, l in sizes:
            plain = run_cell(program, "plain", n_args=n, arg_len=l, max_steps=cap)
            ssm = run_cell(program, "ssm-qce", n_args=n, arg_len=l, max_steps=cap)
            rows.append(
                Fig6Row(
                    program,
                    n * l,
                    cost_of(plain),
                    cost_of(ssm),
                    plain.stats.timed_out,
                    ssm.stats.timed_out,
                )
            )
    return Fig6Result(rows)


# ---------------------------------------------------------------------------
# Figure 7 — impact of the QCE threshold alpha
# ---------------------------------------------------------------------------

NO_MERGE = "no-merge"


@dataclass
class Fig7Result:
    # program -> [(alpha label, cost, completed)]
    curves: dict[str, list[tuple[str, int, bool]]]

    def table(self) -> str:
        rows = []
        for program, curve in self.curves.items():
            for label, cost, completed in curve:
                rows.append([program, label, cost, "yes" if completed else "TIMEOUT"])
        return render_table(
            ["tool", "alpha", "cost", "completed"],
            rows,
            title="Fig. 7 — completion cost vs. QCE threshold alpha",
        )


def fig7_alpha_sweep(
    scale: str = CI,
    programs=("link", "nice", "paste", "pr"),
    alphas=(0.0, 1e-6, 1e-2, 0.05, 0.3, 1.0, math.inf),
) -> Fig7Result:
    cap = _budget(scale, 20000, 120000)
    curves: dict[str, list[tuple[str, int, bool]]] = {}
    for program in programs:
        curve: list[tuple[str, int, bool]] = []
        plain = run_cell(program, "plain", max_steps=cap)
        curve.append((NO_MERGE, cost_of(plain), not plain.stats.timed_out))
        for alpha in alphas:
            result = run_cell(
                program, "ssm-qce", qce_params=QceParams(alpha=alpha), max_steps=cap
            )
            label = "inf" if math.isinf(alpha) else f"{alpha:g}"
            curve.append((label, cost_of(result), not result.stats.timed_out))
        curves[program] = curve
    return Fig7Result(curves)


# ---------------------------------------------------------------------------
# Figure 8 — statement-coverage change of DSM and SSM vs. plain (budgeted)
# ---------------------------------------------------------------------------


@dataclass
class Fig8Row:
    program: str
    coverage_plain: float
    coverage_ssm: float
    coverage_dsm: float

    @property
    def ssm_delta(self) -> float:
        return 100.0 * (self.coverage_ssm - self.coverage_plain)

    @property
    def dsm_delta(self) -> float:
        return 100.0 * (self.coverage_dsm - self.coverage_plain)


@dataclass
class Fig8Result:
    rows: list[Fig8Row]

    def table(self) -> str:
        data = [
            [r.program, f"{100 * r.coverage_plain:.1f}%", f"{r.ssm_delta:+.1f}",
             f"{r.dsm_delta:+.1f}"]
            for r in self.rows
        ]
        return render_table(
            ["tool", "plain coverage", "SSM delta (pp)", "DSM delta (pp)"],
            data,
            title="Fig. 8 — coverage change vs. plain (DSM should track plain; SSM lags)",
        )

    def mean_deltas(self) -> tuple[float, float]:
        if not self.rows:
            return (0.0, 0.0)
        ssm = sum(r.ssm_delta for r in self.rows) / len(self.rows)
        dsm = sum(r.dsm_delta for r in self.rows) / len(self.rows)
        return ssm, dsm


def fig8_coverage(scale: str = CI, programs=None, sizes=(3, 3)) -> Fig8Result:
    """Budgeted runs on enlarged inputs so exploration stays incomplete."""
    programs = programs or ["echo", "cat", "nice", "pr", "uniq", "wc", "head", "tr"]
    n, l = sizes
    steps = _budget(scale, 350, 2500)
    rows: list[Fig8Row] = []
    for program in programs:
        size = dict(n_args=n, arg_len=l, max_steps=steps, seed=3)
        plain = run_cell(program, "plain-cov", **size)
        ssm = run_cell(program, "ssm-qce", **size)
        dsm = run_cell(program, "dsm-qce", **size)
        rows.append(
            Fig8Row(
                program,
                plain.statement_coverage,
                ssm.statement_coverage,
                dsm.statement_coverage,
            )
        )
    return Fig8Result(rows)


# ---------------------------------------------------------------------------
# Figure 9 — SSM vs. DSM in exhaustive exploration (+ the 69% FF statistic)
# ---------------------------------------------------------------------------


@dataclass
class Fig9Row:
    program: str
    cost_ssm: int
    cost_dsm: int
    dsm_overhead: float
    ff_states: int
    ff_merges: int


@dataclass
class Fig9Result:
    rows: list[Fig9Row]

    def table(self) -> str:
        data = [
            [r.program, r.cost_ssm, r.cost_dsm, f"{100 * (r.dsm_overhead - 1):+.1f}%",
             r.ff_states, r.ff_merges]
            for r in self.rows
        ]
        return render_table(
            ["tool", "cost(SSM)", "cost(DSM)", "DSM overhead", "FF states", "FF merges"],
            data,
            title="Fig. 9 — DSM vs. SSM exhaustive cost (expect comparable, modest overhead)",
        )

    def ff_success_rate(self) -> float:
        """Paper §5.5 reports 69% of fast-forwarded states merge."""
        states = sum(r.ff_states for r in self.rows)
        merges = sum(r.ff_merges for r in self.rows)
        return merges / states if states else 0.0

    def median_overhead(self) -> float:
        if not self.rows:
            return 1.0
        values = sorted(r.dsm_overhead for r in self.rows)
        return values[len(values) // 2]


def fig9_dsm_vs_ssm(scale: str = CI, programs=None) -> Fig9Result:
    programs = programs or ["echo", "cat", "cut", "nice", "pr", "sleep", "fold", "test"]
    cap = _budget(scale, 20000, 120000)
    rows: list[Fig9Row] = []
    for program in programs:
        # Exhaustive setting: both techniques drive with the same
        # (topological) heuristic, so the difference isolates DSM's
        # fast-forwarding machinery — matching the paper's §5.5 protocol
        # where SSM is the exhaustive-mode gold standard.
        ssm = run_cell(program, "ssm-qce", max_steps=cap)
        dsm = run_cell(program, "dsm-topo", max_steps=cap)
        # At CI scale, raw cost units are dominated by which queries happen
        # to hit the solver fast path; the query count is the stable
        # exhaustive-mode workload measure (both runs explore the same
        # merged state space).
        cost_s, cost_d = max(1, ssm.stats.queries), dsm.stats.queries
        rows.append(
            Fig9Row(
                program,
                cost_s,
                cost_d,
                cost_d / cost_s,
                dsm.stats.dsm_fastforward_states,
                dsm.stats.dsm_ff_merges,
            )
        )
    return Fig9Result(rows)


# ---------------------------------------------------------------------------
# Presolve ablation — abstract-domain pre-solve tier vs. bit-blast-only chain
# ---------------------------------------------------------------------------


@dataclass
class PresolveRow:
    program: str
    mode: str
    paths: int
    queries: int
    sat_runs_off: int
    sat_runs_on: int
    presolve_sat: int
    presolve_unsat: int
    rewrites: int
    env_reuses: int
    probes_on: int
    cost_off: int
    cost_on: int


@dataclass
class PresolveAblationResult:
    rows: list[PresolveRow] = field(default_factory=list)

    def table(self) -> str:
        data = [
            [
                r.program,
                r.mode,
                r.paths,
                r.queries,
                r.sat_runs_off,
                r.sat_runs_on,
                r.presolve_sat,
                r.presolve_unsat,
                r.rewrites,
                r.env_reuses,
            ]
            for r in self.rows
        ]
        return render_table(
            ["tool", "mode", "paths", "queries", "blasts(off)", "blasts(on)",
             "pre-SAT", "pre-UNSAT", "rewrites", "env reuse"],
            data,
            title=(
                "Presolve ablation — abstract-domain tier vs. bit-blast-only "
                "chain (expect identical tests & coverage, and far fewer "
                "blasts with the tier on)"
            ),
        )

    def blast_reduction(self) -> float:
        """Aggregate on/off full-blast ratio (lower = better)."""
        off = sum(r.sat_runs_off for r in self.rows)
        on = sum(r.sat_runs_on for r in self.rows)
        return on / off if off else 1.0

    def hit_rate(self) -> float:
        """Fraction of bottom-tier-bound group checks answered by the tier.

        A query splits into independence groups, so presolve hits are
        per-group events; the honest denominator is hits plus the group
        checks that still reached the bottom tier (assumption probes).
        """
        hits = sum(r.presolve_sat + r.presolve_unsat for r in self.rows)
        reached = sum(r.probes_on for r in self.rows)
        total = hits + reached
        return hits / total if total else 0.0


def presolve_ablation(
    scale: str = CI, programs=None, modes=("dsm-qce", "ssm-qce")
) -> PresolveAblationResult:
    """Run each merge-heavy cell twice — presolve tier off, then on — and
    report the blasts each run performed and what the tier answered."""
    programs = programs or ["echo", "cat", "uniq", "wc"]
    cap = _budget(scale, 20000, 120000)
    rows: list[PresolveRow] = []
    for program in programs:
        for mode in modes:
            base = dict(max_steps=cap, generate_tests=True)
            off = run_cell(program, mode, solver_fastpath=False, **base)
            on = run_cell(program, mode, solver_fastpath=True, **base)
            s_on = on.stats
            rows.append(
                PresolveRow(
                    program=program,
                    mode=mode,
                    paths=on.paths,
                    queries=s_on.queries,
                    sat_runs_off=off.stats.sat_solver_runs,
                    sat_runs_on=s_on.sat_solver_runs,
                    presolve_sat=s_on.presolve_hits_sat,
                    presolve_unsat=s_on.presolve_hits_unsat,
                    rewrites=s_on.presolve_rewrites,
                    env_reuses=s_on.presolve_env_reuses,
                    probes_on=s_on.assumption_probes + (
                        # Fresh-blast cells have no probes; every blast is
                        # a bottom-tier reach.
                        s_on.sat_solver_runs if s_on.assumption_probes == 0 else 0
                    ),
                    cost_off=cost_of(off),
                    cost_on=cost_of(on),
                )
            )
    return PresolveAblationResult(rows=rows)


# ---------------------------------------------------------------------------
# Parallel scaling — coordinator/worker partitioned exploration speedup
# ---------------------------------------------------------------------------


@dataclass
class ParRow:
    program: str
    paths: int
    tests: int
    partitions: int
    steals: int
    t_seq: float  # elapsed, 1 worker
    t_par: float  # elapsed, N workers
    speedup_measured: float  # elapsed ratio (hardware-dependent)
    speedup_critical: float  # CPU-time critical path (hardware-independent)


@dataclass
class ParallelScalingResult:
    workers: int
    rows: list[ParRow] = field(default_factory=list)

    def table(self) -> str:
        data = [
            [
                r.program,
                r.paths,
                r.tests,
                r.partitions,
                r.steals,
                round(r.t_seq, 2),
                round(r.t_par, 2),
                round(r.speedup_measured, 2),
                round(r.speedup_critical, 2),
            ]
            for r in self.rows
        ]
        return render_table(
            ["tool", "paths", "tests", "parts", "steals", "t_seq(s)",
             f"t_par{self.workers}(s)", "measured x", "critical x"],
            data,
            title=(
                f"Parallel scaling — {self.workers}-worker partitioned vs sequential "
                "(critical x = seq CPU / parallel critical-path CPU; equals the "
                "measured ratio on >= workers unloaded cores)"
            ),
        )


# ---------------------------------------------------------------------------
# Warm start — cold vs. warm runs against one persistent store (repro.store)
# ---------------------------------------------------------------------------


@dataclass
class WarmRow:
    program: str
    # 'blast-only' = presolve off (every undecided group reaches the bottom
    # tier, so the row isolates what the store saves the bit-blaster);
    # 'default' = the chain as shipped.
    chain: str
    paths: int
    tests: int
    sat_runs_cold: int
    sat_runs_warm: int
    cost_cold: int
    cost_warm: int
    store_hits_warm: int
    store_misses_warm: int
    testgen_solves_cold: int
    testgen_solves_warm: int
    warm_models: int
    warm_cores: int
    t_cold: float
    t_warm: float


@dataclass
class WarmStartResult:
    store_path: str
    rows: list[WarmRow] = field(default_factory=list)
    store_counts: dict = field(default_factory=dict)

    def table(self) -> str:
        data = [
            [
                r.program,
                r.chain,
                r.paths,
                r.tests,
                r.sat_runs_cold,
                r.sat_runs_warm,
                r.cost_cold,
                r.cost_warm,
                f"{r.store_hits_warm}/{r.store_hits_warm + r.store_misses_warm}",
                f"{r.testgen_solves_cold}->{r.testgen_solves_warm}",
                r.warm_models + r.warm_cores,
                round(r.t_cold, 2),
                round(r.t_warm, 2),
            ]
            for r in self.rows
        ]
        return render_table(
            ["tool", "chain", "paths", "tests", "blasts(cold)", "blasts(warm)",
             "cost(cold)", "cost(warm)", "store hits/bottom groups",
             "testgen solves", "seeds", "t_cold(s)", "t_warm(s)"],
            data,
            title=(
                "Warm start — second run against a populated store "
                f"(store: {self.store_counts}; blast-only rows: expect "
                "blasts(warm) < blasts(cold); default rows: <=, the store is "
                "asked only about groups presolve left undecided; every row: "
                "identical tests and coverage, warm testgen solves 0)"
            ),
        )


def warm_start(
    scale: str = CI, programs=None, mode: str = "plain", store_path: str | None = None
) -> WarmStartResult:
    """Run each program twice against one store: cold, then warm.

    Each program gets a *blast-only* row (presolve off, the chain that
    leans on the store hardest) and a *default* row (the chain as
    shipped, its own store file).  Every cell starts from cleared
    process-wide memos, as a second process would find them.
    """
    programs = programs or ["echo", "wc", "uniq"]
    if store_path is None:
        store_path = os.path.join(tempfile.mkdtemp(prefix="repro-store-"), "warm.sqlite")
    chains = (("blast-only", False, store_path), ("default", True, store_path + "-default"))
    rows: list[WarmRow] = []
    for program in programs:
        for chain, fastpath, path in chains:
            cell = dict(generate_tests=True, store_path=path, solver_fastpath=fastpath)
            cold = run_cell(program, mode, **cell)
            warm = run_cell(program, mode, **cell)
            rows.append(
                WarmRow(
                    program=program,
                    chain=chain,
                    paths=warm.paths,
                    tests=len(warm.tests.cases),
                    sat_runs_cold=cold.stats.sat_solver_runs,
                    sat_runs_warm=warm.stats.sat_solver_runs,
                    cost_cold=cost_of(cold),
                    cost_warm=cost_of(warm),
                    store_hits_warm=warm.stats.store_hits,
                    store_misses_warm=warm.stats.store_misses,
                    testgen_solves_cold=cold.stats.testgen_group_solves,
                    testgen_solves_warm=warm.stats.testgen_group_solves,
                    warm_models=warm.stats.warm_models_seeded,
                    warm_cores=warm.stats.warm_cores_seeded,
                    t_cold=cold.stats.wall_time,
                    t_warm=warm.stats.wall_time,
                )
            )
    store = open_store(store_path, readonly=True)
    counts = store.counts() if store is not None else {}
    if store is not None:
        store.close()
    return WarmStartResult(store_path=store_path, rows=rows, store_counts=counts)


# ---------------------------------------------------------------------------
# Cache report — query-cache and store hit/miss rates over the corpus
# ---------------------------------------------------------------------------


@dataclass
class CacheRow:
    program: str
    queries: int
    hits_exact: int
    hits_subset: int
    hits_model: int
    misses: int
    # Groups that reached the bottom tier and were answered by the store.
    store_hits: int
    unsat_cores: int
    hit_rate: float


@dataclass
class CacheReportResult:
    rows: list[CacheRow] = field(default_factory=list)

    def table(self) -> str:
        data = [
            [r.program, r.queries, r.hits_exact, r.hits_subset, r.hits_model,
             r.misses, r.store_hits, r.unsat_cores, f"{100 * r.hit_rate:.1f}%"]
            for r in self.rows
        ]
        return render_table(
            ["tool", "queries", "exact", "subset-UNSAT", "model-reuse",
             "misses", "store (bottom tier)", "cores", "hit rate"],
            data,
            title=(
                "Cache effectiveness — query-cache tiers + persistent store "
                "(store: independence groups answered instead of bit-blasted; "
                "it is asked only after cache, presolve and rewrite all passed, "
                "so 0 on a default chain means nothing was left to ask)"
            ),
        )


def cache_report(
    scale: str = CI, programs=None, mode: str = "plain", store_path: str | None = None
) -> CacheReportResult:
    """Per-program cache-tier breakdown (previously invisible)."""
    programs = programs or ["echo", "test", "wc", "uniq"]
    cap = _budget(scale, 20000, 120000)
    rows: list[CacheRow] = []
    for program in programs:
        result = run_cell(program, mode, max_steps=cap, store_path=store_path)
        s = result.stats
        lookups = s.cache_hits_exact + s.cache_hits_subset + s.cache_hits_model + s.cache_misses
        hits = s.cache_hits_exact + s.cache_hits_subset + s.cache_hits_model
        rows.append(
            CacheRow(
                program=program,
                queries=s.queries,
                hits_exact=s.cache_hits_exact,
                hits_subset=s.cache_hits_subset,
                hits_model=s.cache_hits_model,
                misses=s.cache_misses,
                store_hits=s.store_hits,
                unsat_cores=s.unsat_cores,
                hit_rate=hits / lookups if lookups else 0.0,
            )
        )
    return CacheReportResult(rows=rows)


# ---------------------------------------------------------------------------
# Sched ablation — corpus-guided partition dispatch vs FIFO on a warm store
# ---------------------------------------------------------------------------


@dataclass
class SchedRow:
    program: str
    partitions: int
    corpus_known: int  # blocks the warm store already had evidence for
    target_blocks: int  # novel blocks the partitions must reach
    paths_total: int
    paths_to_target_fifo: int
    paths_to_target_corpus: int
    imbalance: float


@dataclass
class SchedAblationResult:
    workers: int
    rows: list[SchedRow] = field(default_factory=list)

    def table(self) -> str:
        data = [
            [
                r.program,
                r.partitions,
                r.corpus_known,
                r.target_blocks,
                r.paths_total,
                r.paths_to_target_fifo,
                r.paths_to_target_corpus,
                round(r.imbalance, 2),
            ]
            for r in self.rows
        ]
        return render_table(
            ["tool", "parts", "known blk", "target blk", "paths",
             "to-target(fifo)", "to-target(corpus)", "imbalance"],
            data,
            title=(
                f"Sched ablation — {self.workers}-worker dispatch policy on a "
                "warm store (paths explored until every corpus-novel block is "
                "covered; corpus-guided should need fewer)"
            ),
        )

    def improvement(self) -> float:
        """Aggregate fifo/corpus paths-to-target ratio (>1 = corpus wins)."""
        fifo = sum(r.paths_to_target_fifo for r in self.rows)
        corpus = sum(r.paths_to_target_corpus for r in self.rows)
        return fifo / corpus if corpus else 1.0


def _paths_to_cover(partition_results, target: set) -> int:
    """Streamed paths until the cumulative partition coverage ⊇ target."""
    remaining = set(target)
    paths = 0
    for _pid, _origin, part_paths, new_cov in partition_results:
        if not remaining:
            break  # empty target is reached at 0 paths, not after one part
        paths += part_paths
        remaining -= new_cov
    return paths


def sched_ablation(
    scale: str = CI,
    programs=None,
    workers: int = 2,
    store_path: str | None = None,
) -> SchedAblationResult:
    """Corpus-guided dispatch vs FIFO, on a store warmed by a partial run.

    Protocol per program: (1) a *budgeted* sequential run populates the
    store with a partial corpus — some blocks get stored coverage
    evidence, the rest stay novel; (2) two full N-worker inline runs
    against the same store, read-only, differ only in dispatch policy.
    Inline workers complete partitions exactly in dispatch order, so
    "streamed paths until every corpus-novel block is covered" is a pure
    function of the policy.
    """
    programs = programs or ["join", "tr", "head"]
    # The seed budget is scale-independent: it calibrates *which* blocks
    # gain corpus evidence, and the rows are about that partial-knowledge
    # shape, not about run size.
    seed_steps = 100
    if store_path is None:
        store_path = os.path.join(tempfile.mkdtemp(prefix="repro-sched-"), "sched.sqlite")
    rows: list[SchedRow] = []
    for program in programs:
        # (1) Partial seed run: a budgeted randomized pass (deterministic
        # — RandomStrategy is seeded per prefix), so the corpus learns a
        # scattered sample of behavior and the novel blocks concentrate
        # in regions the dispatcher must *find* rather than inherit from
        # split order.
        run_cell(
            program, "plain-rand", max_steps=seed_steps, generate_tests=True,
            store_path=store_path,
        )
        store = open_store(store_path, readonly=True)
        corpus_known = store.covered_blocks(program)
        store.close()

        # (2) The two dispatch policies, same split, same partitions.
        full = dict(MODES["plain"], store_path=store_path, store_readonly=True)
        inline = dict(workers=workers, backend="inline")
        fifo = run_parallel(
            program, parallel=ParallelConfig(dispatch="fifo", **inline), **full
        )
        corpus = run_parallel(
            program, parallel=ParallelConfig(dispatch="corpus", **inline), **full
        )
        reachable_corpus = set().union(*(c for *_x, c in corpus.partition_results))
        # Novel blocks the dispatched partitions must reach: covered by
        # the full run, reachable from the partitions, unknown to the
        # corpus.  Blocks the split phase covers are excluded implicitly
        # (they are reached at 0 streamed paths under either policy only
        # if some partition also re-covers them — same for both).
        target = reachable_corpus & (corpus.covered - corpus_known)
        to_fifo = _paths_to_cover(fifo.partition_results, target)
        to_corpus = _paths_to_cover(corpus.partition_results, target)
        rows.append(
            SchedRow(
                program=program,
                partitions=corpus.partitions,
                corpus_known=len(corpus_known),
                target_blocks=len(target),
                paths_total=corpus.paths,
                paths_to_target_fifo=to_fifo,
                paths_to_target_corpus=to_corpus,
                imbalance=corpus.imbalance,
            )
        )
    return SchedAblationResult(workers=workers, rows=rows)


def parallel_scaling(
    scale: str = CI, programs=None, workers: int = 2, mode: str = "plain"
) -> ParallelScalingResult:
    """Sequential vs N-worker partitioned exploration on the mini-corpus.

    Each program runs twice through the same coordinator code path —
    ``workers=1`` (sequential special case) and ``workers=N`` (process
    pool).

    Two speedups are reported: the measured elapsed ratio, and the
    critical-path speedup ``seq_cpu / (split_cpu + max(worker_cpu))``
    computed from the per-participant CPU-time ledger.  The latter is
    what the partitioning actually achieves independent of host load and
    core count — on a single-core CI box the measured ratio degenerates
    to ~1.0 while the critical path still shows the won parallelism.
    """
    programs = programs or ["wc", "tsort", "join", "uniq"]
    arg_len = None if scale == CI else 3
    rows: list[ParRow] = []
    for program in programs:
        # Both arms start from cleared memos: forked workers would inherit
        # what the sequential arm left behind.
        clear_memos()
        seq = run_parallel(program, workers=1, arg_len=arg_len, **MODES[mode])
        clear_memos()
        par = run_parallel(program, workers=workers, arg_len=arg_len, **MODES[mode])
        coord_cpu = par.ledger[0][1].cpu_time
        worker_cpus = [entry[1].cpu_time for entry in par.ledger[1:]]
        critical = coord_cpu + (max(worker_cpus) if worker_cpus else 0.0)
        rows.append(
            ParRow(
                program=program,
                paths=par.paths,
                tests=len(par.tests.cases),
                partitions=par.partitions,
                steals=par.steals,
                t_seq=seq.wall_time,
                t_par=par.wall_time,
                speedup_measured=seq.wall_time / par.wall_time if par.wall_time else 1.0,
                speedup_critical=seq.stats.cpu_time / critical if critical else 1.0,
            )
        )
    return ParallelScalingResult(workers=workers, rows=rows)


# ---------------------------------------------------------------------------
# The registry: CLI name -> driver.  ``python -m repro.experiments`` and the
# package's exports both read this; a driver missing here is unreachable.
# ---------------------------------------------------------------------------

FIGURES = {
    "fig3": fig3_multiplicity,
    "fig4": fig4_path_ratio,
    "fig5": fig5_speedup_curve,
    "fig6": fig6_scatter,
    "fig7": fig7_alpha_sweep,
    "fig8": fig8_coverage,
    "fig9": fig9_dsm_vs_ssm,
    "parallel": parallel_scaling,
    "warm": warm_start,
    "cache": cache_report,
    "presolve": presolve_ablation,
    "sched": sched_ablation,
}

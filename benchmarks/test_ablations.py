"""Ablations of the engine's design choices: the solver chain's tiers, the
similarity relation, DSM's history depth and the QCE variant."""

from conftest import run_once

from repro.engine import Engine, EngineConfig
from repro.env import ArgvSpec
from repro.experiments import render_table
from repro.programs.registry import get_program


def _run(program, **config_kwargs):
    module = get_program(program).compile()
    spec = ArgvSpec(n_args=2, arg_len=2)
    engine = Engine(module, spec, EngineConfig(generate_tests=False, **config_kwargs))
    stats = engine.run()
    return engine, stats


def test_ablation_solver_chain(benchmark):
    """Fast path + cache carry most queries; disabling them costs dearly."""

    def run():
        rows = []
        for fastpath, cache in ((True, True), (True, False), (False, True), (False, False)):
            engine, _ = _run(
                "test",
                merging="none",
                similarity="never",
                strategy="dfs",
                solver_fastpath=fastpath,
                solver_cache=cache,
            )
            rows.append([fastpath, cache, engine.stats.queries,
                         engine.stats.sat_solver_runs,
                         engine.stats.cost_units])
        return rows

    rows = run_once(benchmark, run)
    print()
    print(render_table(["fastpath", "cache", "queries", "SAT runs", "cost"], rows,
                       title="Ablation: solver chain tiers"))
    full = next(r for r in rows if r[0] and r[1])
    bare = next(r for r in rows if not r[0] and not r[1])
    assert full[3] <= bare[3], "chain should reduce SAT-solver reachers"


def test_ablation_similarity_relations(benchmark):
    """QCE vs merge-all vs live-variable baseline vs none, merging statically."""

    def run():
        rows = []
        for sim, merging in (("never", "none"), ("always", "static"),
                             ("live", "static"), ("qce", "static")):
            engine, stats = _run("echo", merging=merging, similarity=sim,
                                 strategy="topological")
            rows.append([sim, stats.merges, stats.states_terminated,
                         engine.stats.queries, engine.stats.cost_units])
        return rows

    rows = run_once(benchmark, run)
    print()
    print(render_table(["similarity", "merges", "terminal states", "queries", "cost"],
                       rows, title="Ablation: similarity relations on echo"))
    by_sim = {r[0]: r for r in rows}
    assert by_sim["qce"][1] > 0, "QCE should find merges"
    assert by_sim["qce"][3] <= by_sim["never"][3], "QCE should not exceed plain queries"
    # live-variable merging is strictly more conservative than QCE
    assert by_sim["live"][1] <= by_sim["qce"][1]


def test_ablation_dsm_delta(benchmark):
    """History depth delta: more look-back, more merge opportunities."""

    def run():
        rows = []
        for delta in (1, 4, 8, 16):
            engine, stats = _run("cat", merging="dynamic", similarity="qce",
                                 strategy="coverage", dsm_delta=delta)
            rows.append([delta, stats.merges, stats.dsm_fastforward_picks,
                         engine.stats.queries])
        return rows

    rows = run_once(benchmark, run)
    print()
    print(render_table(["delta", "merges", "FF picks", "queries"], rows,
                       title="Ablation: DSM history depth"))
    assert rows[-1][1] >= rows[0][1], "deeper history should not lose merges"


def test_ablation_qce_full_variant(benchmark):
    """Eq. 1 (prototype QCE) vs. Eq. 7 (full variant with ite costs).

    §5.4 predicts the full variant helps where merged symbolic values make
    later queries expensive (e.g. rev) and is neutral where merging wins
    outright (link)."""
    from repro.experiments.harness import cost_of, run_cell

    def run():
        rows = []
        for program in ("rev", "link", "echo", "dirname"):
            plain = run_cell(program, "plain", max_steps=25000)
            eq1 = run_cell(program, "ssm-qce", max_steps=25000)
            eq7 = run_cell(program, "ssm-qce-full", max_steps=25000)
            rows.append([program, cost_of(plain), cost_of(eq1), cost_of(eq7)])
        return rows

    rows = run_once(benchmark, run)
    print()
    print(render_table(["tool", "plain", "QCE (Eq. 1)", "QCE-full (Eq. 7)"], rows,
                       title="Ablation: ite-cost estimation in QCE"))
    by_tool = {r[0]: r for r in rows}
    # the full variant should not hurt the headline win...
    assert by_tool["link"][3] <= by_tool["link"][1] / 5
    # ...and should not be worse than Eq. 1 on the ite-regression tool
    assert by_tool["rev"][3] <= by_tool["rev"][2]

"""The laws the ablation figures report, each enforced here.

A figure (:mod:`repro.experiments.figures`) only reports: it runs its
cells and returns rows.  Each test below calls one figure, records the
runs it makes (its own ``run_cell`` or ``run_parallel``, wrapped), and
holds the rows and the runs to the law the figure shows:

* ``presolve`` — the abstract-domain tier is neutral (the tier-on run
  explores what the bit-blast-only run explores) and saves full blasts;
* ``warm`` — a warm run explores what the cold run explored, with no
  more full blasts on the default chain and strictly fewer on the
  blast-only chain;
* ``sched`` — corpus-guided dispatch explores what FIFO dispatch
  explores, over the same partitions, and reaches the corpus-novel
  blocks in no more streamed paths.
"""

from repro.experiments import figures
from repro.experiments.harness import same_exploration


def recorded(monkeypatch, name: str) -> list:
    """The results of the figure's calls to ``figures.<name>``, in order."""
    runs = []
    run = getattr(figures, name)

    def record(*args, **kwargs):
        runs.append(run(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(figures, name, record)
    return runs


def test_presolve_tier_is_neutral_and_saves_blasts(monkeypatch):
    """On echo/cat/uniq/wc under dsm-qce and ssm-qce: each tier-on run
    explores what its bit-blast-only run explored, the tier answers a
    non-zero share of the group checks bound for the bottom tier, and the
    tier-on runs perform at least 25% fewer full blasts in all — at least
    40% fewer under dsm-qce, whose merged ite-heavy groups are where the
    tier's facts through ``ite`` and its UNSAT answers save blasts, and at
    least half as many under ssm-qce."""
    runs = recorded(monkeypatch, "run_cell")
    result = figures.presolve_ablation()
    assert len(result.rows) == 8 and len(runs) == 16
    blasts = {}  # mode -> [blasts with the tier off, with it on]
    for row, off, on in zip(result.rows, runs[::2], runs[1::2]):
        same_exploration(off, on, f"{row.program}/{row.mode}: presolve tier")
        total = blasts.setdefault(row.mode, [0, 0])
        total[0] += off.stats.sat_solver_runs
        total[1] += on.stats.sat_solver_runs
    assert result.hit_rate() > 0.0
    assert result.blast_reduction() <= 0.75, result.table()
    for mode, bound in (("dsm-qce", 0.6), ("ssm-qce", 0.5)):
        off, on = blasts[mode]
        assert on <= bound * off, (mode, result.table())


def test_warm_runs_explore_the_same_with_no_more_blasts(monkeypatch, tmp_path):
    """On wc and uniq, against one store per chain: the warm run explores
    what the cold run explored; on the default chain it performs no more
    full blasts (presolve may leave the store nothing to answer), on the
    blast-only chain strictly fewer."""
    runs = recorded(monkeypatch, "run_cell")
    result = figures.warm_start(
        programs=["wc", "uniq"], store_path=str(tmp_path / "warm.sqlite")
    )
    assert [(r.program, r.chain) for r in result.rows] == [
        ("wc", "blast-only"), ("wc", "default"),
        ("uniq", "blast-only"), ("uniq", "default"),
    ]
    for row, cold, warm in zip(result.rows, runs[::2], runs[1::2]):
        same_exploration(cold, warm, f"{row.program} ({row.chain}): warm run")
        assert row.sat_runs_warm <= row.sat_runs_cold, result.table()
        if row.chain == "blast-only":
            assert 0 < row.sat_runs_cold and row.sat_runs_warm < row.sat_runs_cold


def test_corpus_dispatch_reaches_novel_blocks_in_fewer_paths(monkeypatch, tmp_path):
    """On join, tr and head, on a store a budgeted run left partial: FIFO
    and corpus-guided dispatch balance their ledgers, run the same
    partitions, reach the same blocks and explore the same (tests,
    coverage, paths) — corpus dispatch reorders the partitions, since the
    store's corpus gives their roots unequal novelty; there are corpus-novel blocks to reach, and corpus dispatch
    reaches them all in no more streamed paths than FIFO on any program,
    and in strictly fewer in all."""
    runs = recorded(monkeypatch, "run_parallel")
    result = figures.sched_ablation(store_path=str(tmp_path / "sched.sqlite"))
    assert len(runs) == 2 * len(result.rows) == 6
    for row, fifo, corpus in zip(result.rows, runs[::2], runs[1::2]):
        assert (fifo.parallel.dispatch, corpus.parallel.dispatch) == ("fifo", "corpus")
        fifo.check_ledger()
        corpus.check_ledger()
        same_exploration(fifo, corpus, f"{row.program}: dispatch")
        assert fifo.partitions == corpus.partitions, row.program
        reached = [set().union(*(cov for *_, cov in run.partition_results))
                   for run in (fifo, corpus)]
        assert reached[0] == reached[1], row.program
        assert row.paths_to_target_corpus <= row.paths_to_target_fifo, result.table()
    assert any(row.target_blocks for row in result.rows)
    assert result.improvement() > 1.0, result.table()

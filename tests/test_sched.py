"""The unified scheduler subsystem (repro.sched).

Covers the four layers the subsystem owns:

* the :class:`Prioritizer` heap — selection equals a fresh-key argmin
  even when dynamic signals go stale (lazy rescoring), and the
  ``on_add``/``on_remove`` bookkeeping mirrors the worklist exactly;
* the strategy adapters — coverage/topological picks through the heap
  match the documented ranking, and DSM's hash bookkeeping survives
  work-stealing frontier exports without going negative;
* partition dispatch — corpus-novel roots first, FIFO degradation
  without evidence, victim choice by the dispatch score, a constant
  split fan-out;
* the store's (program, covered-block) index and the GC command it
  rides with.
"""

import dataclasses
import random
from types import SimpleNamespace

import pytest

from repro.engine import Engine, EngineConfig
from repro.engine.state import Frame, SymState
from repro.env import ArgvSpec
from repro.env.runner import run_symbolic
from repro.experiments.harness import same_exploration
from repro.lang import compile_program
from repro.parallel import Coordinator, ParallelConfig, run_parallel
from repro.parallel.coordinator import PARTITION_FACTOR
from repro.parallel.partition import Partition
from repro.programs.registry import get_program
from repro.sched import (
    CoverageFrontierSignal,
    PartitionScheduler,
    PickCountSignal,
    Prioritizer,
    TopologicalSignal,
)
from repro.search.dsm import DsmStrategy
from repro.search.strategies import (
    CoverageStrategy,
    RandomStrategy,
    TopologicalStrategy,
    topological_key,
)
from repro.stats import Stats
from test_search_dsm_incremental import check_forwarding_invariants

MAIN = "int main(int argc, char argv[][]) { %s }"


def engine_for(body, strategy="dfs", **kwargs):
    module = compile_program(MAIN % body)
    return Engine(
        module,
        ArgvSpec(n_args=1, arg_len=2),
        EngineConfig(merging="none", similarity="never", strategy=strategy,
                     generate_tests=False, **kwargs),
    )


def mk_states(blocks, func="main"):
    states = []
    for i, block in enumerate(blocks):
        s = SymState(i + 1)
        s.frames = [Frame(func, block, 0, {}, {}, None, 1)]
        states.append(s)
    return states


# ---------------------------------------------------------------------------
# Prioritizer heap laws
# ---------------------------------------------------------------------------


def test_registered_select_equals_fresh_scan():
    """The heap path must return the same argmin a fresh scan computes,
    across random add/remove interleavings with a *dynamic* signal."""
    engine = engine_for("if (argv[1][0]) putchar('a'); return 0;")
    blocks = list(engine.module.function("main").blocks)
    rng = random.Random(7)
    sched = Prioritizer((CoverageFrontierSignal(), TopologicalSignal()))
    worklist = []
    sid = 0
    for round_no in range(120):
        action = rng.random()
        if action < 0.55 or not worklist:
            sid += 1
            state = SymState(sid)
            state.frames = [Frame("main", rng.choice(blocks), 0, {}, {}, None, 1)]
            worklist.append(state)
            sched.add(state, engine)
        elif action < 0.75:
            state = worklist.pop(rng.randrange(len(worklist)))
            sched.remove(state)
        else:
            # Mutate the environment: cover a block, making stored keys
            # stale (monotonically worse — the lazy-heap lower-bound law).
            engine.coverage.touch("main", rng.choice(blocks))
        if worklist:
            picked = sched.select(worklist, engine)
            keys = [sched.key(s, engine) for s in worklist]
            assert keys[picked] == min(keys)


def test_prioritizer_bookkeeping_balances():
    engine = engine_for("return 0;")
    block = engine.module.function("main").entry
    sched = Prioritizer((TopologicalSignal(),))
    states = mk_states([block] * 5)
    for s in states:
        sched.add(s, engine)
    assert len(sched) == 5
    for s in states:
        sched.remove(s)
    assert len(sched) == 0
    assert not sched._heap  # drained worklist clears stale entries


class RecordingRng:
    """The seeded stream, remembering the tiebreak each ``add`` froze."""

    def __init__(self, seed):
        self.base = random.Random(seed)
        self.last = None

    def random(self):
        self.last = self.base.random()
        return self.last


LOCATION_CHAIN = "location-scoped"   # the coverage strategy's: one key per block
STATE_CHAIN = "state-scoped"         # a topological term: one key per state


@pytest.mark.parametrize("chain", [LOCATION_CHAIN, STATE_CHAIN])
@pytest.mark.parametrize("seed", range(6))
def test_grouped_heap_picks_the_scan_argmin(chain, seed):
    """``select`` returns the argmin of (current key, frozen tiebreak, seq)
    over the residents — the state a scan over fresh keys finds — under
    random adds, removes, re-adds under a live sid's old number, pick-count
    bumps and coverage flips."""
    engine = engine_for(
        "if (argv[1][0]) putchar('a'); if (argv[1][1]) putchar('b'); return 0;")
    blocks = list(engine.module.function("main").blocks)
    rng = random.Random(seed)
    draws = RecordingRng(seed)
    counts = __import__("collections").Counter()
    signals = [CoverageFrontierSignal(), PickCountSignal(counts)]
    if chain == STATE_CHAIN:
        signals.append(TopologicalSignal())
    sched = Prioritizer(signals, rng=draws)
    assert sched._by_location == (chain == LOCATION_CHAIN)

    worklist, frozen, retired = [], {}, []   # frozen: sid -> (tiebreak, seq)
    seq = next_sid = 0

    def add(sid):
        nonlocal seq
        state = SymState(sid)
        state.frames = [Frame("main", rng.choice(blocks), 0, {}, {}, None, 1)]
        worklist.append(state)
        sched.add(state, engine)
        seq += 1
        frozen[sid] = (draws.last, seq)

    def remove(index):
        state = worklist.pop(index)
        sched.remove(state)
        del frozen[state.sid]
        retired.append(state.sid)

    for _ in range(400):
        action = rng.random()
        if action < 0.40 or not worklist:
            next_sid += 1
            add(next_sid)
        elif action < 0.50 and retired:
            add(retired.pop(rng.randrange(len(retired))))   # same sid, new place
        elif action < 0.65:
            remove(rng.randrange(len(worklist)))
        elif action < 0.80:
            counts[("main", rng.choice(blocks))] += rng.randint(1, 3)
        elif action < 0.90:
            engine.coverage.touch("main", rng.choice(blocks))
        else:
            # What the engine does: pick the winner, bump its block, drop it.
            index = sched.select(worklist, engine)
            counts[("main", worklist[index].top.block)] += 1
            remove(index)
        if worklist:
            best = min(worklist, key=lambda s: (sched.key(s, engine), *frozen[s.sid]))
            assert worklist[sched.select(worklist, engine)] is best
        assert len(sched) == len(worklist)


@pytest.mark.parametrize("signals", [
    (CoverageFrontierSignal(),),             # every state in one of a few groups
    (TopologicalSignal(),),                  # every state its own group
])
def test_prioritizer_bookkeeping_is_bounded_by_the_residents(signals):
    """Thousands of states pass through, five at a time: nothing the
    scheduler keeps may grow with the number it has *seen*."""
    engine = engine_for("if (argv[1][0]) putchar('a'); return 0;")
    blocks = list(engine.module.function("main").blocks)
    sched = Prioritizer(signals, rng=random.Random(1))
    rng = random.Random(2)
    worklist = []
    for sid in range(1, 3001):
        state = SymState(sid)
        state.frames = [Frame("main", rng.choice(blocks), 0, {}, {}, None, 1)]
        worklist.append(state)
        sched.add(state, engine)
        if len(worklist) > 5:
            # Mostly the scheduler's own pick, sometimes a bystander (a
            # merge partner, a stolen state) from the middle of a group.
            index = sched.select(worklist, engine) if rng.random() < 0.7 else 2
            sched.remove(worklist.pop(index))
        kept = sum(
            len(value) for value in vars(sched).values()
            if isinstance(value, (dict, list, set))
        )
        assert kept <= 8 * len(worklist) + 16
        members = sum(len(group.members) for group in sched._groups.values())
        assert members <= 4 * len(worklist) + 16
    assert not hasattr(sched, "_version")


def test_select_falls_back_on_unregistered_worklist():
    """Direct strategy calls (no on_add) must still pick a valid argmin."""
    engine = engine_for("if (argv[1][0]) putchar('a'); return 0;")
    rpo = engine.module.function("main").reverse_postorder()
    states = mk_states([rpo[-1], rpo[0]])
    sched = Prioritizer((TopologicalSignal(),))
    assert sched.select(states, engine) == 1


def test_rescore_counter_reports_lazy_work():
    engine = engine_for("if (argv[1][0]) putchar('a'); return 0;")
    fn = engine.module.function("main")
    rpo = fn.reverse_postorder()
    counts = __import__("collections").Counter()
    sched = Prioritizer((CoverageFrontierSignal(), PickCountSignal(counts)))
    states = mk_states([rpo[0], rpo[-1]])
    for s in states:
        sched.add(s, engine)
    sched.select(states, engine)
    # Invalidate the stored keys: cover both blocks and bump a count.
    engine.coverage.touch("main", rpo[0])
    engine.coverage.touch("main", rpo[-1])
    counts[("main", rpo[0])] += 3
    sched.select(states, engine)
    assert sched.take_rescores() >= 1
    assert sched.take_rescores() == 0  # flushed


# ---------------------------------------------------------------------------
# Strategy adapters over the shared heap
# ---------------------------------------------------------------------------


def test_coverage_strategy_ranking_through_heap():
    engine = engine_for(
        "if (argv[1][0]) putchar('a'); return 0;", strategy="coverage"
    )
    fn = engine.module.function("main")
    rpo = fn.reverse_postorder()
    engine.coverage.touch("main", rpo[0])
    strategy = engine.strategy
    states = mk_states([rpo[0], rpo[-1]])
    for s in states:
        engine.worklist.append(s)
        strategy.on_add(s)
    # Uncovered block wins through the registered heap path.
    assert strategy.pick(engine.worklist, engine) == 1
    assert engine.stats.sched_picks == 1


def test_topological_strategy_matches_key_argmin():
    engine = engine_for("return strlen(argv[1]);", strategy="topological")
    rng = random.Random(3)
    blocks = list(engine.module.function("main").blocks)
    states = mk_states([rng.choice(blocks) for _ in range(8)])
    strategy = TopologicalStrategy()
    picked = strategy.pick(states, engine)
    keys = [topological_key(s, engine) for s in states]
    assert keys[picked] == min(keys)
    worst = strategy.steal_pick(states, engine)
    assert keys[worst] == max(keys)


def test_full_runs_unchanged_by_heap_adapters():
    """Heap-backed strategies explore the same path space as ever."""
    for name in ("coverage", "topological"):
        engine = engine_for(
            "if (argv[1][0] == 'x') putchar('y'); return 0;", strategy=name
        )
        stats = engine.run()
        assert stats.paths_completed == 2, name
        assert stats.sched_picks > 0, name


# ---------------------------------------------------------------------------
# DSM bookkeeping invariants under work stealing (satellite)
# ---------------------------------------------------------------------------


def dsm_engine(program):
    info = get_program(program)
    return Engine(
        info.compile(),
        ArgvSpec(n_args=info.default_n, arg_len=info.default_l),
        EngineConfig(merging="dynamic", similarity="qce", strategy="coverage",
                     generate_tests=False),
    )


def assert_dsm_books_consistent(strategy: DsmStrategy, worklist):
    """hash_counts == sum of own_counts, nothing negative, keys = worklist,
    and the maintained forwarding set is the one the definition yields."""
    assert set(strategy.own_counts) == {s.sid for s in worklist}
    totals = __import__("collections").Counter()
    for own in strategy.own_counts.values():
        for h, n in own.items():
            assert n > 0
            totals[h] += n
    assert dict(totals) == strategy.hash_counts
    for count in strategy.hash_counts.values():
        assert count > 0
    check_forwarding_invariants(strategy, worklist)


def test_dsm_bookkeeping_survives_frontier_export():
    engine = dsm_engine("cat")
    strategy = engine.strategy
    assert isinstance(strategy, DsmStrategy)
    engine.seed_states([engine.make_initial_state()])
    engine.explore(interrupt=lambda e: len(e.worklist) >= 6)
    assert engine.interrupted
    assert_dsm_books_consistent(strategy, engine.worklist)

    # Partial export (the work-stealing path: per-state steal_pick).
    exported = engine.export_frontier(len(engine.worklist) // 2)
    assert exported
    assert_dsm_books_consistent(strategy, engine.worklist)

    # The victim finishes its remaining frontier cleanly...
    engine.explore()
    assert not engine.worklist
    assert not strategy.hash_counts and not strategy.own_counts

    # ...and a thief engine explores the stolen states to completion with
    # its own consistent books.
    thief = dsm_engine("cat")
    thief.seed_states(
        [SymState.from_snapshot(s.snapshot(), thief._fresh_sid()) for s in exported]
    )
    assert_dsm_books_consistent(thief.strategy, thief.worklist)
    thief.explore()
    assert not thief.strategy.hash_counts and not thief.strategy.own_counts


def test_dsm_full_drain_export_clears_books():
    engine = dsm_engine("echo")
    engine.seed_states([engine.make_initial_state()])
    engine.explore(interrupt=lambda e: len(e.worklist) >= 4)
    exported = engine.export_frontier(len(engine.worklist))
    assert exported and not engine.worklist
    assert not engine.strategy.hash_counts
    assert not engine.strategy.own_counts
    assert not engine.strategy.forwarding and not engine.strategy.by_current_hash


# ---------------------------------------------------------------------------
# RandomStrategy: deterministic per partition prefix (satellite)
# ---------------------------------------------------------------------------


def test_random_strategy_reseeds_per_prefix():
    """The pick stream after seeding a partition is a pure function of
    (base seed, prefix) — independent of the strategy's prior history."""
    info = get_program("wc")
    spec = ArgvSpec(n_args=info.default_n, arg_len=info.default_l)

    def fresh():
        return Engine(info.compile(), spec,
                      EngineConfig(strategy="random", generate_tests=False))

    donor = fresh()
    donor.seed_states([donor.make_initial_state()])
    donor.explore(interrupt=lambda e: len(e.worklist) >= 3)
    snapshots = [s.snapshot() for s in donor.export_frontier(len(donor.worklist))]

    # Engine A seeds the partition directly; engine B first burns rng
    # state on an unrelated partition, then seeds the same one.
    a, b = fresh(), fresh()
    b.seed_states([SymState.from_snapshot(snapshots[1], b._fresh_sid())])
    while b.worklist:
        b._pick_next()
    a.seed_states([SymState.from_snapshot(snapshots[0], a._fresh_sid())])
    b.seed_states([SymState.from_snapshot(snapshots[0], b._fresh_sid())])
    stream_a = [a.strategy.rng.random() for _ in range(8)]
    stream_b = [b.strategy.rng.random() for _ in range(8)]
    assert stream_a == stream_b

    # Different prefixes (or base seeds) give different streams.
    c = fresh()
    c.seed_states([SymState.from_snapshot(snapshots[1], c._fresh_sid())])
    assert [c.strategy.rng.random() for _ in range(8)] != stream_a
    d = Engine(info.compile(), spec,
               EngineConfig(strategy="random", generate_tests=False, seed=9))
    d.seed_states([SymState.from_snapshot(snapshots[0], d._fresh_sid())])
    assert [d.strategy.rng.random() for _ in range(8)] != stream_a


def test_random_mode_parallel_determinism():
    """N-worker random-mode runs emit the sequential test multiset."""
    seq = run_parallel("wc", workers=1, strategy="random")
    par = run_parallel("wc", strategy="random",
                       parallel=ParallelConfig(workers=2, backend="inline"))
    par.check_ledger()
    same_exploration(seq, par, "random-mode 2-worker run")


# ---------------------------------------------------------------------------
# Partition dispatch scoring
# ---------------------------------------------------------------------------


def fake_partition(pid, func="main", block="entry0", prefix_len=3):
    return Partition(pid=pid, snapshot=b"", origin="split",
                     prefix_len=prefix_len, func=func, block=block, depth=1)


def test_corpus_novel_roots_dispatch_first():
    corpus = frozenset({("main", "entry0")})
    known = fake_partition(0, block="entry0", prefix_len=1)
    novel = fake_partition(1, block="then1", prefix_len=9)
    sched = PartitionScheduler(corpus, policy="corpus")
    assert sched.order([known, novel]) == [novel, known]


def test_empty_corpus_degrades_to_fifo():
    parts = [fake_partition(i, prefix_len=i) for i in range(5)]
    shuffled = [parts[3], parts[0], parts[4], parts[2], parts[1]]
    sched = PartitionScheduler(frozenset(), policy="corpus")
    assert [p.pid for p in sched.order(shuffled)] == [0, 1, 2, 3, 4]
    fifo = PartitionScheduler(frozenset({("main", "entry0")}), policy="fifo")
    assert [p.pid for p in fifo.order(shuffled)] == [0, 1, 2, 3, 4]


def test_pick_victim_prefers_best_scored_running_partition():
    corpus = frozenset({("main", "entry0")})
    sched = PartitionScheduler(corpus, policy="corpus")
    running = {
        0: fake_partition(0, block="entry0", prefix_len=2),   # known root
        1: fake_partition(1, block="then1", prefix_len=8),    # novel root
    }
    assert sched.pick_victim(running) == 1


def test_pick_victim_depth_breaks_novelty_ties():
    """Victim rank is the dispatch score: among equally-novel running
    partitions, steal from the shallowest prefix."""
    sched = PartitionScheduler(frozenset({("f", "g")}), policy="corpus")
    running = {
        0: fake_partition(0, block="then1", prefix_len=7),
        1: fake_partition(1, block="entry0", prefix_len=3),
        2: fake_partition(2, block="else2", prefix_len=5),
    }
    assert sched.pick_victim(running) == 1
    assert sched.pick_victim(running) == min(running, key=lambda w: sched.score(running[w]))


def test_pick_victim_ranks_by_score_then_lowest_wid():
    sched = PartitionScheduler(frozenset({("main", "else2")}), policy="corpus")
    running = {
        4: fake_partition(0, block="then1", prefix_len=3),
        2: fake_partition(1, block="entry0", prefix_len=9),
        7: fake_partition(2, block="else2", prefix_len=1),
    }
    assert sched.pick_victim(running) == 4  # novel, then shallowest
    del running[4]
    assert sched.pick_victim(running) == 2  # novel beats shallow
    # Equal scores (a test-only pid clash) fall to the lowest worker id.
    twin = {9: fake_partition(5, block="then1"), 3: fake_partition(5, block="then1")}
    assert sched.pick_victim(twin) == 3
    fifo = PartitionScheduler(frozenset(), policy="fifo")
    assert fifo.pick_victim({5: fake_partition(8), 6: fake_partition(1)}) == 6
    with pytest.raises(ValueError):
        sched.pick_victim({})


def test_paths_to_cover_empty_target_is_zero():
    from repro.experiments.figures import _paths_to_cover

    results = [(0, "split", 7, {("main", "entry0")})]
    assert _paths_to_cover(results, set()) == 0
    assert _paths_to_cover(results, {("main", "entry0")}) == 7


def test_bad_dispatch_policy_rejected():
    with pytest.raises(ValueError):
        PartitionScheduler(frozenset(), policy="bogus")


def test_stolen_partition_metadata_round_trip():
    state = mk_states(["entry0"])[0]
    row = dataclasses.astuple(Partition.from_state(4, state, "steal:1"))
    part = Partition(*row)
    assert (part.pid, part.origin) == (4, "steal:1")
    assert (part.func, part.block) == ("main", "entry0")
    assert part.prefix_len == len(state.pc)
    assert part.depth == 1


# ---------------------------------------------------------------------------
# Split fan-out
# ---------------------------------------------------------------------------


def test_split_stops_at_a_constant_fan_out(monkeypatch):
    """The split interrupts exploration once the frontier holds
    ``workers * PARTITION_FACTOR`` states, whatever the store recorded."""
    interrupts = []
    explore = Engine.explore

    def spy(self, interrupt=None):
        interrupts.append(interrupt)
        return explore(self, interrupt)

    monkeypatch.setattr(Engine, "explore", spy)
    run_parallel("wc", parallel=ParallelConfig(workers=3, backend="inline"))
    split = interrupts[0]  # the coordinator's split runs first
    target = 3 * PARTITION_FACTOR
    engine = SimpleNamespace(worklist=[None] * (target - 1), stats=Stats())
    assert not split(engine)
    engine.worklist.append(None)
    assert split(engine)


# ---------------------------------------------------------------------------
# Store coverage index + GC (satellite)
# ---------------------------------------------------------------------------


def test_coverage_index_matches_full_scan(tmp_path):
    from repro.store import corpus_coverage, corpus_covered_blocks, open_store

    store_path = str(tmp_path / "c.sqlite")
    run_symbolic("echo", generate_tests=True, store_path=store_path)
    store = open_store(store_path)
    indexed = store.covered_blocks("echo")
    assert indexed  # populated by put_tests
    assert indexed == corpus_coverage(store, "echo")
    assert corpus_covered_blocks(store, "echo") == frozenset(indexed)
    # Dedup re-runs must not inflate the per-block test counts.
    counts_before = dict(store.conn.execute(
        "SELECT func || '/' || block, tests FROM test_coverage WHERE program='echo'"
    ).fetchall())
    store.close()
    run_symbolic("echo", generate_tests=True, store_path=store_path)
    store = open_store(store_path)
    counts_after = dict(store.conn.execute(
        "SELECT func || '/' || block, tests FROM test_coverage WHERE program='echo'"
    ).fetchall())
    store.close()
    assert counts_after == counts_before


def test_coverage_index_backfills_old_store(tmp_path):
    from repro.store import open_store

    store_path = str(tmp_path / "old.sqlite")
    run_symbolic("echo", generate_tests=True, store_path=store_path)
    store = open_store(store_path)
    expected = store.covered_blocks("echo")
    # Simulate a pre-index store file: wipe the index table.
    store.conn.execute("DELETE FROM test_coverage")
    store.conn.commit()
    store.close()
    # The next writer open rebuilds it from the coverage blobs.
    store = open_store(store_path)
    assert store.covered_blocks("echo") == expected
    store.close()


def test_store_gc_ages_out_old_runs(tmp_path):
    from repro.store import open_store

    store_path = str(tmp_path / "gc.sqlite")
    for program in ("echo", "wc", "uniq"):
        run_symbolic(program, generate_tests=True, store_path=store_path)
    store = open_store(store_path)
    before = store.counts()
    assert before["runs"] == 3
    deleted = store.gc(keep_runs=1)
    after = store.counts()
    assert after["runs"] == 1
    assert deleted["runs"] == 2
    assert deleted["tests"] > 0
    assert after["tests"] < before["tests"]
    # Surviving rows keep working: the index reflects survivors only, and
    # every surviving test's coverage blob is still present.
    assert store.covered_blocks("uniq")
    assert store.covered_blocks("echo") == set()
    dangling = store.conn.execute(
        "SELECT COUNT(*) FROM tests t LEFT JOIN blobs b ON b.hash = t.coverage_hash"
        " WHERE t.coverage_hash IS NOT NULL AND b.hash IS NULL"
    ).fetchone()[0]
    assert dangling == 0
    # Idempotent: a second pass with the same budget deletes nothing.
    assert store.gc(keep_runs=1)["runs"] == 0
    store.close()


def test_store_gc_keeps_corpus_reproduced_by_recent_runs(tmp_path):
    """Age-out keys on last-seen provenance: a corpus row reproduced by
    the kept run must survive, even though an old run first found it."""
    from repro.store import open_store

    store_path = str(tmp_path / "fresh.sqlite")
    run_symbolic("echo", generate_tests=True, store_path=store_path)
    run_symbolic("echo", generate_tests=True, store_path=store_path)  # dedup + refresh
    store = open_store(store_path)
    before = store.counts()
    assert before["runs"] == 2 and before["tests"] > 0
    store.gc(keep_runs=1)
    after = store.counts()
    assert after["runs"] == 1
    # The whole corpus was re-confirmed by the kept (second) run.
    assert after["tests"] == before["tests"]
    assert store.covered_blocks("echo")
    store.close()


def test_store_gc_readonly_refused(tmp_path):
    from repro.store import StoreError, open_store

    store_path = str(tmp_path / "ro.sqlite")
    run_symbolic("echo", generate_tests=True, store_path=store_path)
    store = open_store(store_path, readonly=True)
    with pytest.raises(StoreError):
        store.gc()
    store.close()


def test_store_gc_cli(tmp_path, capsys):
    from repro.experiments.__main__ import main

    store_path = str(tmp_path / "cli.sqlite")
    run_symbolic("echo", generate_tests=True, store_path=store_path)
    assert main(["store-gc", "--store", store_path, "--keep-runs", "1"]) == 0
    out = capsys.readouterr().out
    assert "gc(" in out and "remaining" in out
    # A typo'd path must refuse, not create-and-"compact" an empty store.
    missing = str(tmp_path / "nope.sqlite")
    with pytest.raises(SystemExit):
        main(["store-gc", "--store", missing])
    assert not (tmp_path / "nope.sqlite").exists()


# ---------------------------------------------------------------------------
# The coordinator end-to-end under both policies
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dispatch", ["fifo", "corpus"])
def test_dispatch_policies_preserve_plain_mode_determinism(dispatch):
    seq = run_parallel("wc", workers=1)
    par = run_parallel(
        "wc", parallel=ParallelConfig(workers=2, backend="inline", dispatch=dispatch)
    )
    par.check_ledger()
    same_exploration(seq, par, f"{dispatch} dispatch")
    # Completion log covers every dispatched partition exactly once.
    assert len(par.partition_results) == par.partitions
    assert sum(r[2] for r in par.partition_results) == par.streamed_paths


def test_process_backend_with_corpus_dispatch():
    par = run_parallel("wc", workers=2)  # default dispatch: corpus
    par.check_ledger()
    assert par.parallel.dispatch == "corpus"
    assert len(par.partition_results) == par.partitions


def test_coordinator_rejects_bad_dispatch():
    info = get_program("wc")
    spec = ArgvSpec(n_args=info.default_n, arg_len=info.default_l)
    with pytest.raises(ValueError):
        Coordinator(
            "wc", spec, EngineConfig(),
            ParallelConfig(workers=2, dispatch="bogus"),
        ).run()

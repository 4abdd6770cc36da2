"""Test-corpus recording and warm-start seeding.

Recording replays each test the corpus does not hold yet on the concrete
interpreter to attach its true coverage bitmap (content-addressed, so
the many tests sharing a bitmap store it once) — which doubles as an
end-to-end check that the corpus stays replayable.  A test the corpus
already holds keeps the bitmap its first recording attached.

Warm-start seeding is the read side: a fresh engine against a populated
store pre-loads its in-memory :class:`QueryCache` with

* the corpus' concrete input models — the model-reuse tier can then prove
  many branch-SAT queries by evaluation instead of solving;
* stored UNSAT cores, decoded back into this process's interned
  expressions — the subset-UNSAT tier then kills every query containing a
  known-contradictory subset.

Both are *sound* seedings: a model proves SAT by evaluation, and an UNSAT
core is a semantic fact about the expressions themselves (variable names
like ``arg1_b0`` denote the same symbolic input byte in every run of a
program), so seeding can change which tier answers a query but never the
verdict — warm runs explore the exact same path space as cold runs.
"""

from __future__ import annotations

from ..lang.interp import replay
from .db import ReproStore, spec_fingerprint
from .tier import decode_core


def replay_coverage(module, case, max_steps: int = 2_000_000):
    """Concrete coverage of one test case; ``None`` if replay fails.

    Error-kind tests (assert/bounds) legitimately stop mid-path; the
    blocks touched before the stop are still the test's coverage.
    """
    try:
        return set(replay(module, case, max_steps).coverage)
    except Exception:
        return None


def record_tests(
    store: ReproStore,
    module,
    program: str,
    spec,
    cases,
    run_id: int | None = None,
    with_coverage: bool = True,
) -> int:
    """Write a run's generated tests into the corpus (deduplicated).

    Rows the corpus already holds are not replayed: ``put_tests`` ignores
    everything about a duplicate but its key, whose ``created_run`` it
    refreshes.  The known keys are read on the caller's connection, so
    inside the caller's transaction they cannot go stale.
    """
    spec_fp = spec_fingerprint(spec)
    known = store.test_keys(program, spec_fp)
    rows = []
    for case in cases:
        replay = with_coverage and (case.kind, case.path_id, case.line) not in known
        coverage = replay_coverage(module, case) if replay else None
        rows.append(
            (
                case.kind,
                case.path_id,
                case.line,
                case.argv,
                case.model,
                case.stdin,
                case.multiplicity,
                coverage,
            )
        )
    return store.put_tests(program, spec_fp, rows, run_id=run_id)


def seed_query_cache(
    store: ReproStore,
    cache,
    program: str,
    spec,
    max_models: int | None = None,
    max_cores: int = 256,
) -> tuple[int, int]:
    """Warm a :class:`QueryCache` from the store; returns (models, cores)."""
    spec_fp = spec_fingerprint(spec)
    limit = max_models if max_models is not None else cache.max_models
    models = store.iter_test_models(program, spec_fp, limit=limit)
    for model in models:
        cache.seed_model(model)
    cores = 0
    for payload in store.iter_cores(program, limit=max_cores):
        try:
            core = decode_core(payload)
        except Exception:
            continue  # forward-compat: skip cores this build cannot decode
        if core:
            cache.store(core, False, None)
            cores += 1
    return len(models), cores


def corpus_coverage(store: ReproStore, program: str, spec=None) -> set:
    """Union of the stored per-test coverage bitmaps for a program."""
    spec_fp = spec_fingerprint(spec) if spec is not None else None
    covered: set = set()
    for row in store.iter_tests(program, spec_fp):
        if row["coverage"]:
            covered |= row["coverage"]
    return covered


def corpus_covered_blocks(store: ReproStore, program: str) -> frozenset:
    """Blocks with any stored test evidence — the scheduler's novelty set.

    Served from the ``test_coverage`` index (one query, no blob decoding);
    stores predating the index fall back to the full corpus scan.
    """
    blocks = store.covered_blocks(program)
    if blocks is None:
        blocks = corpus_coverage(store, program)
    return frozenset(blocks)

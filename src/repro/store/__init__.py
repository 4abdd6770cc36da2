"""repro.store — persistent cross-run constraint & corpus store.

Every run of the engine used to start cold: query cache, learned clauses,
and generated tests died with the process.  This subsystem makes solver
knowledge *durable*.  One SQLite file (plus content-addressed blobs in
it) holds three kinds of cross-run state:

1. **constraint cache** — named keys (:func:`repro.expr.canon.named_key`)
   → SAT/UNSAT + the solve's model over the group's variables, one row
   per independence group the solver chain had to bit-blast; the chain
   asks for a group at the bottom of its tiers only (a branch query goes
   slice → cache → presolve → rewrite-fold → **store** → blast), where
   the alternative is a SAT solve, and records nothing but the verdict of
   that solve;
2. **test corpus** — every generated test with its coverage bitmap and
   path-prefix id, replayable, used to warm-start the next run's
   model-reuse cache tier and to answer test generation's group misses
   (the row filed under a test's own identity holds its input);
3. **run metadata** — per-run stats rows for cross-run comparisons
   (the ``warm_start`` experiment figure reads these).

Invariants (enforced across :mod:`repro.store`, the engine, and the
parallel coordinator; see also ROADMAP.md):

* **single writer** — exactly one process writes a store file, through
  one method: ``Engine.commit_to_store`` of the engine that opened it
  writable (a partitioned run's split engine applies its own and its
  workers' buffered inserts).  Workers open read-only and ship inserts
  over the wire protocol.
* **key soundness** — equal named keys mean the same constraint
  multiset (the key digests every conjunct's complete expression tree,
  variable names included), so a stored verdict answers exactly the
  query that was solved; a renamed query is a miss.  SAT models are
  additionally verified by evaluation before being trusted.
* **warm-start neutrality** — store hits and cache seedings may change
  *which tier* answers a query, never the verdict, so warm runs explore
  the same path space and emit the same (deterministically generated)
  test multiset as cold runs.
* **tier-order ledger** — with a store attached, ``store_hits +
  store_misses`` counts the groups that reached the bottom tier,
  ``store_misses`` the bottom-tier solves run, and ``store_inserts <=
  store_misses + unsat_cores``: a query presolve decides never touches
  the store, in either direction.
* **corpus answer** — a stored input stands in for a test-generation
  solve only after it was cut down to the group's variables and every
  constraint of the group evaluated true under it.  A row this build's
  deterministic generator wrote for the same path *is* the union of the
  groups' fresh models, so the emitted test is bit-for-bit the one a
  solve would give; a row from any other generator yields a verified
  input for a key the corpus would have deduplicated onto that row
  anyway (the law's same-generator scope).
"""

from .corpus import (
    ArrivalReplay,
    corpus_coverage,
    corpus_covered_blocks,
    record_tests,
    replay_coverage,
    seed_query_cache,
)
from .db import (
    ReproStore,
    StoreError,
    is_locked_error,
    open_store,
    retry_locked,
    spec_fingerprint,
)
from .tier import PersistentTier, apply_payload, decode_core

__all__ = [
    "ArrivalReplay",
    "PersistentTier",
    "ReproStore",
    "StoreError",
    "apply_payload",
    "corpus_coverage",
    "corpus_covered_blocks",
    "decode_core",
    "is_locked_error",
    "open_store",
    "retry_locked",
    "record_tests",
    "replay_coverage",
    "seed_query_cache",
    "spec_fingerprint",
]

"""SQLite backing for the persistent cross-run store.

One file holds four kinds of knowledge (see the package docstring for the
subsystem overview and invariants):

* ``constraint_cache`` — constraint-set keys
  (:func:`repro.expr.canon.named_key`) mapped to SAT/UNSAT verdicts plus
  the solve's model over the set's own variables;
* ``blobs`` — content-addressed payloads (SHA-256 of the bytes), used for
  serialized UNSAT-core expression DAGs and per-test coverage bitmaps, so
  identical payloads are stored once no matter how many rows point at them;
* ``tests`` + ``runs`` — the test corpus (every generated test with its
  coverage and path-prefix id, deduplicated across runs) and per-run
  metadata for cross-run statistics.

Every value column and blob is a :mod:`repro.codec` payload of the row
kind's schema below, and the file records the codec's
``FORMAT_VERSION``: a store of another format (every pre-codec store is
v1) is refused by name at open.  A row that does not
decode is *rejected* — read as absent — never half-used.  Rows written
before constraint keys were named keys (α-canonical keys over renamed
variables, same format version) stay in the file but can only read as
misses: a named key matches one only through a SHA-256 collision, and
even then their models, over ``c<r>.v<i>`` names, fail verification.

Concurrency model: **one writer** (the sequential engine, or the parallel
coordinator), any number of read-only connections (workers).  Readers
open with SQLite's ``mode=ro`` and never see partial schemas because the
writer creates the schema before any reader is spawned.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import time
from contextlib import contextmanager
from pathlib import Path

from .. import codec

# Row kinds: a constraint row's model, a test's argv, its
# model, and the coverage blob it points at.
MODEL = dict[str, int]
ARGV = tuple[bytes, ...]
MODEL_ITEMS = tuple[tuple[str, int], ...]
COVERAGE = tuple[tuple[str, str], ...]


def _row(blob: bytes, schema):
    """A stored value, or None for a row that does not decode (rejected)."""
    try:
        return codec.loads(blob, schema)
    except codec.DecodeError:
        return None

# How long a connection spins inside SQLite on a held write lock before
# surfacing "database is locked" (satellite of the durable-campaign work:
# checkpoint writers and late readers may briefly race).
BUSY_TIMEOUT_MS = 5000

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS constraint_cache (
    key TEXT PRIMARY KEY,
    is_sat INTEGER NOT NULL,
    model BLOB,
    created_run INTEGER
);
CREATE TABLE IF NOT EXISTS blobs (
    hash TEXT PRIMARY KEY,
    data BLOB NOT NULL
);
CREATE TABLE IF NOT EXISTS unsat_cores (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    program TEXT,
    blob_hash TEXT NOT NULL REFERENCES blobs(hash),
    size INTEGER NOT NULL,
    created_run INTEGER,
    UNIQUE(program, blob_hash)
);
CREATE TABLE IF NOT EXISTS runs (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    program TEXT NOT NULL,
    spec TEXT NOT NULL,
    mode TEXT,
    started REAL NOT NULL,
    stats_json TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS tests (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    program TEXT NOT NULL,
    spec TEXT NOT NULL,
    kind TEXT NOT NULL,
    path_id TEXT NOT NULL,
    line INTEGER,
    argv BLOB NOT NULL,
    model BLOB NOT NULL,
    stdin BLOB NOT NULL,
    multiplicity INTEGER NOT NULL,
    coverage_hash TEXT REFERENCES blobs(hash),
    created_run INTEGER,
    UNIQUE(program, spec, kind, path_id, line)
);
CREATE INDEX IF NOT EXISTS idx_tests_program_spec ON tests(program, spec);
CREATE INDEX IF NOT EXISTS idx_cores_program ON unsat_cores(program);
CREATE TABLE IF NOT EXISTS test_coverage (
    program TEXT NOT NULL,
    func TEXT NOT NULL,
    block TEXT NOT NULL,
    tests INTEGER NOT NULL DEFAULT 1,
    PRIMARY KEY (program, func, block)
);
CREATE TABLE IF NOT EXISTS checkpoints (
    campaign TEXT NOT NULL,
    epoch INTEGER NOT NULL,
    phase TEXT NOT NULL,
    created REAL NOT NULL,
    state BLOB NOT NULL,
    PRIMARY KEY (campaign, epoch)
);
CREATE TABLE IF NOT EXISTS checkpoint_blobs (
    campaign TEXT NOT NULL,
    epoch INTEGER NOT NULL,
    hash TEXT NOT NULL REFERENCES blobs(hash),
    PRIMARY KEY (campaign, epoch, hash)
);
"""


class StoreError(Exception):
    """The store file is missing, unreadable, or version-incompatible."""


def is_locked_error(exc: BaseException) -> bool:
    """True for SQLite's transient lock/busy contention errors."""
    return isinstance(exc, sqlite3.OperationalError) and any(
        marker in str(exc).lower() for marker in ("locked", "busy")
    )


def retry_locked(fn, attempts: int = 5, base_delay: float = 0.05):
    """Call ``fn()``; on ``database is locked``/``busy`` retry with
    exponential backoff (bounded — the last failure propagates).

    Only lock contention is retried: any other error, and the final
    locked error once the budget is spent, surface to the caller, who
    decides whether to degrade gracefully (the parallel coordinator
    returns results with a ``store_warning``) or raise.
    """
    for attempt in range(attempts):
        try:
            return fn()
        except sqlite3.OperationalError as exc:
            if not is_locked_error(exc) or attempt == attempts - 1:
                raise
            time.sleep(base_delay * (2**attempt))


def spec_fingerprint(spec) -> str:
    """Stable identity of a symbolic input spec (corpus rows are per-spec)."""
    concrete = ",".join(a.hex() for a in spec.concrete_args)
    return (
        f"n{spec.n_args}:l{spec.arg_len}:s{spec.stdin_len}"
        f":p{spec.prog_name.hex()}:c{concrete}"
    )


class ReproStore:
    """File-backed store; ``readonly`` connections never write.

    The writer runs in autocommit-per-batch mode: every public mutation
    commits before returning, so a crash never leaves readers behind a
    long-lived transaction.  :meth:`transaction` opts a group of
    mutations out of that — they commit (or roll back) as one unit,
    which is what campaign checkpoints and the coordinator's end-of-run
    commit use to stay crash-atomic.
    """

    def __init__(self, path: str | Path, readonly: bool = False):
        self.path = str(path)
        self.readonly = readonly
        # >0 while inside transaction(): mutations defer their commit to
        # the context exit, making the whole group atomic.
        self._txn_depth = 0
        if readonly:
            uri = f"file:{Path(self.path).as_posix()}?mode=ro"
            try:
                self.conn = sqlite3.connect(uri, uri=True)
            except sqlite3.OperationalError as exc:
                raise StoreError(f"cannot open store {self.path!r} read-only") from exc
            self.conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
        else:
            Path(self.path).parent.mkdir(parents=True, exist_ok=True)
            self.conn = sqlite3.connect(self.path)
            # WAL keeps readers (workers, a resuming coordinator peeking
            # at checkpoints) unblocked while the single writer commits;
            # the busy timeout absorbs brief lock races before the
            # retry_locked layer even sees them.
            self.conn.execute("PRAGMA journal_mode=WAL")
            self.conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
            self.conn.executescript(_SCHEMA)
            self.conn.execute(
                "INSERT OR IGNORE INTO meta(key, value) VALUES ('schema_version', ?)",
                (str(codec.FORMAT_VERSION),),
            )
            self.conn.commit()
        row = self.conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        if row is not None and row[0] != str(codec.FORMAT_VERSION):
            self.conn.close()
            era = " (a pre-codec store)" if row[0] == "1" else ""
            raise StoreError(
                f"store {self.path!r} has format v{row[0]}{era}, this build reads "
                f"v{codec.FORMAT_VERSION}"
            )
        if not readonly:
            self._backfill_coverage_index()

    def _backfill_coverage_index(self) -> None:
        """Rebuild ``test_coverage`` when it is empty while ``tests`` rows
        carry coverage blobs (after :meth:`gc`, or a wiped table): one full
        scan; a store whose index is in place costs two counts."""
        indexed = self.conn.execute("SELECT COUNT(*) FROM test_coverage").fetchone()[0]
        covered_tests = self.conn.execute(
            "SELECT COUNT(*) FROM tests WHERE coverage_hash IS NOT NULL"
        ).fetchone()[0]
        if indexed or not covered_tests:
            return
        rows = self.conn.execute(
            "SELECT t.program, b.data FROM tests t JOIN blobs b"
            " ON b.hash = t.coverage_hash"
        ).fetchall()
        counts: dict[tuple[str, str, str], int] = {}
        for program, blob in rows:
            for func, block in _row(blob, COVERAGE) or ():
                key = (program, func, block)
                counts[key] = counts.get(key, 0) + 1
        self.conn.executemany(
            "INSERT INTO test_coverage(program, func, block, tests) VALUES (?, ?, ?, ?)",
            [(p, f, b, n) for (p, f, b), n in counts.items()],
        )
        self.conn.commit()

    def _commit(self) -> None:
        """Commit unless grouped under :meth:`transaction`."""
        if self._txn_depth == 0:
            self.conn.commit()

    @contextmanager
    def transaction(self):
        """Group several public mutations into one atomic commit.

        Inside the context every mutation defers its per-batch commit;
        the context exit commits once (or rolls everything back on an
        exception), so a crash — or a retried ``database is locked`` —
        never leaves a half-applied group behind.  Checkpoint epochs and
        the coordinator's end-of-run commit rely on this: the newest
        checkpoint row in the file is always a *complete* epoch.
        """
        if self.readonly:
            raise StoreError("read-only store cannot open a write transaction")
        self._txn_depth += 1
        try:
            yield self
        except BaseException:
            self._txn_depth -= 1
            if self._txn_depth == 0:
                self.conn.rollback()
            raise
        else:
            self._txn_depth -= 1
            if self._txn_depth == 0:
                self.conn.commit()

    def close(self) -> None:
        self.conn.close()

    def __enter__(self) -> "ReproStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- constraint cache ----------------------------------------------------

    def lookup_constraint(self, key: str) -> tuple[bool, dict[str, int] | None] | None:
        row = self.conn.execute(
            "SELECT is_sat, model FROM constraint_cache WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            return None
        is_sat, model_blob = row
        if model_blob is None:
            return bool(is_sat), None
        model = _row(model_blob, MODEL)
        return None if model is None else (bool(is_sat), model)

    def put_constraints(self, rows, run_id: int | None = None) -> int:
        """Insert ``(key, is_sat, model | None)`` rows.

        First write wins (``INSERT OR IGNORE``): any two correct writers
        agree on the verdict for a key, so overwriting buys
        nothing.  Returns the number of rows actually inserted.
        """
        if self.readonly:
            raise StoreError("read-only store cannot accept constraint rows")
        before = self.conn.total_changes
        self.conn.executemany(
            "INSERT OR IGNORE INTO constraint_cache(key, is_sat, model, created_run)"
            " VALUES (?, ?, ?, ?)",
            [
                (key, int(is_sat), None if model is None else codec.dumps(model), run_id)
                for key, is_sat, model in rows
            ],
        )
        self._commit()
        return self.conn.total_changes - before

    def constraint_count(self) -> int:
        return self.conn.execute("SELECT COUNT(*) FROM constraint_cache").fetchone()[0]

    # -- content-addressed blobs ---------------------------------------------

    def put_blob(self, data: bytes) -> str:
        if self.readonly:
            raise StoreError("read-only store cannot accept blobs")
        digest = hashlib.sha256(data).hexdigest()
        self.conn.execute(
            "INSERT OR IGNORE INTO blobs(hash, data) VALUES (?, ?)", (digest, data)
        )
        return digest

    def get_blob(self, digest: str) -> bytes | None:
        row = self.conn.execute(
            "SELECT data FROM blobs WHERE hash = ?", (digest,)
        ).fetchone()
        return None if row is None else row[0]

    # -- campaign checkpoints --------------------------------------------------

    def put_checkpoint(
        self,
        campaign: str,
        epoch: int,
        phase: str,
        state: bytes,
        blob_hashes,
        keep: int,
    ) -> None:
        """Write one campaign-checkpoint epoch atomically.

        The record row, its snapshot-blob references, and the epoch GC
        (drop everything older than the newest ``keep`` epochs, then
        sweep blobs only those epochs referenced) land in **one**
        transaction — a coordinator SIGKILLed mid-write rolls the whole
        epoch back, so the newest row in the table is always a complete,
        consistent epoch.  Snapshot blobs are content-addressed in the
        shared ``blobs`` table: identical pending partitions across
        consecutive epochs are stored once.
        """
        if self.readonly:
            raise StoreError("read-only store cannot accept checkpoints")
        with self.transaction():
            self.conn.execute(
                "INSERT OR REPLACE INTO checkpoints"
                "(campaign, epoch, phase, created, state) VALUES (?, ?, ?, ?, ?)",
                (campaign, epoch, phase, time.time(), state),
            )
            self.conn.executemany(
                "INSERT OR IGNORE INTO checkpoint_blobs(campaign, epoch, hash)"
                " VALUES (?, ?, ?)",
                [(campaign, epoch, h) for h in blob_hashes],
            )
            self._gc_checkpoint_epochs(campaign, epoch - max(keep, 1))

    def iter_checkpoints(self, campaign: str) -> list[tuple[int, str, bytes]]:
        """``(epoch, phase, state)`` rows for a campaign, newest first."""
        return self.conn.execute(
            "SELECT epoch, phase, state FROM checkpoints"
            " WHERE campaign = ? ORDER BY epoch DESC",
            (campaign,),
        ).fetchall()

    def checkpoint_epochs(self, campaign: str) -> list[int]:
        return [epoch for epoch, _, _ in reversed(self.iter_checkpoints(campaign))]

    def campaign_ids(self) -> list[str]:
        """Campaigns with at least one live checkpoint (i.e. resumable)."""
        rows = self.conn.execute(
            "SELECT DISTINCT campaign FROM checkpoints ORDER BY campaign"
        ).fetchall()
        return [row[0] for row in rows]

    def delete_campaign(self, campaign: str) -> None:
        """Drop every epoch of a finished campaign and sweep its blobs."""
        if self.readonly:
            raise StoreError("read-only store cannot delete campaigns")
        with self.transaction():
            self._gc_checkpoint_epochs(campaign, None)

    def _gc_checkpoint_epochs(self, campaign: str, max_dead: int | None) -> None:
        """Drop epochs ``<= max_dead`` (all of them when ``None``) plus any
        snapshot blob no surviving row references.  Caller holds the
        transaction."""
        if max_dead is None:
            cond, params = "campaign = ?", (campaign,)
        else:
            if max_dead < 1:
                return
            cond, params = "campaign = ? AND epoch <= ?", (campaign, max_dead)
        doomed = [
            row[0]
            for row in self.conn.execute(
                f"SELECT DISTINCT hash FROM checkpoint_blobs WHERE {cond}", params
            )
        ]
        self.conn.execute(f"DELETE FROM checkpoint_blobs WHERE {cond}", params)
        self.conn.execute(f"DELETE FROM checkpoints WHERE {cond}", params)
        for digest in doomed:
            self.conn.execute(
                "DELETE FROM blobs WHERE hash = ?"
                " AND hash NOT IN (SELECT hash FROM checkpoint_blobs)"
                " AND hash NOT IN"
                "  (SELECT coverage_hash FROM tests WHERE coverage_hash IS NOT NULL)"
                " AND hash NOT IN (SELECT blob_hash FROM unsat_cores)",
                (digest,),
            )

    # -- UNSAT cores ----------------------------------------------------------

    def put_cores(self, program: str | None, payloads, run_id: int | None = None) -> int:
        """Store serialized UNSAT-core constraint sets (original names)."""
        if self.readonly:
            raise StoreError("read-only store cannot accept cores")
        inserted = 0
        for size, payload in payloads:
            digest = self.put_blob(payload)
            cur = self.conn.execute(
                "INSERT OR IGNORE INTO unsat_cores(program, blob_hash, size, created_run)"
                " VALUES (?, ?, ?, ?)",
                (program, digest, size, run_id),
            )
            inserted += cur.rowcount
            if not cur.rowcount and run_id is not None:
                # Re-derived core: refresh provenance (see put_tests).
                self.conn.execute(
                    "UPDATE unsat_cores SET created_run = ?"
                    " WHERE program IS ? AND blob_hash = ?",
                    (run_id, program, digest),
                )
        self._commit()
        return inserted

    def iter_cores(self, program: str | None, limit: int = 256) -> list[bytes]:
        """Core payloads for ``program`` (plus program-agnostic ones), oldest
        first so seeding order is reproducible."""
        rows = self.conn.execute(
            "SELECT b.data FROM unsat_cores c JOIN blobs b ON b.hash = c.blob_hash"
            " WHERE c.program = ? OR c.program IS NULL ORDER BY c.id LIMIT ?",
            (program, limit),
        ).fetchall()
        return [row[0] for row in rows]

    def core_count(self) -> int:
        return self.conn.execute("SELECT COUNT(*) FROM unsat_cores").fetchone()[0]

    # -- runs ------------------------------------------------------------------

    def record_run(self, program: str, spec: str, mode: str, stats: dict) -> int:
        """One run row: its mode and the snapshot of its merged counters."""
        if self.readonly:
            raise StoreError("read-only store cannot record runs")
        cur = self.conn.execute(
            "INSERT INTO runs(program, spec, mode, started, stats_json)"
            " VALUES (?, ?, ?, ?, ?)",
            (program, spec, mode, time.time(), json.dumps(stats)),
        )
        self._commit()
        return cur.lastrowid

    def run_rows(self, program: str | None = None) -> list[tuple]:
        if program is None:
            return self.conn.execute("SELECT * FROM runs ORDER BY id").fetchall()
        return self.conn.execute(
            "SELECT * FROM runs WHERE program = ? ORDER BY id", (program,)
        ).fetchall()

    # -- test corpus ----------------------------------------------------------

    def put_tests(
        self, program: str, spec: str, rows, run_id: int | None = None, held=frozenset()
    ) -> int:
        """Insert corpus rows; duplicates (same program/spec/kind/path/line)
        from later runs are ignored, keeping the corpus a *set* of paths.

        Each row: ``(kind, path_id, line, argv, model_items, stdin,
        multiplicity, coverage | None)`` where ``coverage`` is an iterable
        of ``(func, block)`` pairs.  ``held`` is a set of :meth:`test_keys`
        the caller read in this transaction: those rows are known
        duplicates, and are not encoded.
        """
        if self.readonly:
            raise StoreError("read-only store cannot accept tests")
        inserted = 0
        # Coverage blobs are content-addressed and few tests cover a set of
        # blocks of their own (17 bitmaps for wc's 588): each is encoded once.
        cov_hashes: dict[tuple, str] = {}
        block_counts: dict[tuple[str, str], int] = {}
        for kind, path_id, line, argv, model_items, stdin, multiplicity, coverage in rows:
            stored_line = line if line is not None else -1
            new = False
            if (kind, path_id, line) not in held:
                cov_hash = None
                if coverage is not None:
                    blocks = tuple(sorted(coverage))
                    cov_hash = cov_hashes.get(blocks)
                    if cov_hash is None:
                        cov_hash = cov_hashes[blocks] = self.put_blob(codec.dumps(blocks))
                new = self.conn.execute(
                    "INSERT OR IGNORE INTO tests(program, spec, kind, path_id, line,"
                    " argv, model, stdin, multiplicity, coverage_hash, created_run)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        program,
                        spec,
                        kind,
                        path_id,
                        stored_line,
                        codec.dumps(tuple(argv)),
                        codec.dumps(tuple(model_items)),
                        bytes(stdin),
                        multiplicity,
                        cov_hash,
                        run_id,
                    ),
                ).rowcount > 0
            if new:
                inserted += 1
                # The (program, covered-block) index counts only rows
                # actually inserted, so dedup re-runs don't inflate it.
                for block in coverage or ():
                    block_counts[block] = block_counts.get(block, 0) + 1
            elif run_id is not None:
                # Duplicate: this run *reproduced* the stored test.
                # Refresh the provenance so gc()'s age-out keys on
                # last-seen, not first-seen — a corpus row confirmed by
                # every recent run must never age out with the old run
                # that first found it.
                self.conn.execute(
                    "UPDATE tests SET created_run = ? WHERE program = ?"
                    " AND spec = ? AND kind = ? AND path_id = ? AND line = ?",
                    (run_id, program, spec, kind, path_id, stored_line),
                )
        # One upsert per block, the same sums _backfill_coverage_index
        # rebuilds from the tests rows.
        self.conn.executemany(
            "INSERT INTO test_coverage(program, func, block, tests)"
            " VALUES (?, ?, ?, ?)"
            " ON CONFLICT(program, func, block)"
            " DO UPDATE SET tests = tests + excluded.tests",
            [(program, func, block, n) for (func, block), n in block_counts.items()],
        )
        self._commit()
        return inserted

    def test_keys(self, program: str, spec: str) -> set[tuple]:
        """The ``(kind, path_id, line)`` identities the corpus holds for
        ``(program, spec)`` — what :meth:`put_tests` deduplicates on."""
        rows = self.conn.execute(
            "SELECT kind, path_id, line FROM tests WHERE program = ? AND spec = ?",
            (program, spec),
        )
        return {
            (kind, path_id, None if line == -1 else line)
            for kind, path_id, line in rows
        }

    def test_model(
        self, program: str, spec: str, kind: str, path_id: str, line: int | None
    ) -> dict[str, int] | None:
        """The stored input model of one corpus row, or ``None``."""
        row = self.conn.execute(
            "SELECT model FROM tests WHERE program = ? AND spec = ? AND kind = ?"
            " AND path_id = ? AND line = ?",
            (program, spec, kind, path_id, line if line is not None else -1),
        ).fetchone()
        items = None if row is None else _row(row[0], MODEL_ITEMS)
        return None if items is None else dict(items)

    def iter_tests(self, program: str, spec: str | None = None) -> list[dict]:
        """Corpus rows for a program (optionally one spec), oldest first;
        a row whose argv or model does not decode is left out, one whose
        coverage blob does not reads ``coverage: None``."""
        query = (
            "SELECT kind, path_id, line, argv, model, stdin, multiplicity,"
            " coverage_hash FROM tests WHERE program = ?"
        )
        params: list = [program]
        if spec is not None:
            query += " AND spec = ?"
            params.append(spec)
        query += " ORDER BY id"
        out = []
        for kind, path_id, line, argv, model, stdin, mult, cov_hash in self.conn.execute(
            query, params
        ):
            argv, model = _row(argv, ARGV), _row(model, MODEL_ITEMS)
            if argv is None or model is None:
                continue
            blob = self.get_blob(cov_hash) if cov_hash is not None else None
            coverage = _row(blob, COVERAGE) if blob is not None else None
            out.append(
                {
                    "kind": kind,
                    "path_id": path_id,
                    "line": None if line == -1 else line,
                    "argv": argv,
                    "model": dict(model),
                    "stdin": stdin,
                    "multiplicity": mult,
                    "coverage": None if coverage is None else set(coverage),
                }
            )
        return out

    def iter_test_models(
        self, program: str, spec: str, limit: int = 64
    ) -> list[dict[str, int]]:
        """Most recent corpus models (newest last) for warm-start seeding."""
        rows = self.conn.execute(
            "SELECT model FROM tests WHERE program = ? AND spec = ?"
            " ORDER BY id DESC LIMIT ?",
            (program, spec, limit),
        ).fetchall()
        models = (_row(row[0], MODEL_ITEMS) for row in reversed(rows))
        return [dict(items) for items in models if items is not None]

    def covered_blocks(self, program: str) -> set[tuple[str, str]]:
        """Blocks any stored test covers, from the (program, block) index.

        One indexed query instead of decoding every coverage blob — the
        scheduler's uncovered-prefix lookup (:mod:`repro.sched`) calls
        this at engine construction.
        """
        rows = self.conn.execute(
            "SELECT func, block FROM test_coverage WHERE program = ?",
            (program,),
        ).fetchall()
        return {(func, block) for func, block in rows}

    def test_count(self, program: str | None = None) -> int:
        if program is None:
            return self.conn.execute("SELECT COUNT(*) FROM tests").fetchone()[0]
        return self.conn.execute(
            "SELECT COUNT(*) FROM tests WHERE program = ?", (program,)
        ).fetchone()[0]

    def counts(self) -> dict[str, int]:
        """Row counts per table (diagnostics and the warm-start figure)."""
        return {
            "constraints": self.constraint_count(),
            "cores": self.core_count(),
            "tests": self.test_count(),
            "runs": self.conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0],
            "blobs": self.conn.execute("SELECT COUNT(*) FROM blobs").fetchone()[0],
            "checkpoints": self.conn.execute(
                "SELECT COUNT(*) FROM checkpoints"
            ).fetchone()[0],
        }

    # -- garbage collection ----------------------------------------------------

    def gc(self, keep_runs: int = 16) -> dict[str, int]:
        """Age out rows created by all but the newest ``keep_runs`` runs.

        A store grows monotonically; this is the ROADMAP'd compaction:
        drop run rows — and the constraint/core/test rows last confirmed
        before the cutoff — then sweep blobs nothing references anymore
        and rebuild the coverage index from the surviving tests.

        ``created_run`` means *last-seen*, not first-seen: every run
        that reproduces a corpus test or re-derives a core refreshes the
        row's provenance (:meth:`put_tests`/:meth:`put_cores`), so the
        live corpus never ages out with the old run that first found it.
        Constraint rows are the exception — a warm run that *answers*
        from the store does not rewrite the row, so constraint entries
        age out unless some recent run re-solved them; losing one only
        costs a future re-solve, never knowledge.  Rows with no
        ``created_run`` provenance (pre-store-tier inserts) are kept:
        age-out must never guess.  Returns per-table deletion counts.
        """
        if self.readonly:
            raise StoreError("read-only store cannot be garbage-collected")
        if keep_runs < 0:
            raise ValueError("keep_runs must be >= 0")
        deleted: dict[str, int] = {}
        cur = self.conn.cursor()
        for table in ("constraint_cache", "unsat_cores", "tests", "runs"):
            column = "id" if table == "runs" else "created_run"
            if keep_runs == 0:
                cur.execute(f"DELETE FROM {table} WHERE {column} IS NOT NULL")
            else:
                # Rows created by runs older than the newest keep_runs run
                # ids; with fewer recorded runs than the budget, the
                # subquery's MIN is the oldest run and nothing matches.
                cur.execute(
                    f"DELETE FROM {table} WHERE {column} <"
                    " (SELECT MIN(id) FROM"
                    "  (SELECT id FROM runs ORDER BY id DESC LIMIT ?))",
                    (keep_runs,),
                )
            deleted[table] = cur.rowcount
        cur.execute(
            "DELETE FROM blobs WHERE hash NOT IN"
            " (SELECT coverage_hash FROM tests WHERE coverage_hash IS NOT NULL)"
            " AND hash NOT IN (SELECT blob_hash FROM unsat_cores)"
            " AND hash NOT IN (SELECT hash FROM checkpoint_blobs)"
        )
        deleted["blobs"] = cur.rowcount
        if deleted.get("tests"):
            cur.execute("DELETE FROM test_coverage")
            self.conn.commit()
            self._backfill_coverage_index()
        self.conn.commit()
        return deleted


def open_store(
    path: str | Path, readonly: bool = False, missing_ok: bool = True
) -> ReproStore | None:
    """Open (creating if a writer) a store; ``None`` for absent read-only.

    Workers race the coordinator for nothing here: the writer creates the
    file + schema before any reader is spawned, so a missing file on a
    read-only open just means "no store yet" (every lookup will miss).
    """
    if readonly and not Path(path).exists():
        if missing_ok:
            return None
        raise StoreError(f"store {path!r} does not exist")
    return ReproStore(path, readonly=readonly)

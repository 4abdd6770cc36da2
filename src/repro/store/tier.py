"""The run's read view of the persistent store, and its insert buffer.

:class:`PersistentTier` answers the two questions a run would otherwise
bit-blast for, and nothing else:

* **the solver chain's bottom tier** — :meth:`SolverChain._solve_group`
  consults :meth:`lookup` for an independence group only after the cache,
  presolve and the boundary rewrite have all failed to decide it, i.e.
  exactly where the next step is a SAT solve; the solve that follows a
  miss is the only verdict :meth:`record` ever sees.  The group is keyed
  by :func:`repro.expr.canon.named_key` (which remembers per-constraint
  digests process-wide, so the tier keeps no memo of its own) and looked
  up in the cross-run store.  Hits come back as ``(is_sat, model)``, the
  stored model being the solve's model cut down to the group's own
  variables; SAT models are *verified* by evaluation before being
  trusted (a failed or absent model is a miss), UNSAT verdicts rest on
  key soundness — equal named keys mean the same constraint multiset.
* **test generation's group misses** — :meth:`test_model` hands
  :func:`repro.engine.testgen.deterministic_model` the input the corpus
  holds under the very key the test about to be built would be
  deduplicated onto; the caller verifies it by evaluation too.

Writes never happen inline.  Every tier buffers its inserts (deduplicated
by key) and the **single writer** —
:meth:`~repro.engine.executor.Engine.commit_to_store` of the one engine
that opened the store writable, handed the buffers its workers shipped
over the wire — applies them in one batch.  This keeps workers read-only
and makes the store immune to mid-run crashes.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from .. import codec
from ..expr.canon import named_key
from ..expr.evaluate import EvalError, evaluate
from ..expr.nodes import Expr
from .db import ReproStore

# An UNSAT core blob: its constraints (original names).
CORE = tuple[Expr, ...]


@dataclass
class StorePayload:
    """A tier's buffered inserts, as a worker ships them to the writer."""

    program: str | None
    # (named key, is_sat, model over the group's variables | None)
    constraints: list[tuple[str, bool, dict[str, int] | None]]
    # (core size, CORE blob)
    cores: list[tuple[int, bytes]]


class PersistentTier:
    """One run's view of one store: verified lookups + buffered inserts."""

    def __init__(
        self,
        store: ReproStore | None,
        program: str | None = None,
        spec: str | None = None,
    ):
        self.store = store
        self.program = program
        # Spec fingerprint the corpus rows of this run are filed under
        # (None: no corpus lookups).
        self.spec = spec
        self.writable = store is not None and not store.readonly
        # key -> (is_sat, model | None); insertion-ordered so
        # flushes are deterministic.
        self._pending: OrderedDict[str, tuple[bool, dict[str, int] | None]] = (
            OrderedDict()
        )
        # (size, CORE blob) of extracted UNSAT cores.
        self._pending_cores: list[tuple[int, bytes]] = []
        self.rejects = 0  # SAT hits whose model failed verification
        # Corpus identities held for (program, spec), read on first use.
        self._test_keys: set[tuple] | None = None

    # -- lookups ---------------------------------------------------------------

    def lookup(self, flat) -> tuple[bool, dict[str, int] | None] | None:
        """Cross-run verdict for a flattened constraint set, or ``None``.

        Only the durable store is consulted — never this run's pending
        buffer; within-run reuse is the in-memory cache's job, and letting
        a cold run hit its own fresh inserts would blur the cold/warm
        distinction the warm-start figures measure.
        """
        if self.store is None:
            return None
        hit = self.store.lookup_constraint(named_key(flat))
        if hit is None:
            return None
        is_sat, model = hit
        if not is_sat:
            return (False, None)
        if model is None:
            return None  # nothing to verify: not an answer
        memo: dict[int, int] = {}
        try:
            if all(evaluate(c, model, memo) for c in flat):
                return (True, model)
        except EvalError:
            pass
        self.rejects += 1
        return None

    def test_model(self, kind: str, path_id: str, line: int | None) -> dict[str, int] | None:
        """The input the corpus holds for this test identity, or ``None``.

        Unverified — the caller checks it against the constraints it is
        about to solve.  The corpus' key set is read once, on the first
        call: a store that holds nothing for this program and spec then
        costs nothing per test.
        """
        if self.store is None or self.spec is None:
            return None
        if self._test_keys is None:
            self._test_keys = self.store.test_keys(self.program, self.spec)
        if (kind, path_id, line) not in self._test_keys:
            return None
        return self.store.test_model(self.program, self.spec, kind, path_id, line)

    # -- buffered writes -------------------------------------------------------

    def record(self, flat, is_sat: bool, model: dict[str, int] | None) -> bool:
        """Buffer a verdict for the flush; True if the key is new here."""
        key = named_key(flat)
        if key in self._pending:
            return False
        if model is not None:
            names = {name for c in flat for name in c.variables}
            model = {k: v for k, v in model.items() if k in names}
        self._pending[key] = (is_sat, model)
        return True

    def record_core(self, core) -> None:
        """Buffer an UNSAT core (original names) for cross-run cache seeding."""
        core = tuple(core)
        self._pending_cores.append((len(core), codec.dumps(core)))

    def export_pending(self, drain: bool = True) -> StorePayload:
        """The insert buffer, for the writer (worker -> coordinator).

        ``drain=False`` leaves the buffer in place: campaign checkpoints
        persist the split engine's buffer without disturbing the
        eventual flush."""
        payload = StorePayload(
            self.program,
            [(key, is_sat, model) for key, (is_sat, model) in self._pending.items()],
            list(self._pending_cores),
        )
        if drain:
            self._pending.clear()
            self._pending_cores.clear()
        return payload

    def flush(self, store: ReproStore | None = None, run_id: int | None = None) -> int:
        """Apply the buffer through ``store`` (default: our own, if writable)."""
        target = store if store is not None else (self.store if self.writable else None)
        if target is None:
            self._pending.clear()
            self._pending_cores.clear()
            return 0
        return apply_payload(target, self.export_pending(), run_id)

    @property
    def pending_count(self) -> int:
        return len(self._pending)


def apply_payload(store: ReproStore, payload: StorePayload, run_id: int | None = None) -> int:
    """Single-writer application of an exported insert buffer."""
    inserted = store.put_constraints(payload.constraints, run_id=run_id)
    if payload.cores:
        store.put_cores(payload.program, payload.cores, run_id=run_id)
    return inserted


def decode_core(payload: bytes) -> list:
    """Rebuild a stored UNSAT core into this process's interned expressions
    (:class:`repro.codec.DecodeError` if the blob is not one)."""
    return list(codec.loads(payload, CORE))

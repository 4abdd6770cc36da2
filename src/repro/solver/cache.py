"""Query caching in the style of KLEE's counterexample cache.

Constraint sets are keyed by frozensets of interned-expression ids.
Three lookup tiers:

* **exact** — same constraint set seen before (SAT model or UNSAT verdict);
* **subset-UNSAT** — a previously UNSAT set that is a subset of the query
  proves the query UNSAT (adding constraints cannot restore satisfiability);
* **model reuse** — recent SAT models are cheap to *evaluate* against the
  new query; any hit proves SAT (this subsumes superset-SAT lookups).

The engine's feasibility queries are slices of a path condition
(:meth:`repro.solver.portfolio.SolverChain.check_branch`), so a stored
model binds one slice's variables only, and a query that joins two slices
would find no single model to reuse.  :meth:`QueryCache.store` therefore
folds each SAT model over the previous *composite* — the newest binding
of every variable seen so far — and it is the composite that enters the
model-reuse tier.  A composite is only ever a candidate, verified by
evaluation like any other recent model, so it cannot change a verdict;
the exact tier keeps every model as given.
"""

from __future__ import annotations

from collections import OrderedDict

from ..expr.evaluate import EvalError, evaluate
from ..expr.nodes import Expr


class QueryCache:
    """Bounded cache of solver verdicts keyed by constraint sets."""

    def __init__(self, max_entries: int = 8192, max_models: int = 64, max_unsat_sets: int = 256):
        self._exact: OrderedDict[frozenset[int], tuple[bool, dict[str, int] | None]] = (
            OrderedDict()
        )
        self._recent_models: OrderedDict[int, dict[str, int]] = OrderedDict()
        self._model_counter = 0
        # Newest stored binding of every variable (see module docstring).
        self._composite: dict[str, int] = {}
        # model id -> (evaluate()'s node memo, eids of constraints that
        # raised EvalError): path conditions grow one conjunct at a time,
        # so successive model-reuse scans evaluate almost the same DAG
        # against almost the same models.  evaluate() is pure, so the memo
        # is unobservable; it dies with its model's eviction.  Failures are
        # marked per constraint, beside the memo and never in it — a failed
        # constraint can be a child of a later one, and a node memo holds
        # values only.
        self._eval_cache: dict[int, tuple[dict[int, int], set[int]]] = {}
        self._unsat_sets: OrderedDict[frozenset[int], None] = OrderedDict()
        self.max_entries = max_entries
        self.max_models = max_models
        self.max_unsat_sets = max_unsat_sets
        self.hits_exact = 0
        self.hits_subset_unsat = 0
        self.hits_model_reuse = 0
        self.misses = 0

    @staticmethod
    def key_of(constraints: list[Expr]) -> frozenset[int]:
        return frozenset(c.eid for c in constraints)

    def lookup(self, constraints: list[Expr]) -> tuple[bool, dict[str, int] | None] | None:
        """Return a cached (is_sat, model) verdict, or None on miss."""
        key = self.key_of(constraints)
        hit = self._exact.get(key)
        if hit is not None:
            self._exact.move_to_end(key)
            self.hits_exact += 1
            return hit
        for unsat_key in self._unsat_sets:
            if unsat_key <= key:
                self.hits_subset_unsat += 1
                return (False, None)
        eval_cache = self._eval_cache
        for mid, model in reversed(self._recent_models.items()):
            entry = eval_cache.get(mid)
            if entry is None:
                entry = eval_cache[mid] = ({}, set())
            memo, failed = entry
            satisfied = True
            for c in constraints:
                val = memo.get(c.eid)
                if val is None:
                    if c.eid in failed:
                        satisfied = False
                        break
                    try:
                        val = evaluate(c, model, memo)
                    except EvalError:
                        failed.add(c.eid)
                        satisfied = False
                        break
                if not val:
                    satisfied = False
                    break
            if satisfied:
                self.hits_model_reuse += 1
                return (True, model)
        self.misses += 1
        return None

    def store(self, constraints: list[Expr], is_sat: bool, model: dict[str, int] | None) -> None:
        key = self.key_of(constraints)
        self._exact[key] = (is_sat, model)
        if len(self._exact) > self.max_entries:
            self._exact.popitem(last=False)
        if is_sat and model is not None:
            self._composite = composite = {**self._composite, **model}
            self._model_counter += 1
            self._recent_models[self._model_counter] = composite
            if len(self._recent_models) > self.max_models:
                evicted, _ = self._recent_models.popitem(last=False)
                self._eval_cache.pop(evicted, None)
        elif not is_sat:
            self._unsat_sets[key] = None
            if len(self._unsat_sets) > self.max_unsat_sets:
                self._unsat_sets.popitem(last=False)

    def seed_model(self, model: dict[str, int]) -> None:
        """Inject a known-good assignment into the model-reuse tier.

        Warm-start seeding (repro.store): corpus test inputs are full
        satisfying assignments of previously completed paths, so evaluating
        them against new queries can prove SAT without solving.  Seeding
        adds no exact entry — only lookup evidence — and therefore cannot
        change any verdict.
        """
        self._model_counter += 1
        self._recent_models[self._model_counter] = dict(model)
        if len(self._recent_models) > self.max_models:
            evicted, _ = self._recent_models.popitem(last=False)
            self._eval_cache.pop(evicted, None)

    def clear(self) -> None:
        self._exact.clear()
        self._recent_models.clear()
        self._composite = {}
        self._unsat_sets.clear()
        self._eval_cache.clear()

    @property
    def hits(self) -> int:
        return self.hits_exact + self.hits_subset_unsat + self.hits_model_reuse

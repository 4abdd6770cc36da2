"""Query cache: exact hits, subset-UNSAT, model reuse, eviction."""

from repro.expr import ops
from repro.solver.cache import QueryCache

X = ops.bv_var("cx", 8)
A = ops.ult(X, ops.bv(10, 8))
B = ops.ult(ops.bv(3, 8), X)
C = ops.eq(X, ops.bv(5, 8))


def test_exact_hit():
    cache = QueryCache()
    cache.store([A, B], True, {"cx": 5})
    assert cache.lookup([A, B]) == (True, {"cx": 5})
    assert cache.hits_exact == 1


def test_order_insensitive_keys():
    cache = QueryCache()
    cache.store([A, B], True, {"cx": 5})
    assert cache.lookup([B, A]) is not None


def test_subset_unsat_hit():
    cache = QueryCache()
    contradiction = ops.ult(X, ops.bv(2, 8))
    cache.store([A, contradiction], False, None)
    # superset of an UNSAT set is UNSAT
    verdict = cache.lookup([A, contradiction, B])
    assert verdict == (False, None)
    assert cache.hits_subset_unsat == 1


def test_model_reuse_hit():
    cache = QueryCache()
    cache.store([A, B], True, {"cx": 5})
    # different constraint set, but the cached model satisfies it
    verdict = cache.lookup([C])
    assert verdict is not None and verdict[0] is True
    assert cache.hits_model_reuse == 1


def test_miss_counted():
    cache = QueryCache()
    assert cache.lookup([A]) is None
    assert cache.misses == 1


def test_eviction_bounds():
    cache = QueryCache(max_entries=4, max_models=2, max_unsat_sets=2)
    for k in range(10):
        constraint = ops.eq(X, ops.bv(k, 8))
        cache.store([constraint], True, {"cx": k})
    assert len(cache._exact) <= 4
    assert len(cache._recent_models) <= 2


def test_clear():
    cache = QueryCache()
    cache.store([A], True, {"cx": 1})
    cache.clear()
    assert cache.lookup([A]) is None


# ---------------------------------------------------------------------------
# Property tests: randomized workloads against a brute-force ground truth.
# ---------------------------------------------------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.expr.evaluate import evaluate  # noqa: E402

PX = ops.bv_var("qcx", 4)
PY = ops.bv_var("qcy", 4)

# A small constraint pool over two 4-bit variables: every subset's verdict
# is decidable by exhaustive evaluation, giving an exact referee.
_POOL = (
    [ops.eq(PX, ops.bv(k, 4)) for k in (0, 3, 7, 12)]
    + [ops.ult(PX, ops.bv(k, 4)) for k in (2, 9, 14)]
    + [ops.ult(ops.bv(k, 4), PX) for k in (1, 6, 13)]
    + [ops.eq(PY, ops.bv(k, 4)) for k in (5, 10)]
    + [ops.ult(PY, ops.bv(k, 4)) for k in (4, 11)]
    + [ops.eq(ops.add(PX, PY), ops.bv(9, 4))]
)


def _brute_force(constraints):
    """Exact (is_sat, model) by enumerating the 16x16 value space."""
    for x in range(16):
        for y in range(16):
            model = {"qcx": x, "qcy": y}
            if all(evaluate(c, model) == 1 for c in constraints):
                return True, model
    return False, None


_subsets = st.lists(st.sampled_from(_POOL), min_size=1, max_size=4, unique=True)


@given(st.lists(st.tuples(_subsets, st.booleans()), min_size=5, max_size=30))
@settings(max_examples=40, deadline=None)
def test_property_verdicts_always_truthful(workload):
    """Under any store/lookup interleaving, no tier returns a wrong verdict.

    In particular the subset-UNSAT tier must never fire on a SAT query and
    any model handed back (exact or model-reuse) must satisfy the query.
    """
    cache = QueryCache(max_entries=8, max_models=3, max_unsat_sets=3)
    for constraints, do_store in workload:
        truth_sat, truth_model = _brute_force(constraints)
        if do_store:
            cache.store(constraints, truth_sat, truth_model)
        else:
            hit = cache.lookup(constraints)
            if hit is None:
                continue
            is_sat, model = hit
            assert is_sat == truth_sat, constraints
            if is_sat and model is not None:
                assert all(evaluate(c, model) == 1 for c in constraints)


@given(st.lists(_subsets, min_size=10, max_size=40), st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_property_model_reuse_valid_after_eviction_churn(stores, rnd):
    """Eviction churn past every bound never yields a stale-model SAT hit."""
    cache = QueryCache(max_entries=5, max_models=2, max_unsat_sets=2)
    seen: list[list] = []
    for constraints in stores:
        truth_sat, truth_model = _brute_force(constraints)
        cache.store(constraints, truth_sat, truth_model)
        seen.append(constraints)
        probe = rnd.choice(seen)
        hit = cache.lookup(probe)
        if hit is not None and hit[0] and hit[1] is not None:
            assert all(evaluate(c, hit[1]) == 1 for c in probe)


@given(st.lists(_subsets, min_size=1, max_size=60))
@settings(max_examples=40, deadline=None)
def test_property_lru_bounds_hold(stores):
    """max_entries / max_models / max_unsat_sets hold after every store."""
    cache = QueryCache(max_entries=6, max_models=2, max_unsat_sets=3)
    for constraints in stores:
        truth_sat, truth_model = _brute_force(constraints)
        cache.store(constraints, truth_sat, truth_model)
        assert len(cache._exact) <= cache.max_entries
        assert len(cache._recent_models) <= cache.max_models
        assert len(cache._unsat_sets) <= cache.max_unsat_sets


# ---------------------------------------------------------------------------
# Node-level evaluation memos are unobservable.
# ---------------------------------------------------------------------------

from repro.expr.evaluate import EvalError  # noqa: E402


class MemoFreeCache(QueryCache):
    """The oracle: the same three tiers, every model-reuse probe a fresh
    tree walk — nothing remembered between lookups."""

    def lookup(self, constraints):
        key = self.key_of(constraints)
        hit = self._exact.get(key)
        if hit is not None:
            self._exact.move_to_end(key)
            self.hits_exact += 1
            return hit
        if any(unsat_key <= key for unsat_key in self._unsat_sets):
            self.hits_subset_unsat += 1
            return (False, None)
        for model in reversed(self._recent_models.values()):
            try:
                if all(evaluate(c, model) for c in constraints):
                    self.hits_model_reuse += 1
                    return (True, model)
            except EvalError:
                continue
        self.misses += 1
        return None


# Constraints that hold other constraints as children, the way a merged
# pc's disjunction holds the branch conditions of the paths it joined.
_NESTED = _POOL + [
    ops.or_(_POOL[0], _POOL[10]),
    ops.and_(_POOL[5], ops.not_(_POOL[11])),
    ops.not_(ops.or_(_POOL[3], _POOL[13])),
    ops.eq(ops.ite(_POOL[12], PX, PY), ops.bv(5, 4)),
]
_nested_subsets = st.lists(st.sampled_from(_NESTED), min_size=1, max_size=4, unique=True)
# Seeded models may bind one variable only: constraints over the other
# raise EvalError under them, at any depth of a nested constraint.
_seed_models = st.dictionaries(
    st.sampled_from(["qcx", "qcy"]), st.integers(0, 15), min_size=1)
_cache_ops = st.one_of(
    st.tuples(st.just("store"), _nested_subsets),
    st.tuples(st.just("lookup"), _nested_subsets),
    st.tuples(st.just("seed"), _seed_models),
)


@given(st.lists(_cache_ops, min_size=5, max_size=60))
@settings(max_examples=60, deadline=None)
def test_property_node_memos_are_unobservable(workload):
    """Over any store/lookup/seed interleaving, with bounds small enough
    that models are evicted mid-stream, the memoising cache answers and
    counts exactly as the memo-free oracle — and a model's memo dies with
    its eviction."""
    bounds = dict(max_entries=6, max_models=2, max_unsat_sets=2)
    cache, oracle = QueryCache(**bounds), MemoFreeCache(**bounds)
    for op, arg in workload:
        if op == "store":
            verdict = _brute_force(arg)
            cache.store(arg, *verdict)
            oracle.store(arg, *verdict)
        elif op == "seed":
            cache.seed_model(arg)
            oracle.seed_model(arg)
        else:
            assert cache.lookup(arg) == oracle.lookup(arg)
        assert set(cache._eval_cache) <= set(cache._recent_models)
        assert len(cache._eval_cache) <= cache.max_models
    for counter in ("hits_exact", "hits_subset_unsat", "hits_model_reuse", "misses"):
        assert getattr(cache, counter) == getattr(oracle, counter)

"""The one bounded memo (``repro.memo``) and the one way to clear the
process-wide ones."""

from repro import codec, memo
from repro.engine import testgen
from repro.expr import canon
from repro.qce import qce
from repro.solver import presolve


def test_bounded_memo_forgets_its_oldest_entry():
    cache = memo.BoundedMemo(2)
    for key in "abc":
        cache.put(key, key.upper())
    assert list(cache.items()) == [("b", "B"), ("c", "C")]
    cache.put("b", "again")  # an overwrite is not an insertion
    assert list(cache) == ["b", "c"] and cache.get("a") is None
    assert not any(m is cache for m in memo._PROCESS_WIDE)  # only when asked to be


def test_clear_memos_reaches_every_process_wide_memo():
    shared = [testgen._GROUP_MEMO, presolve._REWRITE_MEMO, canon._named_cache,
              canon._named_node_cache, codec._node_memo,
              codec._record_memo, qce._ANALYSIS_CACHE]
    assert all(any(m is s for m in memo._PROCESS_WIDE) for s in shared)
    for m in shared:
        m.put(("probe",), None)
    memo.clear_memos()
    assert not any(shared)

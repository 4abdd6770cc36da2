"""Hypothesis properties for ``named_key``, the one cross-process key of a
constraint set (a test's ``path_id``, the corpus and the store's
constraint rows all use it).

* **cross-process rebuilds** — the same constraint templates constructed
  over the same names in another interpreter, with another hash seed and
  another interning order (what a second run of the same program does),
  give the same key, for the full operator set including commutative
  operators whose operand order the smart constructors choose;
* constraint-list shuffles never change the key;
* distinct constraint multisets get distinct keys, renamings included,
  and the key leads with the set's constraint/variable/node counts;
* ground conjuncts count like any other;
* the per-constraint and per-node memos behind the key never show;
* a store row filed under the key answers with the model it was given,
  cut down to the set's own variables.
"""

import inspect
import itertools
import os
import subprocess
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import codec
from repro.expr import canon as canon_module
from repro.expr import ops
from repro.expr.canon import _constraint_digest, _multiset_digest, named_key
from repro.memo import clear_memos
from repro.store import PersistentTier, ReproStore

# -- template AST: instantiable with arbitrary variable names ----------------

_ALL_BV_OPS = ["add", "sub", "bvand", "bvor"]
_ALL_CMPS = ["ult", "sle", "eq"]

_name_batch = itertools.count()


def _fresh_names(k: int = 4) -> list[str]:
    batch = next(_name_batch)
    return [f"cn{batch}_{i}" for i in range(k)]


def _bv_template(op_names):
    leaf = st.one_of(
        st.tuples(st.just("var"), st.integers(0, 3)),
        st.tuples(st.just("const"), st.integers(0, 255)),
    )
    return st.recursive(
        leaf,
        lambda ch: st.tuples(st.sampled_from(op_names), ch, ch),
        max_leaves=5,
    )


def _set_template(bv_ops, cmps):
    constraint = st.tuples(st.sampled_from(cmps), _bv_template(bv_ops), _bv_template(bv_ops))
    return st.lists(constraint, min_size=1, max_size=4)


def _build_bv(tmpl, names):
    tag = tmpl[0]
    if tag == "var":
        return ops.bv_var(names[tmpl[1]], 8)
    if tag == "const":
        return ops.bv(tmpl[1], 8)
    return getattr(ops, tag)(_build_bv(tmpl[1], names), _build_bv(tmpl[2], names))


def _instantiate(template, names):
    return [
        getattr(ops, cmp)(_build_bv(a, names), _build_bv(b, names))
        for cmp, a, b in template
    ]


def _counts(key: str) -> tuple[int, int, int]:
    """The ``(constraints, variables, nodes)`` counts leading a key."""
    n_cons, n_vars, n_nodes, _ = key.split(":", 3)
    return int(n_cons), int(n_vars), int(n_nodes)


# -- a second process -----------------------------------------------------------

# Reads ``(template, names)`` lines, builds each with the builders above
# after interning the names in reverse order, and answers its named key.
_REBUILDER = "\n".join([
    "import ast, sys",
    "from repro.expr import ops",
    "from repro.expr.canon import named_key",
    inspect.getsource(_build_bv),
    inspect.getsource(_instantiate),
    "for line in sys.stdin:",
    "    template, names = ast.literal_eval(line)",
    "    for name in reversed(names):",
    "        ops.bv_var(name, 8)",
    "    print(named_key(_instantiate(template, names)), flush=True)",
])


@pytest.fixture(scope="module")
def rebuilder():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="4321")
    child = subprocess.Popen(
        [sys.executable, "-c", _REBUILDER], env=env, text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
    )

    def key_of(template, names) -> str:
        child.stdin.write(repr((template, names)) + "\n")
        child.stdin.flush()
        return child.stdout.readline().strip()

    yield key_of
    child.stdin.close()
    child.wait(timeout=30)
    child.stdout.close()


# -- properties ---------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(template=_set_template(_ALL_BV_OPS, _ALL_CMPS))
@example(
    template=[('eq',
               ('add', ('var', 0), ('add', ('var', 2), ('var', 0))),
               ('add', ('var', 0), ('var', 1)))],
)
def test_cross_process_rebuild_same_key(rebuilder, template):
    """Same names, another process — the warm-start situation."""
    names = _fresh_names()
    key = named_key(_instantiate(template, names))
    assert rebuilder(template, names) == key


@settings(max_examples=60, deadline=None)
@given(template=_set_template(_ALL_BV_OPS, _ALL_CMPS), data=st.data())
def test_shuffle_invariance(template, data):
    constraints = _instantiate(template, _fresh_names())
    shuffled = data.draw(st.permutations(constraints))
    assert named_key(constraints) == named_key(list(shuffled))


@settings(max_examples=60, deadline=None)
@given(
    t1=_set_template(_ALL_BV_OPS, _ALL_CMPS),
    t2=_set_template(_ALL_BV_OPS, _ALL_CMPS),
)
def test_structural_prefix_separates_nonequivalent(t1, t2):
    """Distinct constraint multisets get distinct keys.  Interning makes
    equal structure one node, so the sets are distinct exactly when their
    sorted eids differ; the key leads with the set's counts."""
    names = _fresh_names()
    s1, s2 = _instantiate(t1, names), _instantiate(t2, names)
    k1, k2 = named_key(s1), named_key(s2)
    assert (k1 == k2) == (sorted(c.eid for c in s1) == sorted(c.eid for c in s2))
    n_vars = len({name for c in s1 for name in c.variables})
    assert _counts(k1)[:2] == (len(s1), n_vars)


def _unmemoised_named_key(cons) -> str:
    """``named_key`` with every per-constraint digest recomputed."""
    digest, n_nodes = _multiset_digest([_constraint_digest(c) for c in cons])
    n_vars = len({name for c in cons for name in c.variables})
    return f"{len(cons)}:{n_vars}:{n_nodes}:{digest}"


@settings(max_examples=60, deadline=None)
@given(template=_set_template(_ALL_BV_OPS, _ALL_CMPS), data=st.data())
def test_named_key_memo_is_unobservable(template, data):
    """The per-constraint memo behind ``named_key`` never shows: cold,
    warm, permuted and cleared lookups all give the unmemoised digest,
    and the key tells α-equivalent sets over different variables apart."""
    constraints = _instantiate(template, _fresh_names())
    reference = _unmemoised_named_key(constraints)
    clear_memos()
    assert named_key(constraints) == reference  # all misses
    shuffled = list(data.draw(st.permutations(constraints)))
    assert named_key(shuffled) == reference  # all hits, another order
    clear_memos()
    assert named_key(shuffled) == reference
    renamed = _instantiate(template, _fresh_names())
    if any(c.variables for c in constraints):
        assert named_key(renamed) != reference
        assert named_key(renamed) == _unmemoised_named_key(renamed)


def test_named_key_hashes_each_shared_node_once():
    """Constraints over one merged DAG find its node digests in the
    process-wide node memo, and a memo too small to hold a single
    constraint still gives the unmemoised key (node counts included)."""
    x, y = ops.bv_var("canon_nx", 8), ops.bv_var("canon_ny", 8)
    shared = ops.ite(ops.ult(x, y), ops.add(x, y), ops.mul(x, ops.bv(3, 8)))
    cons = [ops.ult(shared, ops.bv(k, 8)) for k in range(1, 5)]
    reference = _unmemoised_named_key(cons)
    clear_memos()
    hashed = []
    real_h = canon_module._h
    with mock.patch.object(canon_module, "_h", lambda *parts: hashed.append(parts) or real_h(*parts)):
        assert named_key(cons) == reference
    distinct = set()
    stack = list(cons)
    while stack:
        node = stack.pop()
        if node.eid not in distinct:
            distinct.add(node.eid)
            stack.extend(node.children)
    assert len(hashed) == len(distinct)
    assert set(canon_module._named_node_cache) == distinct
    node_memo = canon_module._named_node_cache
    bound = node_memo.bound
    try:
        node_memo.bound = 1
        clear_memos()
        assert named_key(cons) == reference
        assert len(node_memo) == 1
    finally:
        node_memo.bound = bound
        clear_memos()


def test_key_is_deterministic_and_distinct():
    x, y = ops.bv_var("canon_dx", 8), ops.bv_var("canon_dy", 8)
    s = [ops.ult(x, ops.bv(5, 8)), ops.eq(y, ops.bv(3, 8))]
    assert named_key(s) == named_key(s)
    assert named_key(s) != named_key(s[:1])
    assert named_key(s) != named_key(s + s[:1])  # a multiset, not a set
    assert _counts(named_key(s))[:2] == (2, 2)


def test_symmetric_cycle_shuffle_and_rename():
    """A fully symmetric set keeps its key under any shuffle and gets
    another under a renaming."""
    x, y, z = (ops.bv_var(f"canon_c{i}", 8) for i in range(3))
    a, b, c = (ops.bv_var(f"canon_r{i}", 8) for i in range(3))
    cycle = [ops.ult(x, y), ops.ult(y, z), ops.ult(z, x)]
    shuffled = [ops.ult(y, z), ops.ult(z, x), ops.ult(x, y)]
    renamed = [ops.ult(b, c), ops.ult(c, a), ops.ult(a, b)]
    assert named_key(cycle) == named_key(shuffled)
    assert named_key(cycle) != named_key(renamed)


def test_ground_conjuncts_and_single_constraint_roundtrip():
    x = ops.bv_var("canon_gx", 8)
    c = ops.ult(x, ops.bv(5, 8))
    single = named_key([c])
    assert _counts(single)[:2] == (1, 1)
    # A constraint decoded from its stored bytes keys like the original.
    assert named_key([codec.loads(codec.dumps(c))]) == single

    # A ground conjunct is a conjunct like any other.
    grounded = named_key([ops.TRUE, c, ops.TRUE])
    assert _counts(grounded)[:2] == (3, 1)
    assert grounded != single
    assert grounded == named_key([c, ops.TRUE, ops.TRUE])
    assert named_key([ops.TRUE]) != named_key([ops.FALSE])


def test_equal_key_components_carry_their_own_values():
    """Two groups of one shape over different variables, with *different*
    satisfying values: each is its own store row and answers with its own
    values, never the other's."""
    x, y = (ops.bv_var(f"canon_tw{i}", 8) for i in range(2))
    window = lambda v: [ops.ult(ops.bv(3, 8), v), ops.ult(v, ops.bv(10, 8))]
    assert named_key(window(x)) != named_key(window(y))
    with tempfile.TemporaryDirectory() as tmp:
        store = ReproStore(os.path.join(tmp, "s.sqlite"))
        tier = PersistentTier(store)
        assert tier.record(window(x), True, {x.name: 4, y.name: 9})
        assert tier.record(window(y), True, {x.name: 4, y.name: 9})
        assert tier.flush() == 2
        assert tier.lookup(window(x)) == (True, {x.name: 4})
        assert tier.lookup(list(reversed(window(y)))) == (True, {y.name: 9})
        store.close()


@settings(max_examples=30, deadline=None)
@given(template=_set_template(_ALL_BV_OPS, _ALL_CMPS), data=st.data())
def test_model_fragment_roundtrip(template, data):
    """A SAT row round-trips through the store under its named key with
    the model cut down to the set's own variables: strangers are dropped,
    not smuggled through, and the hit is the dict that went in."""
    names = _fresh_names()
    constraints = _instantiate(template, names)
    set_vars = sorted({name for c in constraints for name in c.variables})
    model = {name: data.draw(st.integers(0, 255), label=name) for name in names}
    model["not_in_set_xyz"] = 1
    tier = PersistentTier(None)
    assert tier.record(constraints, True, model)
    ((key, is_sat, stored),) = tier.export_pending().constraints
    assert (key, is_sat) == (named_key(constraints), True)
    assert stored == {name: model[name] for name in set_vars}
    with tempfile.TemporaryDirectory() as tmp:
        store = ReproStore(os.path.join(tmp, "s.sqlite"))
        store.put_constraints([(key, is_sat, stored)])
        assert store.lookup_constraint(key) == (True, stored)
        store.close()

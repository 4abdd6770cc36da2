"""Hypothesis round-trip properties for α-canonical constraint keys.

Two α-equivalence regimes are tested, mirroring how the persistent store
is actually used:

* **cross-process rebuilds** — the same constraint templates constructed
  in the same order over fresh variable names (what a second run of the
  same program does).  Keys must match for the *full* operator set,
  including commutative operators whose operand order depends on
  interning order.
* **arbitrary renamings** — any variable permutation, any interning
  order, restricted to non-commutative operators (whose structure is
  interning-order independent).  Keys must still match.

Plus: constraint-list shuffles never change the key, non-equivalent sets
differ in (at least) the structural prefix, and model fragments survive
the rename round trip.

The key of a set is composed from the keys of its independence
components (memoised per component); the composition laws at the end
pin what that must not change.
"""

import itertools
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.expr import canon as canon_module
from repro.expr import ops
from repro.expr.canon import (
    _constraint_digest,
    _multiset_digest,
    canonical_key,
    canonicalize,
    named_key,
    structural_prefix,
)
from repro.expr.evaluate import evaluate
from repro.memo import clear_memos

# -- template AST: instantiable with arbitrary variable names ----------------

_ALL_BV_OPS = ["add", "sub", "bvand", "bvor"]
_PURE_BV_OPS = ["sub"]  # no operand reordering in the smart constructor
_ALL_CMPS = ["ult", "sle", "eq"]
_PURE_CMPS = ["ult", "sle"]

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


# -- properties ---------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(template=_set_template(_ALL_BV_OPS, _ALL_CMPS))
# Regressions: WL refinement used to leave var 1 and var 2 tied (their
# parent adds have identical colored digests), so the canonical order fell
# to the name-dependent commutative operand orientation and the key
# flickered across rebuilds.  Fixed by the top-down context pass
# (repro.expr.canon._context_sigs).
@example(
    template=[('eq',
               ('add', ('var', 0), ('add', ('var', 2), ('var', 0))),
               ('add', ('var', 0), ('var', 1)))],
)
@example(
    template=[('ult', ('var', 0), ('var', 0)),
              ('eq',
               ('add', ('var', 0), ('var', 1)),
               ('add', ('var', 0), ('add', ('var', 2), ('var', 0))))],
)
def test_cross_process_rebuild_same_key(template):
    """Fresh names, same construction order — the warm-start situation."""
    first = _instantiate(template, _fresh_names())
    second = _instantiate(template, _fresh_names())
    c1, c2 = canonicalize(first), canonicalize(second)
    assert c1.key == c2.key


@settings(max_examples=60, deadline=None)
@given(
    template=_set_template(_PURE_BV_OPS, _PURE_CMPS),
    perm=st.permutations(list(range(4))),
    intern_order=st.permutations(list(range(4))),
)
def test_alpha_renaming_same_key(template, perm, intern_order):
    """Arbitrary variable permutation and interning order (non-commutative
    operators, whose DAG shape cannot depend on interning history)."""
    first = _instantiate(template, _fresh_names())
    renamed = _fresh_names()
    for i in intern_order:  # adversarial interning order for the new names
        ops.bv_var(renamed[i], 8)
    second = _instantiate(template, [renamed[perm[i]] for i in range(4)])
    assert canonicalize(first).key == canonicalize(second).key


@settings(max_examples=60, deadline=None)
@given(template=_set_template(_ALL_BV_OPS, _ALL_CMPS), data=st.data())
def test_shuffle_invariance(template, data):
    constraints = _instantiate(template, _fresh_names())
    shuffled = data.draw(st.permutations(constraints))
    assert canonical_key(constraints) == canonical_key(list(shuffled))


@settings(max_examples=60, deadline=None)
@given(
    t1=_set_template(_ALL_BV_OPS, _ALL_CMPS),
    t2=_set_template(_ALL_BV_OPS, _ALL_CMPS),
)
def test_structural_prefix_separates_nonequivalent(t1, t2):
    """Sets that differ in constraint/variable/node counts cannot collide:
    the counts *are* the leading key components."""
    k1 = canonical_key(_instantiate(t1, _fresh_names()))
    k2 = canonical_key(_instantiate(t2, _fresh_names()))
    if structural_prefix(k1) != structural_prefix(k2):
        assert k1 != k2
    assert k1.startswith(":".join(str(p) for p in structural_prefix(k1)) + ":")


@settings(max_examples=60, deadline=None)
@given(template=_set_template(_ALL_BV_OPS, _ALL_CMPS), data=st.data())
def test_model_fragment_roundtrip(template, data):
    constraints = _instantiate(template, _fresh_names())
    canon = canonicalize(constraints)
    set_vars = sorted(canon.rename)
    model = {
        name: data.draw(st.integers(0, 255), label=name) for name in set_vars
    }
    canonical_model = canon.to_canonical(model)
    assert sorted(canonical_model) == sorted(canon.rename[v] for v in set_vars)
    assert canon.from_canonical(canonical_model) == model
    # Strangers are dropped, not smuggled through.
    assert canon.to_canonical({"not_in_set_xyz": 1}) == {}


def _unmemoised_named_key(cons) -> str:
    """``named_key`` with every per-constraint digest recomputed."""
    digest, n_nodes = _multiset_digest(
        [_constraint_digest(c, lambda node: node.name) for c in cons]
    )
    n_vars = len({name for c in cons for name in c.variables})
    return f"{len(cons)}:{n_vars}:{n_nodes}:{digest}"


@settings(max_examples=60, deadline=None)
@given(template=_set_template(_ALL_BV_OPS, _ALL_CMPS), data=st.data())
def test_named_key_memo_is_unobservable(template, data):
    """The per-constraint memo behind ``named_key`` (the ``path_id`` of
    every generated test) never shows: cold, warm, permuted and cleared
    lookups all give the unmemoised digest, and the key still tells
    α-equivalent sets over different variables apart."""
    constraints = _instantiate(template, _fresh_names())
    reference = _unmemoised_named_key(constraints)
    clear_memos()
    assert named_key(constraints) == reference  # all misses
    shuffled = list(data.draw(st.permutations(constraints)))
    assert named_key(shuffled) == reference  # all hits, another order
    clear_memos()
    assert named_key(shuffled) == reference
    renamed = _instantiate(template, _fresh_names())
    assert canonical_key(renamed) == canonical_key(constraints)
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
    assert canonical_key(s) == canonical_key(s)
    assert canonical_key(s) != canonical_key(s[:1])
    assert structural_prefix(canonical_key(s))[0] == 2


def test_symmetric_cycle_shuffle_and_rename():
    """Fully symmetric sets (every WL tie unresolved) still canonicalize."""
    x, y, z = (ops.bv_var(f"canon_c{i}", 8) for i in range(3))
    a, b, c = (ops.bv_var(f"canon_r{i}", 8) for i in range(3))
    cycle = [ops.ult(x, y), ops.ult(y, z), ops.ult(z, x)]
    shuffled = [ops.ult(y, z), ops.ult(z, x), ops.ult(x, y)]
    renamed = [ops.ult(b, c), ops.ult(c, a), ops.ult(a, b)]
    assert canonical_key(cycle) == canonical_key(shuffled)
    assert canonical_key(cycle) == canonical_key(renamed)


# -- composition laws: the key is built per independence component -----------

_byte_values = st.lists(st.integers(0, 255), min_size=4, max_size=4)


def _satisfied_instance(template, names, values):
    """The template over ``names`` with every conjunct that ``values``
    falsifies negated: satisfied by ``values`` by construction, and two
    instances with equal ``values`` are α-equivalent rebuilds."""
    model = dict(zip(names, values))
    return [
        c if evaluate(c, model) else ops.not_(c)
        for c in _instantiate(template, names)
    ], model


@settings(max_examples=60, deadline=None)
@given(
    t1=_set_template(_ALL_BV_OPS, _ALL_CMPS),
    t2=_set_template(_ALL_BV_OPS, _ALL_CMPS),
    data=st.data(),
)
def test_union_key_is_composed_per_part(t1, t2, data):
    """Two variable-disjoint parts: rebuilding and shuffling each part on
    its own, interleaving them, and handing the names of one α-equivalent
    part to the other all leave the key of the union alone."""
    shuffled = lambda cons: list(data.draw(st.permutations(cons)))
    union = _instantiate(t1, _fresh_names()) + _instantiate(t2, _fresh_names())
    rebuilt = shuffled(
        shuffled(_instantiate(t2, _fresh_names()))
        + shuffled(_instantiate(t1, _fresh_names()))
    )
    assert canonical_key(rebuilt) == canonical_key(union)

    # Twins: two α-equivalent parts side by side.  Which twin comes first
    # in the list, and which got the earlier names, cannot matter.
    twins = (
        _instantiate(t1, _fresh_names())
        + _instantiate(t1, _fresh_names())
        + _instantiate(t2, _fresh_names())
    )
    early, late = _fresh_names(), _fresh_names()
    swapped = (
        _instantiate(t2, _fresh_names())
        + _instantiate(t1, late)
        + _instantiate(t1, early)
    )
    assert canonical_key(swapped) == canonical_key(twins)
    assert structural_prefix(canonical_key(twins))[0] == len(twins)


@settings(max_examples=60, deadline=None)
@given(
    t1=_set_template(_ALL_BV_OPS, _ALL_CMPS),
    t2=_set_template(_ALL_BV_OPS, _ALL_CMPS),
    v1=_byte_values,
    v2=_byte_values,
    v3=_byte_values,
    data=st.data(),
)
def test_model_crosses_to_alpha_equivalent_rebuild(t1, t2, v1, v2, v3, data):
    """What the store does with a SAT row: a model of A, written in A's
    canonical names, read back through the renaming of a rebuild B,
    satisfies B — twins (two parts of one template) included."""
    parts_a, model_a = [], {}
    parts_b = []
    for template, values in ((t1, v1), (t1, v2), (t2, v3)):
        cons, model = _satisfied_instance(template, _fresh_names(), values)
        parts_a += cons
        model_a.update(model)
        parts_b.append(_satisfied_instance(template, _fresh_names(), values)[0])
    set_b = list(data.draw(st.permutations(sum(reversed(parts_b), []))))
    canon_a, canon_b = canonicalize(parts_a), canonicalize(set_b)
    assert canon_a.key == canon_b.key
    model_b = canon_b.from_canonical(canon_a.to_canonical(model_a))
    assert sorted(model_b) == sorted(canon_b.rename)
    assert all(evaluate(c, model_b) for c in set_b)


def test_equal_key_components_carry_their_own_values():
    """Two components with one key and *different* satisfying values: the
    model must reach a rebuild component-wise, never mixed or doubled."""
    x, y, z, w = (ops.bv_var(f"canon_tw{i}", 8) for i in range(4))
    window = lambda v, lo, hi: [ops.ult(ops.bv(lo, 8), v), ops.ult(v, ops.bv(hi, 8))]
    between = lambda p, q: [ops.ult(p, q)]
    set_a = window(x, 3, 10) + window(y, 3, 10) + between(z, w)
    assert canonical_key(window(x, 3, 10)) == canonical_key(window(y, 3, 10))
    p, q, r, t = (ops.bv_var(f"canon_tx{i}", 8) for i in range(4))
    set_b = between(t, r) + window(q, 3, 10) + window(p, 3, 10)
    canon_a, canon_b = canonicalize(set_a), canonicalize(set_b)
    assert canon_a.key == canon_b.key
    model_a = {x.name: 4, y.name: 9, z.name: 1, w.name: 200}
    model_b = canon_b.from_canonical(canon_a.to_canonical(model_a))
    assert sorted(model_b[v.name] for v in (p, q)) == [4, 9]
    assert (model_b[t.name], model_b[r.name]) == (1, 200)
    assert all(evaluate(c, model_b) for c in set_b)


@settings(max_examples=60, deadline=None)
@given(
    t1=_set_template(_ALL_BV_OPS, _ALL_CMPS),
    t2=_set_template(_ALL_BV_OPS, _ALL_CMPS),
)
def test_component_memo_is_unobservable(t1, t2):
    """Cold, warm, evicting (bound 1) and cleared memo: one key, one
    renaming."""
    constraints = _instantiate(t1, _fresh_names()) + _instantiate(t2, _fresh_names())
    clear_memos()
    results = [canonicalize(constraints), canonicalize(constraints)]
    with mock.patch.object(canon_module._component_cache, "bound", 1):
        clear_memos()
        results += [canonicalize(constraints), canonicalize(constraints)]
        assert len(canon_module._component_cache) <= 1
    clear_memos()
    results.append(canonicalize(constraints))
    assert len({r.key for r in results}) == 1
    assert all(r.rename == results[0].rename for r in results)


def test_ground_conjuncts_and_single_constraint_roundtrip():
    x = ops.bv_var("canon_gx", 8)
    c = ops.ult(x, ops.bv(5, 8))
    single = canonicalize([c])
    assert structural_prefix(single.key)[:2] == (1, 1)
    assert single.from_canonical(single.to_canonical({x.name: 3})) == {x.name: 3}

    # A ground conjunct is a component of its own with nothing to rename.
    grounded = canonicalize([ops.TRUE, c, ops.TRUE])
    assert structural_prefix(grounded.key)[:2] == (3, 1)
    assert grounded.key != single.key
    assert grounded.key == canonical_key([c, ops.TRUE, ops.TRUE])
    assert sorted(grounded.rename) == [x.name]
    assert grounded.from_canonical(grounded.to_canonical({x.name: 3})) == {x.name: 3}
    assert canonical_key([ops.TRUE]) != canonical_key([ops.FALSE])
    assert canonicalize([ops.TRUE]).rename == {}

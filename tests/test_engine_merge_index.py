"""The merge-candidate index answers what the bucket scan answered.

``Engine._try_merge`` used to ask ``mergeable`` about every resident at the
newcomer's location; it now asks only the residents filed under the
newcomer's ``merge_key`` plus the wild ones (key None).  Three laws pin
that down, for all five similarity relations:

* after *any* interleaving of adds, merges, picks, steals and drains the
  index files exactly the worklist, every resident under the key its
  relation computes for it now, and ``_merge_candidates`` filtered by
  ``mergeable`` is the sequence the linear scan (kept here as the oracle)
  yields — same states, same order;
* the ``merge_key`` law: two residents at one location whose keys are both
  not None have equal keys iff they are ``mergeable``, in either order;
* a whole run through the index picks, merges and emits what a run whose
  engine scans every bucket does.
"""

from collections import Counter

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.engine import Engine, EngineConfig
from repro.engine.merge import merge_states
from repro.engine.similarity import (
    LiveVarSimilarity,
    MergeAlways,
    MergeNever,
    QceFullSimilarity,
    QceSimilarity,
)
from repro.engine.state import ArrayBinding, Frame, Region, SymState
from repro.env import ArgvSpec, runner
from repro.env.runner import run_symbolic
from repro.expr import ops
from repro.lang import compile_program
from repro.search.strategies import Strategy

MODULE = compile_program("int main(int argc, char argv[][]) { return 0; }")
SPEC = ArgvSpec(n_args=1, arg_len=1)

ARR = (1, "main", "arr")
TAB = (0, "global", "g$tab")


def scan_candidates(engine, loc):
    """The oracle: every resident at ``loc``, oldest first (the bucket scan)."""
    return [c for c in engine.worklist if c.loc_key() == loc]


# ---------------------------------------------------------------------------
# A QCE whose hot sets the test chooses
# ---------------------------------------------------------------------------

# Per (func, block): the hot names.  ``x``/``y``/``p`` are frame scalars,
# ``g$n`` a global scalar, ``arr`` a local array (``q`` is the callee's view
# of it), ``g$tab`` a global array reached without a binding, ``ghost`` a
# name no frame can see.  ``z`` and ``g$m`` are never hot.
HOT = {
    ("main", "b0"): {"x", "g$n", "arr"},
    ("main", "b1"): {"x", "y", "g$tab"},
    ("f", "c0"): {"p", "q", "g$n"},
    ("f", "c1"): {"p", "ghost"},
}
LIVE = {"main": frozenset({"x", "y"}), "f": frozenset({"p"})}
QADD = {"x": 3.0, "y": 0.2, "z": 0.2, "p": 3.0, "arr": 0.2, "q": 0.2, "g$n": 3.0, "g$m": 0.2}


class FakeParams:
    alpha = 0.5


class FakeQce:
    params = FakeParams()

    def qt_local(self, func, block):
        return 1.0

    def hot_variables(self, func, block, qt_global):
        return frozenset(HOT[(func, block)])

    def qadd_local(self, func, block, var):
        return QADD.get(var, 0.0)


def make_relation(kind):
    if kind == "never":
        return MergeNever()
    if kind == "always":
        return MergeAlways()
    if kind == "qce":
        return QceSimilarity(FakeQce())
    if kind == "qce-full":
        return QceFullSimilarity(FakeQce())
    return LiveVarSimilarity(lambda state: [LIVE[f.func] for f in state.frames])


# ---------------------------------------------------------------------------
# Generated states
# ---------------------------------------------------------------------------

S0, S1 = ops.bv_var("s0", 32), ops.bv_var("s1", 32)
WORDS = [ops.bv(0, 32), ops.bv(1, 32), ops.bv(2, 32), S0, ops.add(S1, ops.bv(1, 32))]
BYTES = [ops.bv(0, 8), ops.bv(7, 8), ops.bv_var("c0", 8)]
# Shared region objects, so ``r1 is r2`` happens, beside equal-but-distinct
# ones built per state.
POOL = [Region((BYTES[0], BYTES[1]), None, 8), Region((BYTES[1], BYTES[2]), None, 8)]

word = st.sampled_from(WORDS)
maybe_word = st.one_of(st.none(), word)
region = st.one_of(
    st.sampled_from(POOL),
    st.tuples(st.sampled_from(BYTES), st.sampled_from(BYTES)).map(
        lambda cells: Region(cells, None, 8)
    ),
)
FIELDS = {
    "block": st.sampled_from(["b0", "b1"]),
    "callee": st.sampled_from([None, None, "c0", "c1"]),
    "x": maybe_word,
    "y": maybe_word,
    "z": maybe_word,
    "p": word,
    "n": word,
    "m": word,
    "arr": region,
    "tab": region,
    "out": st.integers(0, 1),
    "bound": st.integers(1, 3),
}
# Everything hot concrete and present: the state every run starts from.
PLAIN = {"block": "b0", "callee": None, "x": WORDS[0], "y": WORDS[0], "z": None,
         "p": WORDS[0], "n": WORDS[0], "m": WORDS[0], "arr": POOL[0], "tab": POOL[0],
         "out": 0, "bound": 1}


@st.composite
def shapes(draw, seen):
    """A state description a field or two away from one already drawn, so
    residents share locations, keys and all-but-one hot value as a rule."""
    d = dict(draw(st.sampled_from(seen)))
    for name in draw(st.lists(st.sampled_from(sorted(FIELDS)), max_size=2)):
        d[name] = draw(FIELDS[name])
    seen.append(d)
    return d


def furnish(state: SymState, d) -> SymState:
    """(Re)build everything but ``sid``/``history`` from a drawn description."""
    store = {name: d[name] for name in ("x", "y", "z") if d[name] is not None}
    caller_idx = 0 if d["callee"] is None else 1
    state.frames = [Frame("main", d["block"], caller_idx, store, {"arr": ArrayBinding(ARR)}, None, 1)]
    if d["callee"] is not None:
        state.frames.append(
            Frame("f", d["callee"], 0, {"p": d["p"]}, {"q": ArrayBinding(ARR)}, "r", 2)
        )
    state.globals_store = {"g$n": d["n"], "g$m": d["m"]}
    state.regions = {ARR: d["arr"], TAB: d["tab"]}
    state.output = (BYTES[0],) * d["out"]
    state.pc = (ops.ult(S0, ops.bv(d["bound"], 32)),)
    return state


class Scripted(Strategy):
    """pickNext and the steal victim are whatever the test drew."""

    index = 0

    def pick(self, worklist, engine):
        return self.index

    def steal_pick(self, worklist, engine):
        return min(self.index, len(worklist) - 1)


# ---------------------------------------------------------------------------
# (a) any interleaving of worklist changes
# ---------------------------------------------------------------------------


class MergeIndex(RuleBasedStateMachine):
    kind = "qce"

    @initialize(merging=st.sampled_from(["static", "dynamic"]))
    def make_engine(self, merging):
        engine = Engine(
            MODULE, SPEC,
            EngineConfig(merging=merging, similarity="never", strategy="dfs",
                         generate_tests=False),
        )
        engine.similarity = make_relation(self.kind)
        engine.strategy = Scripted()
        engine._merge_live_oracle = lambda frame_index, state: None  # every scalar live
        self.engine = engine
        self.seen = [PLAIN]

    def shape(self, data):
        return data.draw(shapes(self.seen))

    # -- what the two lookups say ------------------------------------------------

    def lookups(self, new: SymState):
        engine, sim = self.engine, self.engine.similarity
        context = sim.location_context(new)
        loc = new.loc_key()
        scanned = [c for c in scan_candidates(engine, loc) if sim.mergeable(new, c, context)]
        key = sim.merge_key(new, context)
        indexed = [
            c for c in engine._merge_candidates(loc, key) if sim.mergeable(new, c, context)
        ]
        assert indexed == scanned  # SymState equality is identity
        return scanned

    def add_expecting(self, new: SymState):
        """``_add_state(try_merge=True)`` merges with the scan's first partner."""
        engine = self.engine
        partner = next(
            (c for c in self.lookups(new) if merge_states(new, c, 0) is not None), None
        )
        merges = engine.stats.merges
        multiplicity = new.multiplicity + (partner.multiplicity if partner else 0)
        engine._add_state(new, try_merge=True)
        if partner is None:
            assert engine.worklist[-1] is new and engine.stats.merges == merges
        else:
            assert engine.stats.merges == merges + 1
            assert partner not in engine.worklist and new not in engine.worklist
            assert engine.worklist[-1].multiplicity == multiplicity

    # -- rules -------------------------------------------------------------------

    @rule(data=st.data())
    def seed(self, data):
        """A seed or restored partition root: enters without a merge attempt."""
        state = furnish(SymState(self.engine._fresh_sid()), self.shape(data))
        self.engine.seed_states([state])

    @rule(data=st.data())
    def arrive(self, data):
        """A successor that just moved here: may merge into a resident."""
        self.add_expecting(furnish(SymState(self.engine._fresh_sid()), self.shape(data)))

    @precondition(lambda self: self.engine.worklist)
    @rule(data=st.data())
    def step_and_readd(self, data):
        """A picked state changes *off* the worklist and comes back under its sid."""
        engine = self.engine
        engine.strategy.index = data.draw(st.integers(0, len(engine.worklist) - 1))
        self.add_expecting(furnish(engine._pick_next(), self.shape(data)))

    @precondition(lambda self: self.engine.worklist)
    @rule(data=st.data())
    def pick_and_drop(self, data):
        engine = self.engine
        engine.strategy.index = data.draw(st.integers(0, len(engine.worklist) - 1))
        engine._pick_next()

    @precondition(lambda self: self.engine.worklist)
    @rule(data=st.data())
    def steal_export(self, data):
        """``export_frontier``'s work-stealing path (per-state ``steal_pick``)."""
        engine = self.engine
        engine.strategy.index = data.draw(st.integers(0, len(engine.worklist) - 1))
        count = data.draw(st.integers(1, len(engine.worklist) - 1)) if len(engine.worklist) > 1 else 0
        exported = engine.export_frontier(count)
        assert len(exported) == count
        assert not any(s in engine.worklist for s in exported)

    @rule()
    def full_drain(self):
        engine = self.engine
        engine.export_frontier(len(engine.worklist))
        assert not engine.worklist and not engine._loc_index and not engine._loc_of

    @rule(data=st.data())
    def lookup(self, data):
        self.lookups(furnish(SymState(0), self.shape(data)))

    # -- invariants --------------------------------------------------------------

    def residents(self):
        """Per location: (filed key, state) of everything the index holds."""
        engine = self.engine
        for loc, bucket in engine._loc_index.items():
            assert bucket
            here = []
            for key, filed in bucket.items():
                assert filed
                for seq, state in filed.items():
                    assert engine._loc_of[state.sid] == (loc, key, seq)
                    assert state.loc_key() == loc
                    here.append((seq, key, state))
            yield sorted(here, key=lambda entry: entry[0])

    @invariant()
    def index_files_exactly_the_worklist_in_its_order(self):
        engine = self.engine
        filed = sorted(
            (entry for here in self.residents() for entry in here), key=lambda entry: entry[0]
        )
        assert [state for _, _, state in filed] == engine.worklist
        assert len(engine._loc_of) == len(engine.worklist)

    @invariant()
    def filed_keys_are_current_and_lawful(self):
        sim = self.engine.similarity
        for here in self.residents():
            context = sim.location_context(here[0][2])
            for _, key, state in here:
                assert sim.merge_key(state, context) == key
            for _, ka, a in here:
                for _, kb, b in here:
                    if a is not b and ka is not None and kb is not None:
                        assert (ka == kb) == sim.mergeable(a, b, context)


def machine_for(kind):
    case = type(f"MergeIndex_{kind}", (MergeIndex,), {"kind": kind}).TestCase
    case.settings = settings(max_examples=100, stateful_step_count=40, deadline=None)
    return case


test_index_equals_scan_never = machine_for("never")
test_index_equals_scan_always = machine_for("always")
test_index_equals_scan_qce = machine_for("qce")
test_index_equals_scan_qce_full = machine_for("qce-full")
test_index_equals_scan_live = machine_for("live")


def test_state_hash_leaves_its_walk_for_the_next_merge_key_only():
    """The walk ``state_hash`` shares is consumed by the one ``merge_key``
    that follows it on the same state; nothing else ever sees it."""
    sim = make_relation("qce")
    a, b = furnish(SymState(1), PLAIN), furnish(SymState(2), {**PLAIN, "x": WORDS[2]})
    fresh_a, fresh_b = sim.merge_key(a), sim.merge_key(b)
    assert fresh_a is not None and fresh_a != fresh_b
    sim.state_hash(a)
    assert sim.merge_key(b) == fresh_b          # another state: walked afresh
    assert sim.merge_key(a) == fresh_a          # the shared walk
    furnish(a, {**PLAIN, "x": S0})              # a moves on...
    assert sim.merge_key(a) is None             # ...and is walked afresh (now wild)


# ---------------------------------------------------------------------------
# (b) whole runs: the index vs an engine that scans every bucket
# ---------------------------------------------------------------------------

PICKS: list[int] = []


class RecordingEngine(Engine):
    def _pick_next(self):
        state = super()._pick_next()
        PICKS.append(state.sid)
        return state


class ScanningEngine(RecordingEngine):
    """The oracle: every resident at the location is a candidate."""

    def _merge_candidates(self, loc, key):
        return scan_candidates(self, loc)


def observed(result):
    stats = result.stats
    return {
        "picks": list(PICKS),
        "tests": Counter(
            (c.kind, c.argv, c.model, c.line, c.multiplicity, c.stdin, c.path_id)
            for c in result.tests.cases
        ),
        "covered": frozenset(result.engine.coverage.covered),
        "paths": stats.paths_completed,
        "merges": stats.merges,
        "ff_merges": stats.dsm_ff_merges,
        "queries": result.stats.queries,
    }


MODES = [
    ("dynamic", "qce", "coverage"),
    ("dynamic", "live", "coverage"),
    ("dynamic", "qce-full", "coverage"),
    ("static", "qce", "topological"),
    ("static", "always", "topological"),
]


@pytest.mark.parametrize("merging,similarity,strategy", MODES)
@pytest.mark.parametrize("program", ["echo", "cat", "wc", "uniq", "tsort"])
def test_run_equals_scanning_oracle(monkeypatch, program, merging, similarity, strategy):
    runs = []
    for engine_cls in (RecordingEngine, ScanningEngine):
        monkeypatch.setattr(runner, "Engine", engine_cls)
        PICKS.clear()
        runs.append(observed(run_symbolic(
            program, merging=merging, similarity=similarity, strategy=strategy)))
    assert runs[0]["picks"] and runs[0] == runs[1]

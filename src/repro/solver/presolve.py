"""Incremental pre-solve tier: abstract domains ahead of bit-blasting.

Cheap, *incomplete* reasoning answers a large fraction of branch-feasibility
queries outright (KLEE's constraint simplification, ESBMC's pre-SAT interval
pass).  This module is a stateful engine that maintains abstract facts
**incrementally along each path** instead of re-deriving them per query:

* **Interval domain** — unsigned ranges per variable, refined by a work-list
  fixpoint over the constraint graph: narrowing one variable re-processes
  every absorbed constraint that watches it, so facts flow through chains
  like ``{x == 3, y == x + 1}`` without ad-hoc iteration counts.
* **Known-bits domain** — (mask, value) pairs tracking bit-level facts
  through ``and/or/xor/shift/zext/sext/extract/concat`` *and through ite*,
  so the ite-heavy expressions state merging produces stay analyzable.
* **Boolean facts** — truth values for boolean variables and derived
  refutation of compound conditions.

A :class:`PresolveEnv` is sound by construction: facts are derived only from
the constraints it has absorbed, SAT answers are always *verified by
evaluation* against the original constraints, and UNSAT answers follow from
over-approximating transfer functions.  ``unknown`` falls through to the
bit-blaster, so the tier can only change *which tier answers*, never the
verdict (the fastpath neutrality law; see tests/test_solver_presolve.py).

:class:`PresolveManager` keys environments per independence-group signature
(the same key the incremental chain uses for persistent blasters) and keeps
a short LRU of per-prefix snapshots, so a growing path condition extends the
previous environment instead of rebuilding it — and the sibling
``pc ∧ ¬cond`` branch query still finds the shared ``pc`` snapshot.

The module also hosts the **solver-boundary structural simplifier**
(:func:`simplify_group`): union-find style equality/constant propagation
substitutes defined variables into the remaining constraints before
bit-blasting, with a process-wide memo.  Rewriting stays strictly at the
solver boundary — caches, stores, ``path_id``s and named keys all see
the original constraint set — and is model-preserving because every binding
is re-emitted as a defining equality.
"""

from __future__ import annotations

from collections import OrderedDict, deque

from ..expr import nodes as N
from ..expr import ops
from ..expr.evaluate import EvalError, evaluate
from ..expr.nodes import Expr
from ..expr.subst import substitute
from ..memo import BoundedMemo

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"


class _Empty(Exception):
    """Internal: an abstract value (or the whole env) became empty."""


# ---------------------------------------------------------------------------
# Abstract facts: one fused (lo, hi, mask, val) tuple per expression.
#
# ``(lo, hi)`` is a sound unsigned interval; ``(mask, val)`` are known bits
# (mask = bits whose value is known, val = those values; val & ~mask == 0).
# ``_reduce`` exchanges information between the two domains (a lightweight
# reduced product): known bits bound the interval, and an interval upper
# bound pins the high bits to zero.
# ---------------------------------------------------------------------------


def _reduce(lo: int, hi: int, mask: int, val: int, wmask: int) -> tuple[int, int, int, int]:
    kb_lo = val
    kb_hi = val | (wmask & ~mask)
    lo = max(lo, kb_lo)
    hi = min(hi, kb_hi)
    if lo > hi:
        raise _Empty
    # High bits above hi's bit length are provably zero.
    high_zero = wmask & ~((1 << hi.bit_length()) - 1)
    mask |= high_zero
    val &= ~high_zero
    if lo == hi:
        mask, val = wmask, lo
    return lo, hi, mask, val


def _merge_bits(mask_a: int, val_a: int, mask_b: int, val_b: int) -> tuple[int, int]:
    """Union of two known-bits facts about the *same* value."""
    if (val_a ^ val_b) & mask_a & mask_b:
        raise _Empty
    mask = mask_a | mask_b
    return mask, (val_a | val_b) & mask


def _trailing_known(mask: int) -> int:
    """Number of contiguous known low bits."""
    count = 0
    while mask & 1:
        count += 1
        mask >>= 1
    return count


def _trailing_zeros_known(mask: int, val: int) -> int:
    """Number of contiguous low bits *known to be zero*."""
    count = 0
    while (mask & 1) and not (val & 1):
        count += 1
        mask >>= 1
        val >>= 1
    return count


_FULL = None  # sentinel for "no fact cached yet"

# Widest variable over which ``PresolveEnv.absorb`` runs to its fixpoint.
_SMALL_WIDTH = 8


class PresolveEnv:
    """Abstract facts derived from an absorbed set of constraints.

    Monotone: absorbing more constraints only narrows facts, so an
    environment built for a path prefix remains sound for any superset
    query — the manager's snapshot reuse depends on exactly this.
    """

    __slots__ = (
        "ranges",
        "bits",
        "bools",
        "vars",
        "watch",
        "absorbed",
        "infeasible",
        "_changed",
        "_memo",
        "_gen",
        "_pop_gen",
        "batch_rounds",
    )

    def __init__(self) -> None:
        self.ranges: dict[str, tuple[int, int]] = {}
        self.bits: dict[str, tuple[int, int]] = {}
        self.bools: dict[str, bool] = {}
        self.vars: dict[str, Expr] = {}
        self.watch: dict[str, list[Expr]] = {}
        self.absorbed: set[int] = set()
        self.infeasible = False
        self._changed: set[str] = set()
        # Generation-tagged fact memo.  ``_gen`` counts narrow events (any
        # write to ranges/bits/bools); every memo entry records the
        # generation it was computed at.  Bitvector entries (key = eid) are
        # served when computed this pop or when no narrow intervened —
        # exactly the staleness the historical fresh-dict-per-pop memo
        # tolerated.  Boolean entries (key = ~eid) are served only when no
        # narrow intervened, because ``bool_fact`` was historically never
        # memoized and always saw the latest environment.
        self._memo: dict[int, tuple[int, object]] = {}
        self._gen = 0
        self._pop_gen = 0
        self.batch_rounds = 0

    def clone(self) -> "PresolveEnv":
        other = object.__new__(PresolveEnv)
        other.ranges = dict(self.ranges)
        other.bits = dict(self.bits)
        other.bools = dict(self.bools)
        other.vars = dict(self.vars)
        other.watch = {name: list(cs) for name, cs in self.watch.items()}
        other.absorbed = set(self.absorbed)
        other.infeasible = self.infeasible
        other._changed = set()
        other._memo = dict(self._memo)
        other._gen = self._gen
        other._pop_gen = self._pop_gen
        other.batch_rounds = 0
        return other

    # -- absorption (the work-list fixpoint) --------------------------------

    def absorb(self, constraints) -> bool:
        """Fold new constraints into the environment; False = infeasible.

        Each constraint is asserted once, then re-processed whenever a
        variable it watches narrows (work-list propagation).  A pop budget
        bounds pathological ping-pong chains (``x < y, y <= x`` narrows one
        bound by one per round); hitting it loses precision, never
        soundness, but leaves facts that depend on how the constraints were
        split across calls.  While every variable is at most
        ``_SMALL_WIDTH`` bits the budget is lifted: a constraint is re-popped
        only after a strict narrowing, and such a variable narrows at most
        ``2**(w+1) + w`` times, so the work-list reaches its fixpoint and an
        env extended call by call equals one built from scratch.
        """
        if self.infeasible:
            return False
        fresh = [c for c in constraints if c.eid not in self.absorbed]
        for c in fresh:
            self.absorbed.add(c.eid)
            for name in c.variables:
                self.watch.setdefault(name, []).append(c)
                if name not in self.vars:
                    self._register_vars(c)
        queue: deque[Expr] = deque(fresh)
        queued: set[int] = {c.eid for c in fresh}
        budget = 16 + 6 * len(self.absorbed)
        if all(v.is_bool() or v.width <= _SMALL_WIDTH for v in self.vars.values()):
            budget = float("inf")
        pops = 0
        # One generation-tagged fact memo serves every work-list pop
        # (batching): entries are validated against the narrow-event
        # generation counter, so a served value is always what a fresh
        # recomputation would produce (see ``facts``).
        shared = self._memo
        try:
            while queue and pops < budget:
                c = queue.popleft()
                queued.discard(c.eid)
                pops += 1
                self._changed = set()
                self._pop_gen = self._gen
                if shared:
                    self.batch_rounds += 1
                self._assert_bool(c, True, shared)
                for name in self._changed:
                    for watcher in self.watch.get(name, ()):
                        if watcher.eid not in queued and watcher is not c:
                            queue.append(watcher)
                            queued.add(watcher.eid)
        except _Empty:
            self.infeasible = True
            return False
        return True

    def _register_vars(self, c: Expr) -> None:
        for node in c.iter_nodes():
            if node.kind == N.VAR:
                self.vars.setdefault(node.name, node)

    # -- fact readers -------------------------------------------------------

    def var_facts(self, name: str, width: int) -> tuple[int, int, int, int]:
        wmask = (1 << width) - 1
        lo, hi = self.ranges.get(name, (0, wmask))
        mask, val = self.bits.get(name, (0, 0))
        return _reduce(lo, hi, mask, val, wmask)

    def facts(self, e: Expr, memo: dict[int, tuple[int, object]]) -> tuple[int, int, int, int]:
        """Fused (lo, hi, mask, val) facts for a bitvector expression.

        Entries are generation-tagged: a hit is served when the entry was
        computed during the current work-list pop (``gen >= _pop_gen`` —
        the within-pop staleness the historical per-pop memo tolerated) or
        when no narrow event intervened since (``gen == _gen`` — the value
        a recomputation would reproduce bit-for-bit).
        """
        hit = memo.get(e.eid)
        if hit is not None:
            g = hit[0]
            if g == self._gen or g >= self._pop_gen:
                return hit[1]
        out = self._facts_inner(e, memo)
        memo[e.eid] = (self._gen, out)
        return out

    def _facts_inner(self, e: Expr, memo) -> tuple[int, int, int, int]:
        kind = e.kind
        w = e.width
        wmask = (1 << w) - 1
        if kind == N.CONST:
            v = e.value
            return (v, v, wmask, v)
        if kind == N.VAR:
            return self.var_facts(e.name, w)
        full = (0, wmask, 0, 0)
        ch = e.children

        if kind == N.ADD or kind == N.SUB or kind == N.MUL:
            alo, ahi, am, av = self.facts(ch[0], memo)
            blo, bhi, bm, bv = self.facts(ch[1], memo)
            if kind == N.ADD:
                lo, hi = alo + blo, ahi + bhi
                if hi > wmask:
                    lo, hi = 0, wmask
            elif kind == N.SUB:
                lo, hi = alo - bhi, ahi - blo
                if lo < 0:
                    lo, hi = 0, wmask
            else:  # MUL
                lo, hi = alo * blo, ahi * bhi
                if hi > wmask:
                    lo, hi = 0, wmask
            # Low bits of +/-/* depend only on low bits of the operands.
            t = min(_trailing_known(am), _trailing_known(bm))
            mask = (1 << t) - 1
            if kind == N.ADD:
                val = (av + bv) & mask
            elif kind == N.SUB:
                val = (av - bv) & mask
            else:
                val = (av * bv) & mask
                # Known trailing zeros multiply out: a ≡ 0 (mod 2^i) and
                # b ≡ 0 (mod 2^j) imply a·b ≡ 0 (mod 2^(i+j)) — this keeps
                # even-stride expressions (y * 2, index scaling) analyzable.
                tz = min(w, _trailing_zeros_known(am, av) + _trailing_zeros_known(bm, bv))
                if tz > t:
                    mask, val = _merge_bits(mask, val, (1 << tz) - 1, 0)
            return _reduce(lo, hi, mask, val, wmask)

        if kind == N.NEG:
            alo, ahi, am, av = self.facts(ch[0], memo)
            if alo > 0:
                lo, hi = (1 << w) - ahi, (1 << w) - alo
            elif ahi == 0:
                lo, hi = 0, 0
            else:
                lo, hi = 0, wmask
            t = _trailing_known(am)
            mask = (1 << t) - 1
            return _reduce(lo, hi, mask, (-av) & mask, wmask)

        if kind == N.UDIV or kind == N.UREM:
            alo, ahi, _, _ = self.facts(ch[0], memo)
            blo, bhi, _, _ = self.facts(ch[1], memo)
            if blo >= 1:
                if kind == N.UDIV:
                    return _reduce(alo // bhi, ahi // blo, 0, 0, wmask)
                return _reduce(0, min(bhi - 1, ahi), 0, 0, wmask)
            return full

        if kind == N.BVAND or kind == N.BVOR or kind == N.BVXOR:
            alo, ahi, am, av = self.facts(ch[0], memo)
            blo, bhi, bm, bv = self.facts(ch[1], memo)
            if kind == N.BVAND:
                known1 = (am & av) & (bm & bv)
                known0 = (am & ~av) | (bm & ~bv)
                lo, hi = 0, min(ahi, bhi)
            elif kind == N.BVOR:
                known1 = (am & av) | (bm & bv)
                known0 = (am & ~av) & (bm & ~bv)
                lo = max(alo, blo)
                hi = (1 << (ahi | bhi).bit_length()) - 1
            else:  # BVXOR
                known = am & bm
                known1 = (av ^ bv) & known
                known0 = known & ~known1
                lo, hi = 0, (1 << (ahi | bhi).bit_length()) - 1
            mask = (known1 | known0) & wmask
            return _reduce(lo, hi, mask, known1 & wmask, wmask)

        if kind == N.BVNOT:
            alo, ahi, am, av = self.facts(ch[0], memo)
            return _reduce(wmask - ahi, wmask - alo, am, (~av) & am & wmask, wmask)

        if kind == N.SHL or kind == N.LSHR or kind == N.ASHR:
            if not ch[1].is_const():
                return full
            k = ch[1].value
            alo, ahi, am, av = self.facts(ch[0], memo)
            if kind == N.SHL:
                if k >= w:
                    return (0, 0, wmask, 0)
                mask = ((am << k) | ((1 << k) - 1)) & wmask
                val = (av << k) & mask
                if ahi << k <= wmask:
                    return _reduce(alo << k, ahi << k, mask, val, wmask)
                return _reduce(0, wmask, mask, val, wmask)
            if kind == N.LSHR:
                if k >= w:
                    return (0, 0, wmask, 0)
                high = wmask & ~(wmask >> k)
                return _reduce(alo >> k, ahi >> k, (am >> k) | high, av >> k, wmask)
            # ASHR: only useful when the sign bit is known zero.
            sign = 1 << (w - 1)
            if (am & sign) and not (av & sign):
                k = min(k, w - 1)
                high = wmask & ~(wmask >> k)
                return _reduce(alo >> k, min(ahi, sign - 1) >> k, (am >> k) | high, av >> k, wmask)
            return full

        if kind == N.ZEXT:
            cw = ch[0].width
            lo, hi, mask, val = self.facts(ch[0], memo)
            high = wmask & ~((1 << cw) - 1)
            return _reduce(lo, hi, mask | high, val, wmask)

        if kind == N.SEXT:
            cw = ch[0].width
            sign = 1 << (cw - 1)
            lo, hi, mask, val = self.facts(ch[0], memo)
            ext = wmask & ~((1 << cw) - 1)
            if hi < sign:
                return _reduce(lo, hi, mask | ext, val, wmask)
            if lo >= sign:
                return _reduce(lo + ext, hi + ext, mask | ext, val | ext, wmask)
            return full

        if kind == N.EXTRACT:
            hi_bit, lo_bit = e.params
            clo, chi, cm, cv = self.facts(ch[0], memo)
            mask = (cm >> lo_bit) & wmask
            val = (cv >> lo_bit) & wmask
            if lo_bit == 0 and chi <= wmask:
                return _reduce(clo, chi, mask, val, wmask)
            return _reduce(0, wmask, mask, val, wmask)

        if kind == N.CONCAT:
            hlo, hhi, hm, hv = self.facts(ch[0], memo)
            llo, lhi, lm, lv = self.facts(ch[1], memo)
            lw = ch[1].width
            return _reduce(
                (hlo << lw) + llo,
                (hhi << lw) + lhi,
                (hm << lw) | lm,
                (hv << lw) | lv,
                wmask,
            )

        if kind == N.ITE:
            truth = self.bool_fact(ch[0], memo)
            if truth is not None:
                return self.facts(ch[1] if truth else ch[2], memo)
            tlo, thi, tm, tv = self.facts(ch[1], memo)
            flo, fhi, fm, fv = self.facts(ch[2], memo)
            common = tm & fm & ~(tv ^ fv)
            return _reduce(min(tlo, flo), max(thi, fhi), common, tv & common, wmask)

        return full

    def bool_fact(self, e: Expr, memo) -> bool | None:
        """Known truth value of a boolean expression, or None.

        Composite results are memoized under key ``~eid`` (disjoint from
        the bitvector keyspace) with *strict* generation validity: a hit is
        served only when no narrow event intervened since it was computed,
        so the served value is always identical to a fresh recomputation.
        """
        kind = e.kind
        if kind == N.CONST:
            return bool(e.value)
        if kind == N.VAR:
            return self.bools.get(e.name)
        key = ~e.eid
        hit = memo.get(key)
        if hit is not None and hit[0] == self._gen:
            return hit[1]
        out = self._bool_fact_inner(e, memo)
        memo[key] = (self._gen, out)
        return out

    def _bool_fact_inner(self, e: Expr, memo) -> bool | None:
        kind = e.kind
        ch = e.children
        if kind == N.NOT:
            inner = self.bool_fact(ch[0], memo)
            return None if inner is None else not inner
        if kind == N.AND or kind == N.OR:
            a = self.bool_fact(ch[0], memo)
            b = self.bool_fact(ch[1], memo)
            if kind == N.AND:
                if a is False or b is False:
                    return False
                if a is True and b is True:
                    return True
            else:
                if a is True or b is True:
                    return True
                if a is False and b is False:
                    return False
            return None
        if kind == N.XOR:
            a = self.bool_fact(ch[0], memo)
            b = self.bool_fact(ch[1], memo)
            if a is None or b is None:
                return None
            return a != b
        if kind == N.ITE:
            cond = self.bool_fact(ch[0], memo)
            if cond is not None:
                return self.bool_fact(ch[1] if cond else ch[2], memo)
            t = self.bool_fact(ch[1], memo)
            f = self.bool_fact(ch[2], memo)
            return t if t is not None and t == f else None
        if kind in (N.EQ, N.ULT, N.ULE, N.SLT, N.SLE) and ch[0].is_bv():
            alo, ahi, am, av = self.facts(ch[0], memo)
            blo, bhi, bm, bv = self.facts(ch[1], memo)
            if kind == N.EQ:
                if ahi < blo or bhi < alo:
                    return False
                if (av ^ bv) & am & bm:
                    return False
                if alo == ahi == blo == bhi:
                    return True
                return None
            if kind == N.ULT:
                if ahi < blo:
                    return True
                if alo >= bhi:
                    return False
                return None
            if kind == N.ULE:
                if ahi <= blo:
                    return True
                if alo > bhi:
                    return False
                return None
            # Signed comparisons: decidable when both intervals stay within
            # one sign half.
            w = ch[0].width
            sa = self._signed_interval(alo, ahi, w)
            sb = self._signed_interval(blo, bhi, w)
            if sa is None or sb is None:
                return None
            if kind == N.SLT:
                if sa[1] < sb[0]:
                    return True
                if sa[0] >= sb[1]:
                    return False
            else:
                if sa[1] <= sb[0]:
                    return True
                if sa[0] > sb[1]:
                    return False
            return None
        return None

    @staticmethod
    def _signed_interval(lo: int, hi: int, width: int) -> tuple[int, int] | None:
        sign = 1 << (width - 1)
        if hi < sign:
            return (lo, hi)
        if lo >= sign:
            return (lo - (1 << width), hi - (1 << width))
        return None

    # -- backward refinement ------------------------------------------------

    def _narrow_var(self, name: str, width: int, lo: int, hi: int, mask: int, val: int) -> None:
        wmask = (1 << width) - 1
        cur_lo, cur_hi = self.ranges.get(name, (0, wmask))
        cur_m, cur_v = self.bits.get(name, (0, 0))
        new_lo, new_hi = max(cur_lo, lo), min(cur_hi, hi)
        new_m, new_v = _merge_bits(cur_m, cur_v, mask, val)
        new_lo, new_hi, new_m, new_v = _reduce(new_lo, new_hi, new_m, new_v, wmask)
        if (new_lo, new_hi) != (cur_lo, cur_hi) or (new_m, new_v) != (cur_m, cur_v):
            self.ranges[name] = (new_lo, new_hi)
            self.bits[name] = (new_m, new_v)
            self._changed.add(name)
            self._gen += 1

    def _refine(self, e: Expr, lo: int, hi: int, memo) -> None:
        """Constrain a bitvector expression's value into [lo, hi]."""
        cur_lo, cur_hi, _, _ = self.facts(e, memo)
        lo, hi = max(lo, cur_lo), min(hi, cur_hi)
        if lo > hi:
            raise _Empty
        if lo == cur_lo and hi == cur_hi:
            return
        kind = e.kind
        w = e.width
        wmask = (1 << w) - 1
        ch = e.children
        if kind == N.VAR:
            self._narrow_var(e.name, w, lo, hi, 0, 0)
            return
        if kind == N.ADD:
            alo, ahi, _, _ = self.facts(ch[0], memo)
            blo, bhi, _, _ = self.facts(ch[1], memo)
            if ahi + bhi <= wmask:  # wrap-free, so bounds transfer back
                self._refine(ch[0], max(0, lo - bhi), hi - blo, memo)
                self._refine(ch[1], max(0, lo - ahi), hi - alo, memo)
            return
        if kind == N.SUB:
            alo, ahi, _, _ = self.facts(ch[0], memo)
            blo, bhi, _, _ = self.facts(ch[1], memo)
            if alo >= bhi:  # borrow-free
                self._refine(ch[0], lo + blo, min(wmask, hi + bhi), memo)
            return
        if kind == N.MUL:
            if ch[1].is_const() and ch[1].value > 0:
                c = ch[1].value
                alo, ahi, _, _ = self.facts(ch[0], memo)
                if ahi * c <= wmask:
                    self._refine(ch[0], (lo + c - 1) // c, hi // c, memo)
            return
        if kind == N.UDIV:
            if ch[1].is_const() and ch[1].value > 0:
                c = ch[1].value
                self._refine(ch[0], lo * c, min(wmask, hi * c + c - 1), memo)
            return
        if kind == N.ZEXT:
            cmask = (1 << ch[0].width) - 1
            if lo > cmask:
                raise _Empty
            self._refine(ch[0], lo, min(hi, cmask), memo)
            return
        if kind == N.SEXT:
            sign = 1 << (ch[0].width - 1)
            if hi < sign:
                self._refine(ch[0], lo, hi, memo)
            return
        if kind == N.EXTRACT:
            hi_bit, lo_bit = e.params
            if lo_bit == 0:
                clo, chi, _, _ = self.facts(ch[0], memo)
                if chi <= wmask:  # the extract is lossless here
                    self._refine(ch[0], lo, hi, memo)
            return
        if kind == N.CONCAT:
            lw = ch[1].width
            self._refine(ch[0], lo >> lw, hi >> lw, memo)
            if (lo >> lw) == (hi >> lw):  # high part pinned: bound the low part
                self._refine(ch[1], lo & ((1 << lw) - 1), hi & ((1 << lw) - 1), memo)
            return
        if kind == N.ITE:
            truth = self.bool_fact(ch[0], memo)
            if truth is not None:
                self._refine(ch[1] if truth else ch[2], lo, hi, memo)
                return
            tlo, thi, _, _ = self.facts(ch[1], memo)
            flo, fhi, _, _ = self.facts(ch[2], memo)
            # If one arm cannot produce a value in [lo, hi], the condition
            # is decided — the key step that keeps merge-produced ite
            # expressions analyzable.
            t_possible = not (thi < lo or tlo > hi)
            f_possible = not (fhi < lo or flo > hi)
            if t_possible and not f_possible:
                self._assert_bool(ch[0], True, memo)
                self._refine(ch[1], lo, hi, memo)
            elif f_possible and not t_possible:
                self._assert_bool(ch[0], False, memo)
                self._refine(ch[2], lo, hi, memo)
            elif not t_possible and not f_possible:
                raise _Empty
            return

    def _refine_bits(self, e: Expr, mask: int, val: int, memo) -> None:
        """Constrain known bits of a bitvector expression."""
        if not mask:
            return
        kind = e.kind
        w = e.width
        ch = e.children
        if kind == N.VAR:
            self._narrow_var(e.name, w, 0, (1 << w) - 1, mask, val)
            return
        if kind == N.CONST:
            if (e.value ^ val) & mask:
                raise _Empty
            return
        if kind == N.BVAND and ch[1].is_const():
            m = ch[1].value
            if val & mask & ~m:
                raise _Empty
            self._refine_bits(ch[0], mask & m, val & m, memo)
            return
        if kind == N.BVOR and ch[1].is_const():
            m = ch[1].value
            if mask & m & ~val:
                raise _Empty
            self._refine_bits(ch[0], mask & ~m, val & ~m, memo)
            return
        if kind == N.BVXOR and ch[1].is_const():
            m = ch[1].value
            self._refine_bits(ch[0], mask, (val ^ m) & mask, memo)
            return
        if kind == N.BVNOT:
            self._refine_bits(ch[0], mask, (~val) & mask & ((1 << w) - 1), memo)
            return
        if kind == N.ZEXT:
            cmask = (1 << ch[0].width) - 1
            if val & mask & ~cmask:
                raise _Empty
            self._refine_bits(ch[0], mask & cmask, val & cmask, memo)
            return
        if kind == N.EXTRACT:
            hi_bit, lo_bit = e.params
            self._refine_bits(ch[0], mask << lo_bit, val << lo_bit, memo)
            return
        if kind == N.CONCAT:
            lw = ch[1].width
            lmask = (1 << lw) - 1
            self._refine_bits(ch[1], mask & lmask, val & lmask, memo)
            self._refine_bits(ch[0], mask >> lw, val >> lw, memo)
            return
        if kind == N.SHL and ch[1].is_const():
            k = ch[1].value
            if k < w:
                if val & mask & ((1 << k) - 1):
                    raise _Empty
                self._refine_bits(ch[0], mask >> k, val >> k, memo)
            return
        if kind == N.LSHR and ch[1].is_const():
            k = ch[1].value
            if k < w:
                wmask = (1 << w) - 1
                self._refine_bits(ch[0], (mask << k) & wmask, (val << k) & wmask, memo)
            return
        if kind == N.ADD and ch[1].is_const():
            t = _trailing_known(mask)
            if t:
                tm = (1 << t) - 1
                self._refine_bits(ch[0], tm, (val - ch[1].value) & tm, memo)
            return
        if kind == N.ITE:
            truth = self.bool_fact(ch[0], memo)
            if truth is not None:
                self._refine_bits(ch[1] if truth else ch[2], mask, val, memo)
            return

    def _assert_bool(self, e: Expr, truth: bool, memo) -> None:
        """Absorb the fact that boolean expression ``e`` equals ``truth``."""
        kind = e.kind
        if kind == N.CONST:
            if bool(e.value) != truth:
                raise _Empty
            return
        if kind == N.VAR:
            known = self.bools.get(e.name)
            if known is None:
                self.bools[e.name] = truth
                self._changed.add(e.name)
                self._gen += 1
            elif known != truth:
                raise _Empty
            return
        ch = e.children
        if kind == N.NOT:
            self._assert_bool(ch[0], not truth, memo)
            return
        if kind == N.AND:
            if truth:
                self._assert_bool(ch[0], True, memo)
                self._assert_bool(ch[1], True, memo)
            else:
                a = self.bool_fact(ch[0], memo)
                b = self.bool_fact(ch[1], memo)
                if a is True:
                    self._assert_bool(ch[1], False, memo)
                elif b is True:
                    self._assert_bool(ch[0], False, memo)
            return
        if kind == N.OR:
            if not truth:
                self._assert_bool(ch[0], False, memo)
                self._assert_bool(ch[1], False, memo)
            else:
                a = self.bool_fact(ch[0], memo)
                b = self.bool_fact(ch[1], memo)
                if a is False:
                    self._assert_bool(ch[1], True, memo)
                elif b is False:
                    self._assert_bool(ch[0], True, memo)
            return
        if kind == N.XOR:
            a = self.bool_fact(ch[0], memo)
            b = self.bool_fact(ch[1], memo)
            if a is not None:
                self._assert_bool(ch[1], truth != a, memo)
            elif b is not None:
                self._assert_bool(ch[0], truth != b, memo)
            return
        if kind == N.ITE:
            cond = self.bool_fact(ch[0], memo)
            if cond is not None:
                self._assert_bool(ch[1] if cond else ch[2], truth, memo)
            return
        if kind not in (N.EQ, N.ULT, N.ULE, N.SLT, N.SLE) or not ch[0].is_bv():
            return
        known = self.bool_fact(e, memo)
        if known is not None:
            if known != truth:
                raise _Empty
            return
        a, b = ch
        if kind == N.EQ:
            if truth:
                alo, ahi, am, av = self.facts(a, memo)
                blo, bhi, bm, bv = self.facts(b, memo)
                lo, hi = max(alo, blo), min(ahi, bhi)
                if lo > hi:
                    raise _Empty
                self._refine(a, lo, hi, memo)
                self._refine(b, lo, hi, memo)
                mask, val = _merge_bits(am, av, bm, bv)
                self._refine_bits(a, mask, val, memo)
                self._refine_bits(b, mask, val, memo)
            else:
                # a != b: chip singleton endpoints off the other side.
                alo, ahi, _, _ = self.facts(a, memo)
                blo, bhi, _, _ = self.facts(b, memo)
                wmask = (1 << a.width) - 1
                if alo == ahi:
                    if blo == alo:
                        self._refine(b, blo + 1, bhi, memo)
                    elif bhi == alo:
                        self._refine(b, blo, bhi - 1, memo)
                if blo == bhi:
                    if alo == blo:
                        self._refine(a, alo + 1, ahi, memo)
                    elif ahi == blo:
                        self._refine(a, alo, min(ahi - 1, wmask), memo)
            return
        if kind in (N.SLT, N.SLE):
            return  # refutation via bool_fact only
        wmask = (1 << a.width) - 1
        if kind == N.ULT:
            if not truth:
                a, b, kind, truth = b, a, N.ULE, True
        elif kind == N.ULE:
            if not truth:
                a, b, kind, truth = b, a, N.ULT, True
        alo, _, _, _ = self.facts(a, memo)
        _, bhi, _, _ = self.facts(b, memo)
        if kind == N.ULT:
            if bhi == 0:
                raise _Empty
            self._refine(a, 0, bhi - 1, memo)
            self._refine(b, min(alo + 1, wmask), wmask, memo)
        else:  # ULE
            self._refine(a, 0, bhi, memo)
            self._refine(b, alo, wmask, memo)

    # -- decisions ----------------------------------------------------------

    def decide(self, group: list[Expr]) -> tuple[str, dict[str, int] | None]:
        """Decide a group whose constraints have all been absorbed."""
        if self.infeasible:
            return UNSAT, None
        memo: dict[int, tuple[int, object]] = {}
        try:
            for c in group:
                if self.bool_fact(c, memo) is False:
                    return UNSAT, None
        except _Empty:
            self.infeasible = True
            return UNSAT, None
        model = self._probe(group)
        if model is not None:
            return SAT, model
        return UNKNOWN, None

    def _probe(self, group: list[Expr]) -> dict[str, int] | None:
        """Evaluate a few deterministic candidate assignments (proves SAT)."""
        facts: dict[str, tuple[int, int, int, int]] = {}
        for name, node in self.vars.items():
            if node.is_bv():
                try:
                    facts[name] = self.var_facts(name, node.width)
                except _Empty:
                    return None

        def assignment(fill) -> dict[str, int]:
            model = {}
            for name, node in self.vars.items():
                if node.is_bool():
                    model[name] = 1 if self.bools.get(name) else 0
                    continue
                lo, hi, mask, val = facts[name]
                model[name] = fill(lo, hi, mask, val)
            return model

        candidates = [
            assignment(lambda lo, hi, m, v: lo),
            assignment(lambda lo, hi, m, v: hi),
            assignment(lambda lo, hi, m, v: min(max(ord("a"), lo), hi)),
            assignment(lambda lo, hi, m, v: min(max(1, lo), hi)),
            assignment(lambda lo, hi, m, v: (lo + hi) // 2),
            assignment(lambda lo, hi, m, v: v | (lo & ~m)),
        ]
        for model in candidates:
            try:
                if all(evaluate(c, model) for c in group):
                    return model
            except EvalError:
                continue
        return None


# ---------------------------------------------------------------------------
# Per-chain manager: environments keyed per independence-group signature,
# with a short LRU of per-prefix snapshots for incremental extension.
# ---------------------------------------------------------------------------


def group_signature(group: list[Expr]) -> frozenset[str]:
    """The independence-group signature: the group's variable-name union.

    The single definition both pools key on — the presolve environments
    and the incremental chain's persistent blasters must always agree so
    their reset rules can mirror each other.
    """
    return frozenset().union(*(c.variables for c in group)) if group else frozenset()


class PresolveManager:
    """Stateful pre-solve tier for one solver chain.

    Environments are keyed by group *signature* (the frozenset of variable
    names — the same key the incremental chain uses for its persistent
    blasters).  For each signature a short LRU of ``(constraint-set, env,
    verdict, model)`` snapshots is kept: a query whose constraint set
    extends a snapshot clones it and absorbs only the new constraints
    (``env_reuses``); an exact match returns the memoized verdict outright.

    Reset rules mirror the blaster-reset invariants: the chain drops a
    signature's snapshots whenever it resets that signature's blaster
    (timeout, clause overflow) and clears the pool on ``reset_blasters``.
    Resetting is always sound — environments only accelerate, never decide
    differently from a fresh build.
    """

    MAX_SIGNATURES = 128
    SNAPSHOTS_PER_SIG = 4

    __slots__ = ("_sigs", "env_reuses", "env_builds", "batch_rounds")

    def __init__(self) -> None:
        self._sigs: OrderedDict[
            frozenset[str],
            list[tuple[frozenset[int], PresolveEnv, str, dict[str, int] | None]],
        ] = OrderedDict()
        self.env_reuses = 0
        self.env_builds = 0
        self.batch_rounds = 0

    def check_group(
        self, group: list[Expr], sig: frozenset[str] | None = None
    ) -> tuple[str, dict[str, int] | None]:
        if sig is None:
            sig = group_signature(group)
        eids = frozenset(c.eid for c in group)
        snaps = self._sigs.get(sig)
        env: PresolveEnv | None = None
        if snaps is not None:
            self._sigs.move_to_end(sig)
            best = None
            for snap in snaps:
                if snap[0] == eids:
                    self.env_reuses += 1
                    verdict, model = snap[2], snap[3]
                    return verdict, dict(model) if model is not None else None
                if snap[0] < eids and (best is None or len(snap[0]) > len(best[0])):
                    best = snap
            if best is not None:
                env = best[1].clone()
                env.absorb([c for c in group if c.eid not in best[0]])
                self.env_reuses += 1
        if env is None:
            env = PresolveEnv()
            env.absorb(group)
            self.env_builds += 1
        verdict, model = env.decide(group)
        self.batch_rounds += env.batch_rounds
        env.batch_rounds = 0
        if snaps is None:
            snaps = []
            self._sigs[sig] = snaps
            if len(self._sigs) > self.MAX_SIGNATURES:
                self._sigs.popitem(last=False)
        snaps.append((eids, env, verdict, model))
        if len(snaps) > self.SNAPSHOTS_PER_SIG:
            snaps.pop(0)
        return verdict, dict(model) if model is not None else None

    def reset_signature(self, sig: frozenset[str]) -> None:
        self._sigs.pop(sig, None)

    def reset(self) -> None:
        self._sigs.clear()


# ---------------------------------------------------------------------------
# Solver-boundary structural simplifier (process-wide memo).
# ---------------------------------------------------------------------------

_REWRITE_MEMO = BoundedMemo(65536, process_wide=True)


def _binding_target(e: Expr) -> Expr | None:
    """The variable a ``lhs == const`` equality defines, if any."""
    if e.kind == N.VAR and e.is_bv():
        return e
    if e.kind == N.ZEXT and e.children[0].kind == N.VAR:
        return e.children[0]
    return None


def _simplify_uncached(group: list[Expr]) -> tuple[Expr, ...] | None:
    """Equality/constant propagation over one group; None = no change.

    Returns the blast-ready constraint tuple: substituted residual
    constraints plus one re-emitted defining equality per binding.  The
    result is logically *equivalent* to the input (same models over the
    same variables), so rewriting at the solver boundary preserves both
    verdicts and model completeness.  A returned ``(FALSE,)`` means the
    group folded to a contradiction.
    """
    bindings: dict[str, Expr] = {}
    var_nodes: dict[str, Expr] = {}
    pending = list(group)
    for _ in range(4):
        new: dict[str, Expr] = {}
        for c in pending:
            if c.kind != N.EQ:
                continue
            lhs, rhs = c.children
            if not lhs.is_bv():
                continue
            target = _binding_target(lhs)
            if target is not None and rhs.is_const():
                name = target.name
                if name in bindings or name in new:
                    continue
                if rhs.value >= (1 << target.width):
                    return (ops.FALSE,)
                new[name] = ops.bv(rhs.value, target.width)
                var_nodes[name] = target
            elif lhs.kind == N.VAR and rhs.kind == N.VAR and lhs.sort is rhs.sort:
                # Deterministic orientation: replace the structurally later
                # variable by the earlier one (skey order, like the smart
                # constructors), so the rewrite is interning-history free.
                rep, member = (lhs, rhs) if (lhs.skey, lhs.name) <= (rhs.skey, rhs.name) else (rhs, lhs)
                if member.name in bindings or member.name in new:
                    continue
                new[member.name] = rep
                var_nodes[member.name] = member
        if not new:
            break
        bindings.update(new)
        folded: list[Expr] = []
        for c in pending:
            c2 = substitute(c, new)
            if c2.is_false():
                return (ops.FALSE,)
            if not c2.is_true():
                folded.append(c2)
        pending = folded
    if not bindings:
        return None
    defs = tuple(
        ops.eq(var_nodes[name], repl) for name, repl in bindings.items()
    )
    return tuple(pending) + defs


def simplify_group(group: list[Expr]) -> tuple[Expr, ...] | None:
    """Memoized boundary rewrite; None when the group is already minimal.

    The memo is process-wide: the rewrite is a pure function of the group's
    constraint set, so it is shared by every chain in the process (and is
    deterministic across processes — it never consults interning history).
    """
    key = tuple(c.eid for c in group)
    if key in _REWRITE_MEMO:
        return _REWRITE_MEMO[key]
    out = _simplify_uncached(group)
    _REWRITE_MEMO.put(key, out)
    return out


__all__ = [
    "PresolveEnv",
    "PresolveManager",
    "SAT",
    "UNSAT",
    "UNKNOWN",
    "group_signature",
    "simplify_group",
]

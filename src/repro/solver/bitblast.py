"""Bit-blasting of bitvector expressions to CNF.

Lowers the full expression language of :mod:`repro.expr` to clauses for the
CDCL core, the way STP lowers KLEE's queries.  Bitvectors become vectors of
SAT literals (LSB first), operations become Tseitin-encoded circuits:
ripple-carry adders, shift-add multipliers, borrow-chain comparators, barrel
shifters, and division via the standard multiplication side-condition.

Gate-level structural hashing keeps the circuit small on the heavily shared
DAGs produced by state merging.

Every variable records its *fan-in* when it is created: the inputs of a
gate, the guarded literal of a guard, and for a divmod's free quotient
and remainder bits the side-condition literals that pin them.  A probe
(:meth:`BitBlaster.solve` with assumptions) hands the CDCL kernel the
fan-in closure of its assumed guards as its active set, so it decides
only the circuits the probe asks about (:mod:`repro.solver.sat`, "The
probe cone").
"""

from __future__ import annotations

from array import array

from ..expr import nodes as N
from ..expr.nodes import Expr
from .sat import UNASSIGNED, CDCLSolver, SatResult


class BitBlaster:
    """A blasting context: expressions in, clauses out.

    Usable one-shot (``assert_expr`` + ``solve``) or *persistently*: all
    encodings are memoized by ``Expr.eid``, so a constraint is lowered to
    CNF at most once per blaster lifetime.  For persistent use, constraints
    are activated per query through :meth:`guard_literal` — an activation
    literal ``g`` with ``g -> constraint`` clauses — passed to
    :meth:`solve` as assumptions, so the same circuit (and every clause the
    CDCL core learned about it) serves many queries.
    """

    def __init__(self, max_learned: int | None = 4000) -> None:
        self.sat = CDCLSolver(max_learned=max_learned)
        # Fan-in, three variable slots per variable (0 = none), indexed
        # ``3 * var``; variable 0 does not exist.
        self._fanin = array("i", (0, 0, 0))
        # Variables asserted true outright (assert_expr): always in a cone.
        self._roots: list[int] = []
        self.true_lit = self._new_var()
        self.sat.add_clause([self.true_lit])
        self._bool_cache: dict[int, int] = {}
        self._vec_cache: dict[int, list[int]] = {}
        self._gate_cache: dict[tuple, int] = {}
        self._divmod_cache: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
        self._guard_cache: dict[int, int] = {}
        self._guard_expr: dict[int, Expr] = {}  # guard literal -> guarded expr
        self.var_bits: dict[str, list[int]] = {}
        self.bool_vars: dict[str, int] = {}

    # -- gates ---------------------------------------------------------------

    def _new_var(self, a: int = 0, b: int = 0, c: int = 0) -> int:
        """A fresh variable whose fan-in is the literals ``a``, ``b``, ``c``."""
        self._fanin.extend((a if a > 0 else -a, b if b > 0 else -b, c if c > 0 else -c))
        return self.sat.new_var()

    def _set_fanin(self, var: int, a: int, b: int, c: int) -> None:
        i = 3 * var
        fan = self._fanin
        fan[i], fan[i + 1], fan[i + 2] = abs(a), abs(b), abs(c)

    def _const(self, value: bool) -> int:
        return self.true_lit if value else -self.true_lit

    def g_and(self, a: int, b: int) -> int:
        if a == -b:
            return self._const(False)
        if a == b:
            return a
        if a == self.true_lit:
            return b
        if b == self.true_lit:
            return a
        if a == -self.true_lit or b == -self.true_lit:
            return self._const(False)
        if a > b:
            a, b = b, a
        key = ("and", a, b)
        cached = self._gate_cache.get(key)
        if cached is not None:
            return cached
        z = self._new_var(a, b)
        self.sat.add_clause([-z, a])
        self.sat.add_clause([-z, b])
        self.sat.add_clause([z, -a, -b])
        self._gate_cache[key] = z
        return z

    def g_or(self, a: int, b: int) -> int:
        return -self.g_and(-a, -b)

    def g_xor(self, a: int, b: int) -> int:
        if a == b:
            return self._const(False)
        if a == -b:
            return self._const(True)
        if a == self.true_lit:
            return -b
        if a == -self.true_lit:
            return b
        if b == self.true_lit:
            return -a
        if b == -self.true_lit:
            return a
        if abs(a) > abs(b):
            a, b = b, a
        key = ("xor", a, b)
        cached = self._gate_cache.get(key)
        if cached is not None:
            return cached
        z = self._new_var(a, b)
        self.sat.add_clause([-z, a, b])
        self.sat.add_clause([-z, -a, -b])
        self.sat.add_clause([z, -a, b])
        self.sat.add_clause([z, a, -b])
        self._gate_cache[key] = z
        return z

    def g_ite(self, c: int, t: int, e: int) -> int:
        if c == self.true_lit:
            return t
        if c == -self.true_lit:
            return e
        if t == e:
            return t
        if t == -e:
            return self.g_xor(c, e)
        if t == self.true_lit:
            return self.g_or(c, e)
        if t == -self.true_lit:
            return self.g_and(-c, e)
        if e == self.true_lit:
            return self.g_or(-c, t)
        if e == -self.true_lit:
            return self.g_and(c, t)
        key = ("ite", c, t, e)
        cached = self._gate_cache.get(key)
        if cached is not None:
            return cached
        z = self._new_var(c, t, e)
        self.sat.add_clause([-z, -c, t])
        self.sat.add_clause([-z, c, e])
        self.sat.add_clause([z, -c, -t])
        self.sat.add_clause([z, c, -e])
        self._gate_cache[key] = z
        return z

    def g_maj(self, a: int, b: int, c: int) -> int:
        """Majority-of-three (full-adder carry)."""
        # A false input reduces majority to AND of the others; the nested
        # or/and calls below fold to exactly that gate, so short-circuit.
        false = -self.true_lit
        if c == false:
            return self.g_and(a, b)
        if b == false:
            return self.g_and(a, c)
        if a == false:
            return self.g_and(b, c)
        return self.g_or(self.g_and(a, b), self.g_or(self.g_and(a, c), self.g_and(b, c)))

    # -- vector primitives ----------------------------------------------------

    def vec_const(self, value: int, width: int) -> list[int]:
        return [self._const(bool((value >> i) & 1)) for i in range(width)]

    def vec_add(self, a: list[int], b: list[int], carry_in: int | None = None) -> list[int]:
        false = self._const(False)
        carry = carry_in if carry_in is not None else false
        out: list[int] = []
        for ai, bi in zip(a, b):
            # Half-adder-with-zero rows fold completely; skip the gate
            # calls (emits exactly what the xor/maj folds would: nothing).
            if carry == false and bi == false:
                out.append(ai)
                continue
            if carry == false and ai == false:
                out.append(bi)
                continue
            axb = self.g_xor(ai, bi)
            out.append(self.g_xor(axb, carry))
            carry = self.g_maj(ai, bi, carry)
        return out

    def vec_neg(self, a: list[int]) -> list[int]:
        return self.vec_add([-x for x in a], self.vec_const(0, len(a)), carry_in=self._const(True))

    def vec_sub(self, a: list[int], b: list[int]) -> list[int]:
        return self.vec_add(a, [-x for x in b], carry_in=self._const(True))

    def vec_mul(self, a: list[int], b: list[int]) -> list[int]:
        width = len(a)
        false = self._const(False)
        acc = self.vec_const(0, width)
        for j in range(width):
            if b[j] == false:
                # All-zero partial: adding it emits no gates and returns
                # ``acc`` bit for bit (xor/maj fold), so skip the row.
                # Constant multipliers (divmod side-conditions, scaled
                # indices) collapse to popcount-many adds this way.
                continue
            partial = [false] * j + [self.g_and(b[j], a[i]) for i in range(width - j)]
            acc = self.vec_add(acc, partial)
        return acc

    def vec_ite(self, c: int, t: list[int], e: list[int]) -> list[int]:
        return [self.g_ite(c, ti, ei) for ti, ei in zip(t, e)]

    def vec_eq(self, a: list[int], b: list[int]) -> int:
        result = self._const(True)
        for ai, bi in zip(a, b):
            result = self.g_and(result, -self.g_xor(ai, bi))
        return result

    def vec_ult(self, a: list[int], b: list[int]) -> int:
        """Unsigned a < b via MSB-first borrow chain."""
        lt = self._const(False)
        for ai, bi in zip(a, b):  # LSB to MSB; later (more significant) overrides
            bit_lt = self.g_and(-ai, bi)
            bit_eq = -self.g_xor(ai, bi)
            lt = self.g_or(bit_lt, self.g_and(bit_eq, lt))
        return lt

    def vec_slt(self, a: list[int], b: list[int]) -> int:
        """Signed a < b: flip sign bits, compare unsigned."""
        a2 = a[:-1] + [-a[-1]]
        b2 = b[:-1] + [-b[-1]]
        return self.vec_ult(a2, b2)

    def vec_shift(self, a: list[int], amount: list[int], kind: str) -> list[int]:
        """Barrel shifter; kind in {'shl', 'lshr', 'ashr'}."""
        width = len(a)
        fill = a[-1] if kind == "ashr" else self._const(False)
        result = list(a)
        stages = max(1, (width - 1).bit_length())
        for k in range(stages):
            step = 1 << k
            if kind == "shl":
                shifted = [fill] * min(step, width) + result[: max(0, width - step)]
                shifted = shifted[:width]
            else:
                shifted = result[step:] + [fill] * min(step, width)
            result = self.vec_ite(amount[k], shifted, result)
        # Any set amount bit >= stages means shift >= width: all fill.
        overflow = self._const(False)
        for k in range(stages, len(amount)):
            overflow = self.g_or(overflow, amount[k])
        return self.vec_ite(overflow, [fill] * width, result)

    def _divmod(self, num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
        """Unsigned quotient/remainder via the multiplication side-condition.

        Introduces fresh vectors q, r with ``num = q*den + r`` checked at
        double width (so no overflow can hide), ``r < den`` when ``den != 0``,
        and the SMT-LIB division-by-zero convention otherwise.  The fan-in
        of q and r is those side-condition literals: ``q[0]`` and ``r[0]``
        hold the five between them (and each other), every other bit
        points at both, so a cone that reaches any bit holds every clause
        that pins them.
        """
        width = len(num)
        true = self.true_lit
        if all(b == true or b == -true for b in den):
            d = sum(1 << i for i, b in enumerate(den) if b == true)
            return self._divmod_const(num, d)
        q = [self._new_var() for _ in range(width)]
        r = [self._new_var() for _ in range(width)]
        zero = self.vec_const(0, width)
        q2, den2, r2, num2 = (vec + zero for vec in (q, den, r, num))
        prod = self.vec_mul(q2, den2)
        total = self.vec_add(prod, r2)
        den_nonzero = self._const(False)
        for bit in den:
            den_nonzero = self.g_or(den_nonzero, bit)
        ok_mul = self.vec_eq(total, num2)
        ok_rem = self.vec_ult(r, den)
        # den != 0  ->  num = q*den + r  and  r < den
        self.sat.add_clause([-den_nonzero, ok_mul])
        self.sat.add_clause([-den_nonzero, ok_rem])
        # den == 0  ->  q = all-ones and r = num (SMT-LIB convention)
        q_ones = self.vec_eq(q, self.vec_const((1 << width) - 1, width))
        r_num = self.vec_eq(r, num)
        self.sat.add_clause([den_nonzero, q_ones])
        self.sat.add_clause([den_nonzero, r_num])
        q0, r0 = q[0], r[0]
        self._set_fanin(q0, ok_mul, ok_rem, r0)
        self._set_fanin(r0, q_ones, r_num, den_nonzero)
        for bit in q[1:] + r[1:]:
            self._set_fanin(bit, q0, r0, 0)
        return q, r

    def _divmod_const(self, num: list[int], d: int) -> tuple[list[int], list[int]]:
        """Unsigned divmod by the known constant ``d``.

        Division by zero keeps the SMT-LIB convention structurally (no
        constraints at all); powers of two are pure wiring.  Otherwise the
        multiplication side-condition is checked at width
        ``w + d.bit_length()`` — wide enough that ``q*d + r`` cannot wrap
        (``q*d + r <= (2^w - 1)*d + d - 1 < 2^(w + bitlen d)``), so the
        fresh ``q`` and the ``bitlen(d)``-bit ``r`` are pinned uniquely.
        Far fewer variables and clauses than the generic double-width
        circuit, which matters because constant divisors (print routines'
        division by 10) dominate real queries.
        """
        width = len(num)
        false = -self.true_lit
        if d == 0:
            return self.vec_const((1 << width) - 1, width), list(num)
        if d & (d - 1) == 0:
            k = d.bit_length() - 1
            return num[k:] + [false] * k, num[:k] + [false] * (width - k)
        # MSB-first restoring long division.  The remainder register needs
        # only ``bitlen(d)`` bits (the invariant r < d holds after every
        # step), so each step is a narrow compare-and-subtract against the
        # constant.  Every quotient/remainder bit is a *defined* gate — BCP
        # computes them forward with no decisions, unlike the free-variable
        # side-condition, whose q/r guesses cost conflicts per query.
        rb = d.bit_length()
        d_step = self.vec_const(d, rb + 1)
        r = [false] * rb
        q = [false] * width
        for i in range(width - 1, -1, -1):
            shifted = [num[i]] + r  # (r << 1) | num[i], rb+1 bits
            ge = -self.vec_ult(shifted, d_step)
            sub = self.vec_sub(shifted, d_step)
            q[i] = ge
            # The top bit is always 0 after the conditional subtract
            # (value < d <= 2^rb - 1), so the register stays rb bits.
            r = self.vec_ite(ge, sub[:rb], shifted[:rb])
        return q, r + [false] * (width - rb)

    def divmod_cached(self, a: Expr, b: Expr) -> tuple[list[int], list[int]]:
        key = (a.eid, b.eid)
        cached = self._divmod_cache.get(key)
        if cached is None:
            cached = self._divmod(self.blast_vec(a), self.blast_vec(b))
            self._divmod_cache[key] = cached
        return cached

    def _signed_divmod(self, e: Expr) -> tuple[list[int], list[int]]:
        """sdiv/srem via conditional negation around unsigned divmod."""
        a_e, b_e = e.children
        a, b = self.blast_vec(a_e), self.blast_vec(b_e)
        sa, sb = a[-1], b[-1]
        abs_a = self.vec_ite(sa, self.vec_neg(a), a)
        abs_b = self.vec_ite(sb, self.vec_neg(b), b)
        q, r = self._divmod(abs_a, abs_b)
        q_signed = self.vec_ite(self.g_xor(sa, sb), self.vec_neg(q), q)
        r_signed = self.vec_ite(sa, self.vec_neg(r), r)
        return q_signed, r_signed

    # -- expression blasting ----------------------------------------------------

    def blast_vec(self, e: Expr) -> list[int]:
        cached = self._vec_cache.get(e.eid)
        if cached is not None:
            return cached
        result = self._blast_vec_uncached(e)
        self._vec_cache[e.eid] = result
        return result

    def _blast_vec_uncached(self, e: Expr) -> list[int]:
        kind = e.kind
        if kind == N.CONST:
            return self.vec_const(e.value, e.width)
        if kind == N.VAR:
            bits = self.var_bits.get(e.name)
            if bits is None:
                bits = [self._new_var() for _ in range(e.width)]
                self.var_bits[e.name] = bits
            return bits
        if kind == N.ITE:
            c = self.blast_bool(e.children[0])
            return self.vec_ite(c, self.blast_vec(e.children[1]), self.blast_vec(e.children[2]))
        if kind == N.ADD:
            return self.vec_add(self.blast_vec(e.children[0]), self.blast_vec(e.children[1]))
        if kind == N.SUB:
            return self.vec_sub(self.blast_vec(e.children[0]), self.blast_vec(e.children[1]))
        if kind == N.MUL:
            return self.vec_mul(self.blast_vec(e.children[0]), self.blast_vec(e.children[1]))
        if kind == N.NEG:
            return self.vec_neg(self.blast_vec(e.children[0]))
        if kind == N.UDIV:
            return self.divmod_cached(e.children[0], e.children[1])[0]
        if kind == N.UREM:
            return self.divmod_cached(e.children[0], e.children[1])[1]
        if kind == N.SDIV:
            return self._signed_divmod(e)[0]
        if kind == N.SREM:
            return self._signed_divmod(e)[1]
        if kind == N.BVAND:
            a, b = (self.blast_vec(c) for c in e.children)
            return [self.g_and(x, y) for x, y in zip(a, b)]
        if kind == N.BVOR:
            a, b = (self.blast_vec(c) for c in e.children)
            return [self.g_or(x, y) for x, y in zip(a, b)]
        if kind == N.BVXOR:
            a, b = (self.blast_vec(c) for c in e.children)
            return [self.g_xor(x, y) for x, y in zip(a, b)]
        if kind == N.BVNOT:
            return [-x for x in self.blast_vec(e.children[0])]
        if kind in (N.SHL, N.LSHR, N.ASHR):
            return self.vec_shift(
                self.blast_vec(e.children[0]), self.blast_vec(e.children[1]), kind
            )
        if kind == N.ZEXT:
            inner = self.blast_vec(e.children[0])
            return inner + [self._const(False)] * (e.width - len(inner))
        if kind == N.SEXT:
            inner = self.blast_vec(e.children[0])
            return inner + [inner[-1]] * (e.width - len(inner))
        if kind == N.EXTRACT:
            hi, lo = e.params
            return self.blast_vec(e.children[0])[lo : hi + 1]
        if kind == N.CONCAT:
            hi_part, lo_part = e.children
            return self.blast_vec(lo_part) + self.blast_vec(hi_part)
        raise AssertionError(f"cannot blast bitvector kind {kind!r}")

    def blast_bool(self, e: Expr) -> int:
        cached = self._bool_cache.get(e.eid)
        if cached is not None:
            return cached
        result = self._blast_bool_uncached(e)
        self._bool_cache[e.eid] = result
        return result

    def _blast_bool_uncached(self, e: Expr) -> int:
        kind = e.kind
        if kind == N.CONST:
            return self._const(bool(e.value))
        if kind == N.VAR:
            lit = self.bool_vars.get(e.name)
            if lit is None:
                lit = self._new_var()
                self.bool_vars[e.name] = lit
            return lit
        if kind == N.NOT:
            return -self.blast_bool(e.children[0])
        if kind == N.AND:
            return self.g_and(self.blast_bool(e.children[0]), self.blast_bool(e.children[1]))
        if kind == N.OR:
            return self.g_or(self.blast_bool(e.children[0]), self.blast_bool(e.children[1]))
        if kind == N.XOR:
            return self.g_xor(self.blast_bool(e.children[0]), self.blast_bool(e.children[1]))
        if kind == N.ITE:
            c, t, f = (self.blast_bool(x) for x in e.children)
            return self.g_ite(c, t, f)
        if kind == N.EQ:
            return self.vec_eq(self.blast_vec(e.children[0]), self.blast_vec(e.children[1]))
        if kind == N.ULT:
            return self.vec_ult(self.blast_vec(e.children[0]), self.blast_vec(e.children[1]))
        if kind == N.ULE:
            return -self.vec_ult(self.blast_vec(e.children[1]), self.blast_vec(e.children[0]))
        if kind == N.SLT:
            return self.vec_slt(self.blast_vec(e.children[0]), self.blast_vec(e.children[1]))
        if kind == N.SLE:
            return -self.vec_slt(self.blast_vec(e.children[1]), self.blast_vec(e.children[0]))
        raise AssertionError(f"cannot blast boolean kind {kind!r}")

    # -- top level ---------------------------------------------------------------

    def assert_expr(self, e: Expr) -> None:
        lit = self.blast_bool(e)
        self._roots.append(abs(lit))
        self.sat.add_clause([lit])

    def guard_literal(self, e: Expr) -> int:
        """Activation literal for ``e``: assuming it forces the constraint.

        Memoized per expression id, so re-activating a constraint on a
        later query costs one dictionary lookup — the whole point of the
        persistent blaster.  Only ``g -> e`` is encoded (not ``<->``): when
        ``g`` is not assumed the constraint is simply disabled.
        """
        g = self._guard_cache.get(e.eid)
        if g is None:
            lit = self.blast_bool(e)
            g = self._new_var(lit)
            self.sat.add_clause([-g, lit])
            self._guard_cache[e.eid] = g
            self._guard_expr[g] = e
        return g

    def core_exprs(self, core_lits) -> list[Expr]:
        """Map an assumption core back to the guarded constraint expressions.

        Literals that are not guard literals (there are none when callers
        pass only :meth:`guard_literal` results as assumptions) are
        dropped rather than guessed at.
        """
        return [
            self._guard_expr[lit] for lit in core_lits if lit in self._guard_expr
        ]

    def probe_cone(self, assumptions: list[int]) -> bytearray | None:
        """The active set of a probe: the fan-in closure of the assumed
        literals and of every asserted one (None would restrict nothing)."""
        fan = self._fanin
        active = bytearray(self.sat.num_vars + 1)
        stack = [lit if lit > 0 else -lit for lit in assumptions]
        stack += self._roots
        while stack:
            v = stack.pop()
            if active[v]:
                continue
            active[v] = 1
            i = 3 * v
            a = fan[i]
            if a:
                if not active[a]:
                    stack.append(a)
                b = fan[i + 1]
                if b:
                    if not active[b]:
                        stack.append(b)
                    c = fan[i + 2]
                    if c and not active[c]:
                        stack.append(c)
        return active

    @property
    def clause_count(self) -> int:
        """Current clause-database size (original + learned)."""
        return len(self.sat.clauses)

    def solve(
        self, conflict_budget: int | None = None, assumptions: list[int] | None = None
    ) -> dict[str, int] | None:
        """Solve the asserted formula; returns a model or None if UNSAT.

        ``assumptions`` (typically guard literals) activate constraints for
        this call only — see :meth:`CDCLSolver.solve` — and restrict the
        search to their cone (:meth:`probe_cone`).  A bit the search left
        unassigned reads its saved phase: the value this blaster last
        agreed on.
        """
        sat = self.sat
        sat.set_active(self.probe_cone(assumptions) if assumptions else None)
        if sat.solve(conflict_budget, assumptions=assumptions) == SatResult.UNSAT:
            return None
        assign, phase = sat.assign, sat.phase

        def holds(lit: int) -> bool:
            var = lit if lit > 0 else -lit
            val = assign[var]
            return (lit > 0) == (phase[var] if val == UNASSIGNED else val == 1)

        model: dict[str, int] = {}
        for name, bits in self.var_bits.items():
            model[name] = sum(1 << i for i, lit in enumerate(bits) if holds(lit))
        for name, lit in self.bool_vars.items():
            model[name] = int(holds(lit))
        return model


def check_sat(
    assertions: list[Expr], conflict_budget: int | None = None
) -> tuple[bool, dict[str, int] | None, object]:
    """Blast + solve a conjunction of boolean expressions from scratch.

    Returns (is_sat, model_or_None, sat_solver_for_stats).
    """
    blaster = BitBlaster()
    for a in assertions:
        blaster.assert_expr(a)
    model = blaster.solve(conflict_budget)
    return model is not None, model, blaster.sat

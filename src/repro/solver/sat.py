"""A from-scratch CDCL SAT solver.

This plays the role STP/MiniSat play under KLEE: the bit-blaster
(:mod:`repro.solver.bitblast`) lowers bitvector queries to CNF and this
solver decides them.  Features: two-watched-literal propagation, first-UIP
clause learning, non-chronological backjumping, VSIDS-style activity
decisions with phase saving, and Luby restarts.

The solver is *incremental* in the MiniSat style: :meth:`CDCLSolver.solve`
accepts ``assumptions`` — literals enqueued as pseudo-decisions at levels
``1..k`` before any free decision is made.  An UNSAT answer under
assumptions does not poison the solver (``ok`` stays True); learned
clauses and VSIDS activity persist across calls, and new clauses may be
added between calls.  This is what lets a persistent bit-blaster answer a
stream of related path-condition queries without re-encoding anything.

Literals are non-zero Python ints: ``+v`` is the positive literal of
variable ``v`` (1-based), ``-v`` its negation.

There is one kernel, :class:`CDCLSolver`.  Watch lists live in one flat
preallocated list indexed ``lit + cap`` (grown by doubling in
:meth:`CDCLSolver._grow_to`, so ``new_var`` never touches a dict), each
watch entry carries a *blocker* literal whose truth lets the propagator
skip the clause without normalizing it, assignment reads are inlined int
compares, and decisions come from a lazy VSIDS max-heap that pops ``(max
activity, min var)``.

The retained trail
------------------
Consecutive probes of one path condition share most of their assumption
list, so the trail is not thrown away between calls:

* **What survives an answer.**  A SAT answer leaves every level on the
  trail (the model is read from it).  UNSAT under assumptions leaves the
  levels below the conflicting one — all of those already placed, when a
  later assumption was simply found false.  Root-level UNSAT (``ok``
  becomes False) and a conflict-budget timeout leave nothing.
* **What the next** :meth:`~CDCLSolver.solve` **keeps.**  It backtracks to
  the longest common prefix of its assumptions and the assumption levels
  still open; free-decision levels always go.  When a learned-clause
  reduction is due the prefix is given up for that one call, because
  :meth:`~CDCLSolver.reduce_db` needs root level.  Assumption *order* is
  the caller's: nothing is reordered to lengthen the prefix.  A solver
  that is never given assumptions runs from root exactly as before.
* **What** :meth:`~CDCLSolver.add_clause` **may do to the trail.**  It
  undoes the free decisions of a SAT answer, sends a unit clause to root,
  and otherwise leaves the assumption levels open: the clause is watched
  on its two best literals (non-false first, then the false literal of
  the highest level), implies its last open literal on the spot, and
  undoes only the levels that falsify all of it.
* **The completeness invariant.**  At every level it keeps, once the
  propagation queue is drained, the trail is the full unit-propagation
  closure of the assumptions behind it — what BCP from root would have
  derived.  BCP alone does not give this for a clause that arrives late:
  its implied literal is enqueued at the *current* level, but the levels
  that force it may end lower, and a later backtrack into the region
  between the two drops the literal while the clause's false watch stays
  false, so BCP never looks at the clause again.  Abandoned constraints'
  circuits then get *decided* instead of propagated, which costs more
  than the kept prefix saves.  So each such literal is recorded in
  ``_late`` with its clause and true implication level, and
  :meth:`~CDCLSolver._backtrack` puts it back (at the target level,
  queued for BCP) whenever the target is still at or above that level;
  backtracking below it drops the record, and the clause is an ordinary
  two-watched clause again.  Levels therefore stay monotone along the
  trail and conflict analysis is unchanged.  Late implications sit only
  at assumption levels (free decisions are undone before a clause is
  added), so ``_late`` is empty at root, where reductions happen.

The probe cone
--------------
A persistent bit-blaster holds the circuits of every constraint it has
ever seen, but a probe asks about the few its assumptions switch on.
:meth:`~CDCLSolver.set_active` installs the probe's *active set* (the
fan-in closure of its assumed guards, computed by the blaster) for the
solves that follow, until the next call; ``None`` (the default, and what
the blaster installs for every solve without assumptions) restricts
nothing.  Above the last assumption level the kernel

* decides only active variables — an inactive one that
  :meth:`~CDCLSolver._decide` pops is *parked* (dropped from the order
  heap) and pushed back by the first ``set_active`` under which it is
  active;
* never enqueues an inactive variable as a unit: the clause keeps its
  watches, and the backtrack that unassigns its false watch leaves it
  an ordinary two-watched clause again;
* answers SAT once every active variable is assigned.

Assumption levels keep full BCP, so the completeness invariant above
holds at every level a later probe can keep: the units skipped above
them were made unit by a free level, and no free level survives a
probe.  The unassigned variables of a SAT answer read their saved phase.

**Soundness.**  At a SAT answer every clause over active variables only
is satisfied: active units were enqueued as always, and every active
variable is assigned.  Every other clause is one of four kinds — a gate
definition (whose output is inactive, since the active set is closed
under fan-in), a guard implication whose guard was not assumed, a
divmod side condition, or a learned consequence of the others.  Extend
the active part of the trail to every variable in fan-in order: gates
take the value of their function, unassumed guards are false, and a
divmod's free quotient and remainder bits (whose fan-in is the side
condition's literals, so they are inactive only with every circuit
that reads them) take the quotient and remainder of their operands.
The gate definitions, guard implications and side conditions then all
hold, hence so do their learned consequences: the extension is a model
of the formula under the assumptions that agrees with the trail on
every active variable.  An UNSAT answer is derived from clauses the
formula implies, whatever was skipped on the way.
"""

from __future__ import annotations

import heapq

UNASSIGNED = -1


def luby(i: int) -> int:
    """The i-th element (1-based) of the Luby restart sequence."""
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x %= size
    return 1 << seq


class SatResult:
    SAT = "sat"
    UNSAT = "unsat"


class CDCLSolver:
    """CDCL SAT solver over clauses added with :meth:`add_clause`.

    Typical use::

        s = CDCLSolver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a, b])
        s.add_clause([-a])
        assert s.solve() == SatResult.SAT
        assert s.value(b) is True
    """

    #: Initial watch-table capacity (variables); doubled on demand.
    _INITIAL_CAP = 256

    def __init__(self, max_learned: int | None = 4000) -> None:
        self.num_vars = 0
        self.clauses: list[list[int]] = []
        # Flat watch table: the list for literal ``lit`` lives at index
        # ``lit + _cap``.  Entries are ``(clause_index, blocker)`` pairs;
        # the blocker is the clause's other watched literal as of the
        # entry's last refresh, so a true blocker that still matches the
        # other watch proves the clause satisfied without normalizing it.
        # Binary clauses store ``-clause_index - 1`` instead: their
        # blocker *is* the other watch forever (a watch only moves on
        # clauses with a third literal), so the propagator decides them
        # from the entry alone — no clause fetch on the satisfied path.
        self._cap = self._INITIAL_CAP
        self.watches: list[list[tuple[int, int]]] = [
            [] for _ in range(2 * self._cap + 1)
        ]
        self.assign: list[int] = [UNASSIGNED]  # index 0 unused
        self.level: list[int] = [0]
        self.reason: list[int | None] = [None]
        self.activity: list[float] = [0.0]
        self.phase: list[bool] = [False]
        # Lazy VSIDS order: a min-heap of ``(-activity, var)``.  Every
        # unassigned variable always has an entry carrying its *current*
        # activity (pushed on new_var / bump / backtrack-unassign; rebuilt
        # wholesale on rescale); stale entries are discarded at pop time.
        # ``_in_order[v]`` tracks whether the heap already holds var v's
        # current-activity entry, so re-unassigning an untouched variable
        # costs no heap push.  At most one current entry exists per var.
        self._order: list[tuple[float, int]] = []
        self._in_order: list[bool] = [False]
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.prop_head = 0
        # Retained-trail state (module docstring).  ``_assumed`` is the
        # latest assumption list: levels ``1..min(len(trail_lim),
        # len(_assumed))`` are its pseudo-decisions, anything above is a
        # free decision.  ``_late`` maps a variable implied by a clause
        # that joined a live trail to ``(clause index, true implication
        # level)``; it is empty at root level.
        self._assumed: list[int] = []
        self._late: dict[int, tuple[int, int]] = {}
        # Probe cone (module docstring): the installed active set (a
        # 0/1 bytearray indexed by variable, None = every variable) and
        # the variables _decide dropped from the heap while inactive,
        # flagged in ``_is_parked`` so each is listed once.
        self._active: bytearray | None = None
        self._parked: list[int] = []
        self._is_parked = bytearray(1)
        self.var_inc = 1.0
        self.var_decay = 0.95
        self.ok = True
        # Clause-database reduction: learned clauses carry an activity
        # (bumped when used in conflict analysis); once their count passes
        # ``max_learned`` the least active half is forgotten at the next
        # restart.  ``None`` disables forgetting.
        self.clause_learnt: list[bool] = []
        self.clause_act: list[float] = []
        self.cla_inc = 1.0
        self.cla_decay = 0.999
        self.num_learned = 0
        self.max_learned = max_learned
        self.reduce_growth = 1.2
        # Statistics (exposed via repro.solver stats; used as the
        # deterministic "solver cost" metric in experiments).
        self.stats_decisions = 0
        self.stats_propagations = 0
        self.stats_conflicts = 0
        self.stats_learned = 0
        self.stats_restarts = 0
        self.stats_forgotten = 0
        self.stats_reductions = 0
        # Watched-clause visits during BCP — the unit of propagation work
        # the watch/blocker machinery exists to minimize.
        self.stats_bcp_props = 0
        # Assumption levels found still on the trail vs. left to place,
        # per solve: their sum is the sum of ``len(assumptions)``.
        self.stats_levels_reused = 0
        self.stats_levels_opened = 0
        # After an UNSAT-under-assumptions answer: the subset of the
        # assumption literals that already forces the conflict (the
        # *assumption core*).  None after SAT answers and after root-level
        # UNSAT (where the formula needs no assumptions to be UNSAT).
        self.last_core: list[int] | None = None

    # -- problem construction ------------------------------------------------

    def _grow_to(self, nvars: int) -> None:
        """Double the watch table until it has room for variables ``1..nvars``."""
        new_cap = self._cap
        while nvars > new_cap:
            new_cap *= 2
        old, old_cap = self.watches, self._cap
        new: list[list[tuple[int, int]]] = [[] for _ in range(2 * new_cap + 1)]
        for v in range(1, len(self.assign)):  # vars allocated so far
            new[new_cap + v] = old[old_cap + v]
            new[new_cap - v] = old[old_cap - v]
        self.watches = new
        self._cap = new_cap

    def new_var(self) -> int:
        # A fresh bit-blast allocates tens of thousands of gate variables:
        # the per-variable work is these appends and nothing else.
        v = self.num_vars + 1
        self.num_vars = v
        if v > self._cap:
            self._grow_to(v)
        self.assign.append(UNASSIGNED)
        self.level.append(0)
        self.reason.append(None)
        self.activity.append(0.0)
        self.phase.append(False)
        self._in_order.append(True)
        self._is_parked.append(0)
        heapq.heappush(self._order, (0.0, v))
        return v

    def set_active(self, active: bytearray | None) -> None:
        """Install the active set of the solves that follow (module
        docstring).

        ``active`` is indexed by variable and must cover every variable
        those solves see; ``None`` makes every variable active.  Parked
        variables that are active under it go back on the order heap.
        """
        self._active = active
        parked = self._parked
        if not parked:
            return
        if active is None:
            back, self._parked = parked, []
        else:
            back = [v for v in parked if active[v]]
            if not back:
                return
            self._parked = [v for v in parked if not active[v]]
        in_order = self._in_order
        is_parked = self._is_parked
        activity = self.activity
        order = self._order
        for v in back:
            is_parked[v] = 0
            if not in_order[v]:
                heapq.heappush(order, (-activity[v], v))
                in_order[v] = True

    def add_clause(self, lits: list[int]) -> bool:
        """Add a clause; returns False if the formula became trivially UNSAT.

        May be called between :meth:`solve` calls (incremental use).  Free
        decisions left by a SAT answer are undone first; retained
        assumption levels stay open unless the clause is a unit (which
        goes to root) or they falsify it (:meth:`_attach_live`).
        """
        if not self.ok:
            return False
        if len(self.trail_lim) > len(self._assumed):
            self._backtrack(len(self._assumed))
        assign = self.assign
        level = self.level
        seen: set[int] = set()
        out: list[int] = []
        for lit in lits:
            if -lit in seen:
                return True  # tautology
            if lit in seen:
                continue
            var = lit if lit > 0 else -lit
            val = assign[var]
            if val != UNASSIGNED and level[var] == 0:
                if (val == 1) == (lit > 0):
                    return True  # already satisfied at root
                continue  # falsified at root: drop literal
            seen.add(lit)
            out.append(lit)
        if not out:
            self.ok = False
            return False
        if len(out) == 1:
            self._backtrack(0)
            if not self._enqueue(out[0], None):
                self.ok = False
                return False
            conflict = self._propagate()
            if conflict is not None:
                self.ok = False
                return False
            return True
        if self.trail_lim:
            self._attach_live(out)
        else:
            self._attach_clause(out, learnt=False)
        return True

    def _attach_live(self, out: list[int]) -> None:
        """Attach ``out`` (two or more literals) under open assumption levels.

        The two best watches go to the front — non-false literals first,
        then the false literal of the highest level — which is the watch
        invariant BCP would have established had the clause been there all
        along.  Levels that falsify the whole clause are undone.  If one
        literal is left to carry the clause it is implied on the spot, and
        when the levels that force it end below the level it sits at, the
        pair goes into ``_late`` so :meth:`_backtrack` can keep the
        implication alive (BCP alone never revisits this clause: its
        false watch stays false).
        """
        assign = self.assign
        level = self.level
        non_false = len(self.trail_lim) + 1  # outranks every level

        def rank(lit: int) -> int:
            var = lit if lit > 0 else -lit
            val = assign[var]
            if val == UNASSIGNED or (val == 1) == (lit > 0):
                return non_false
            return level[var]

        while True:
            out.sort(key=rank, reverse=True)  # stable: ties keep their order
            falsified_at = rank(out[0])
            if falsified_at == non_false:
                break
            self._backtrack(falsified_at - 1)
        idx = self._attach_clause(out, learnt=False)
        forced_at = rank(out[1])
        if forced_at == non_false:
            return
        first = out[0]
        var = first if first > 0 else -first
        if assign[var] == UNASSIGNED:
            self._enqueue(first, idx)
        if level[var] > forced_at:
            known = self._late.get(var)
            if known is None or known[1] > forced_at:
                self._late[var] = (idx, forced_at)

    def _attach_clause(self, lits: list[int], learnt: bool) -> int:
        idx = len(self.clauses)
        self.clauses.append(lits)
        self.clause_learnt.append(learnt)
        self.clause_act.append(self.cla_inc if learnt else 0.0)
        if learnt:
            self.num_learned += 1
        cap = self._cap
        eci = -idx - 1 if len(lits) == 2 else idx
        self.watches[lits[0] + cap].append((eci, lits[1]))
        self.watches[lits[1] + cap].append((eci, lits[0]))
        return idx

    # -- assignment helpers ---------------------------------------------------

    def _lit_value(self, lit: int) -> bool | None:
        val = self.assign[abs(lit)]
        if val == UNASSIGNED:
            return None
        return bool(val) if lit > 0 else not bool(val)

    def value(self, var: int) -> bool | None:
        """Model value of a variable after a SAT answer."""
        val = self.assign[var]
        return None if val == UNASSIGNED else bool(val)

    def _enqueue(self, lit: int, reason_clause: int | None) -> bool:
        val = self._lit_value(lit)
        if val is not None:
            return val
        var = abs(lit)
        self.assign[var] = 1 if lit > 0 else 0
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason_clause
        self.trail.append(lit)
        return True

    # -- BCP with two watched literals ----------------------------------------

    def _propagate(self) -> int | None:
        """Propagate; returns a conflicting clause index or None.

        Hot loop: everything is inlined int arithmetic on the flat
        arrays.  Kept watch entries are compacted in place (write index
        chasing the read index) instead of building a fresh list, and a
        true blocker that still matches the clause's other watch skips
        the clause outright — exactly the "first watch already true"
        keep of a normalizing propagator.
        """
        clauses = self.clauses
        watches = self.watches
        assign = self.assign
        level = self.level
        reason = self.reason
        trail = self.trail
        cap = self._cap
        cur_level = len(self.trail_lim)
        # Above the assumption levels an inactive unit stays unassigned.
        restrict = self._active if cur_level > len(self._assumed) else None
        head = self.prop_head
        pops = 0
        visits = 0
        while head < len(trail):
            lit = trail[head]
            head += 1
            pops += 1
            falsified = -lit
            wl = watches[falsified + cap]
            n = len(wl)
            if not n:
                continue
            read = 0
            write = 0
            while read < n:
                entry = wl[read]
                read += 1
                visits += 1
                ci = entry[0]
                blocker = entry[1]
                if blocker > 0:
                    bval = assign[blocker]
                    b_true = bval == 1
                    b_false = bval == 0
                else:
                    bval = assign[-blocker]
                    b_true = bval == 0
                    b_false = bval == 1
                if ci < 0:
                    # Binary clause: the blocker is exactly the other
                    # watched literal, so the entry decides the clause.
                    if b_true:
                        wl[write] = entry
                        write += 1
                        continue
                    ci = -ci - 1
                    clause = clauses[ci]
                    # Normalize for conflict analysis / reason reads.
                    if clause[0] == falsified:
                        clause[0] = blocker
                        clause[1] = falsified
                    wl[write] = entry
                    write += 1
                    if b_false:
                        # Conflict: keep remaining watches, report.
                        wl[write:] = wl[read:n]
                        self.prop_head = head
                        self.stats_propagations += pops
                        self.stats_bcp_props += visits
                        return ci
                    # Unit: enqueue the blocker (unless it is inactive).
                    if restrict is not None and not restrict[blocker if blocker > 0 else -blocker]:
                        continue
                    if blocker > 0:
                        assign[blocker] = 1
                        level[blocker] = cur_level
                        reason[blocker] = ci
                    else:
                        var = -blocker
                        assign[var] = 0
                        level[var] = cur_level
                        reason[var] = ci
                    trail.append(blocker)
                    continue
                clause = clauses[ci]
                c0 = clause[0]
                first = clause[1] if c0 == falsified else c0
                if b_true and first == blocker:
                    wl[write] = entry
                    write += 1
                    continue
                # Ensure the falsified literal is at position 1.
                if c0 == falsified:
                    clause[0] = first
                    clause[1] = falsified
                if first > 0:
                    fval = assign[first]
                    f_true = fval == 1
                    f_false = fval == 0
                else:
                    fval = assign[-first]
                    f_true = fval == 0
                    f_false = fval == 1
                if f_true:
                    wl[write] = (ci, first)
                    write += 1
                    continue
                # Look for a new literal to watch.
                moved = False
                for k in range(2, len(clause)):
                    q = clause[k]
                    if q > 0:
                        q_false = assign[q] == 0
                    else:
                        q_false = assign[-q] == 1
                    if not q_false:
                        clause[1] = q
                        clause[k] = falsified
                        watches[q + cap].append((ci, first))
                        moved = True
                        break
                if moved:
                    continue
                wl[write] = (ci, first)
                write += 1
                if f_false:
                    # Conflict: keep remaining watches, report.
                    wl[write:] = wl[read:n]
                    self.prop_head = head
                    self.stats_propagations += pops
                    self.stats_bcp_props += visits
                    return ci
                # Unit: enqueue ``first`` (inlined _enqueue on unassigned),
                # unless it is inactive.
                if restrict is not None and not restrict[first if first > 0 else -first]:
                    continue
                if first > 0:
                    assign[first] = 1
                    level[first] = cur_level
                    reason[first] = ci
                else:
                    var = -first
                    assign[var] = 0
                    level[var] = cur_level
                    reason[var] = ci
                trail.append(first)
            del wl[write:n]
        self.prop_head = head
        self.stats_propagations += pops
        self.stats_bcp_props += visits
        return None

    # -- conflict analysis ------------------------------------------------------

    def _bump(self, var: int) -> None:
        act = self.activity[var] + self.var_inc
        self.activity[var] = act
        if act > 1e100:
            activity = self.activity
            for v in range(1, self.num_vars + 1):
                activity[v] *= 1e-100
            self.var_inc *= 1e-100
            # Every heap entry's cached activity just went stale at once:
            # rebuild with current values (assigned vars are filtered
            # lazily at pop time, as always).
            self._order = [(-activity[v], v) for v in range(1, self.num_vars + 1)]
            heapq.heapify(self._order)
            self._in_order = [True] * (self.num_vars + 1)
            self._parked = []
            self._is_parked = bytearray(self.num_vars + 1)
        else:
            # The activity changed, so any older entry is now stale; this
            # fresh push is the var's unique current entry.
            heapq.heappush(self._order, (-act, var))
            self._in_order[var] = True

    def _cla_bump(self, ci: int) -> None:
        if not self.clause_learnt[ci]:
            return
        self.clause_act[ci] += self.cla_inc
        if self.clause_act[ci] > 1e20:
            for i in range(len(self.clause_act)):
                self.clause_act[i] *= 1e-20
            self.cla_inc *= 1e-20

    def _analyze(self, conflict: int) -> tuple[list[int], int]:
        """First-UIP conflict analysis.

        Returns (learned clause with asserting literal first, backjump level).
        """
        cur_level = len(self.trail_lim)
        seen = [False] * (self.num_vars + 1)
        learned: list[int] = []
        counter = 0
        lit = None
        self._cla_bump(conflict)
        clause = self.clauses[conflict]
        idx = len(self.trail) - 1
        while True:
            for q in clause if lit is None else clause[1:]:
                var = abs(q)
                if not seen[var] and self.level[var] > 0:
                    seen[var] = True
                    self._bump(var)
                    if self.level[var] >= cur_level:
                        counter += 1
                    else:
                        learned.append(q)
            # Pick next literal from the trail at current level.
            while not seen[abs(self.trail[idx])]:
                idx -= 1
            lit = self.trail[idx]
            idx -= 1
            var = abs(lit)
            seen[var] = False
            counter -= 1
            if counter == 0:
                learned.insert(0, -lit)
                break
            reason_ci = self.reason[var]
            self._cla_bump(reason_ci)
            clause = self.clauses[reason_ci]
        if len(learned) == 1:
            return learned, 0
        # Backjump to the second-highest level in the clause.
        max_i = 1
        for k in range(2, len(learned)):
            if self.level[abs(learned[k])] > self.level[abs(learned[max_i])]:
                max_i = k
        learned[1], learned[max_i] = learned[max_i], learned[1]
        return learned, self.level[abs(learned[1])]

    def _backtrack(self, target_level: int) -> None:
        order = self._order
        activity = self.activity
        assign = self.assign
        phase = self.phase
        reason = self.reason
        trail = self.trail
        in_order = self._in_order
        heappush = heapq.heappush
        late = self._late
        undone_late: list[int] = []
        while len(self.trail_lim) > target_level:
            bound = self.trail_lim.pop()
            while len(trail) > bound:
                lit = trail.pop()
                var = lit if lit > 0 else -lit
                phase[var] = assign[var] == 1
                assign[var] = UNASSIGNED
                reason[var] = None
                if not in_order[var]:
                    heappush(order, (-activity[var], var))
                    in_order[var] = True
                if var in late:
                    undone_late.append(lit)
        self.prop_head = min(self.prop_head, len(trail))
        # Completeness at retained levels: a late implication whose
        # forcing levels all survive is put back (at the target level, so
        # levels stay monotone along the trail) and queued for BCP; one
        # that lost a forcing level is ordinary again — its clause's
        # false watch was just unassigned with it.
        for lit in reversed(undone_late):
            var = lit if lit > 0 else -lit
            ci, forced_at = late[var]
            if forced_at <= target_level:
                self._enqueue(lit, ci)
            else:
                del late[var]

    # -- clause-database reduction --------------------------------------------

    def _maybe_reduce(self) -> None:
        if self.max_learned is not None and self.num_learned > self.max_learned:
            self.reduce_db()
            # Geometric growth: each reduction earns a bigger database, so
            # a long-lived solver converges instead of thrashing.
            self.max_learned = int(self.max_learned * self.reduce_growth) + 1

    def reduce_db(self) -> int:
        """Forget the least-active half of the learned clauses.

        Only valid at root level (``trail_lim`` empty): the sole clause
        references alive there are the reasons of root-level assignments,
        which are locked and kept.  Deleting any learned clause is sound —
        each is a consequence of the original formula — it only costs the
        solver re-deriving it.  Binary learned clauses are kept (cheap to
        store, expensive to relearn).  Returns the number forgotten.
        """
        if self.trail_lim:
            raise RuntimeError("reduce_db requires root level")
        locked = {
            ci for ci in (self.reason[abs(lit)] for lit in self.trail) if ci is not None
        }
        candidates = [
            ci
            for ci in range(len(self.clauses))
            if self.clause_learnt[ci] and ci not in locked and len(self.clauses[ci]) > 2
        ]
        candidates.sort(key=lambda ci: self.clause_act[ci])
        doomed = set(candidates[: len(candidates) // 2])
        if not doomed:
            return 0
        mapping: dict[int, int] = {}
        clauses: list[list[int]] = []
        learnt: list[bool] = []
        act: list[float] = []
        for ci, clause in enumerate(self.clauses):
            if ci in doomed:
                continue
            mapping[ci] = len(clauses)
            clauses.append(clause)
            learnt.append(self.clause_learnt[ci])
            act.append(self.clause_act[ci])
        self.clauses = clauses
        self.clause_learnt = learnt
        self.clause_act = act
        # Watched literals live at positions 0/1 of every clause (the
        # propagation loop maintains that), so rebuilding the watch lists
        # from those positions reproduces the watch structure exactly.
        # Blockers are refreshed to the current other watch — blockers
        # only gate the skip heuristic, never the verdict.
        for wl in self.watches:
            if wl:
                wl.clear()
        cap = self._cap
        for nc, clause in enumerate(clauses):
            eci = -nc - 1 if len(clause) == 2 else nc
            self.watches[clause[0] + cap].append((eci, clause[1]))
            self.watches[clause[1] + cap].append((eci, clause[0]))
        for v in range(1, self.num_vars + 1):
            r = self.reason[v]
            if r is not None:
                self.reason[v] = mapping[r]
        forgotten = len(doomed)
        self.num_learned -= forgotten
        self.stats_forgotten += forgotten
        self.stats_reductions += 1
        return forgotten

    # -- assumption-core extraction (MiniSat's analyzeFinal) -------------------

    def _analyze_final(self, seed_lits: list[int]) -> list[int]:
        """Assumption literals whose conjunction already forces a conflict.

        Walks the implication graph from ``seed_lits`` back through trail
        reasons; every reached pseudo-decision (``reason is None`` above
        root level) is an assumption — all open levels are assumption
        levels when this is called.  Must run *before* backtracking, while
        trail, levels, and reasons still describe the conflict.
        """
        seen = {abs(lit) for lit in seed_lits if self.level[abs(lit)] > 0}
        core: list[int] = []
        for lit in reversed(self.trail):
            if not seen:
                break  # nothing left to explain
            var = abs(lit)
            if var not in seen:
                continue
            seen.discard(var)
            reason = self.reason[var]
            if reason is None:
                if self.level[var] > 0:
                    core.append(lit)
            else:
                for q in self.clauses[reason]:
                    if abs(q) != var and self.level[abs(q)] > 0:
                        seen.add(abs(q))
        core.reverse()
        return core

    # -- decisions -----------------------------------------------------------

    def _decide(self) -> int | None:
        """Pop the unassigned active variable of maximum activity (min
        index on ties).

        Heap entries are ``(-activity, var)``; an entry is valid iff the
        variable is unassigned and the cached activity is current.  The
        heap pops ``(max activity, min var)`` — the first strict maximum
        of a linear scan in index order.  An unassigned inactive variable
        is parked instead (module docstring).
        """
        order = self._order
        assign = self.assign
        activity = self.activity
        in_order = self._in_order
        active = self._active
        heappop = heapq.heappop
        while order:
            neg_act, v = order[0]
            if activity[v] == -neg_act:
                if assign[v] == UNASSIGNED:
                    if active is None or active[v]:
                        return v if self.phase[v] else -v
                    if not self._is_parked[v]:
                        self._is_parked[v] = 1
                        self._parked.append(v)
                # Current entry of an assigned (or parked) var: popping
                # removes the var's only current entry.
                in_order[v] = False
            heappop(order)
        return None

    # -- main loop -----------------------------------------------------------

    def solve(
        self, conflict_budget: int | None = None, assumptions: list[int] | None = None
    ) -> str:
        """Run the CDCL loop; returns :data:`SatResult.SAT` or ``UNSAT``.

        ``conflict_budget`` bounds total conflicts (raises ``TimeoutError``
        when exhausted); experiments use it as a per-query solver timeout.

        ``assumptions`` are literals taken as pseudo-decisions at levels
        ``1..k`` before the free search starts.  UNSAT under assumptions
        leaves the solver reusable (``ok`` stays True); only a root-level
        conflict marks the formula permanently UNSAT.  After a SAT answer
        the trail is kept so :meth:`value` reads the model.  An
        UNSAT-under-assumptions answer additionally leaves the culpable
        assumption subset in :attr:`last_core`.  Which levels stay on the
        trail for the next call is the module docstring's contract.
        """
        self.last_core = None
        assumed = list(assumptions) if assumptions else []
        keep = 0
        if self.ok and (self.max_learned is None or self.num_learned <= self.max_learned):
            # (A reduction that is due needs root level: no prefix then.)
            retained = self._assumed
            limit = min(len(self.trail_lim), len(retained), len(assumed))
            while keep < limit and retained[keep] == assumed[keep]:
                keep += 1
        self.stats_levels_reused += keep
        self.stats_levels_opened += len(assumed) - keep
        if not self.ok:
            return SatResult.UNSAT
        self._assumed = assumed
        self._backtrack(keep)
        if not keep:
            conflict = self._propagate()
            if conflict is not None:
                self.ok = False
                return SatResult.UNSAT
            self._maybe_reduce()
        restart_num = 1
        conflicts_until_restart = 100 * luby(restart_num)
        total_conflicts = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats_conflicts += 1
                total_conflicts += 1
                if conflict_budget is not None and total_conflicts > conflict_budget:
                    self._backtrack(0)
                    raise TimeoutError("SAT conflict budget exhausted")
                if not self.trail_lim:
                    self.ok = False
                    return SatResult.UNSAT
                if len(self.trail_lim) <= len(assumed):
                    # Conflict forced entirely by the assumptions: UNSAT
                    # under assumptions, but the formula itself is intact.
                    # The levels below the conflicting one stay.
                    self.last_core = self._analyze_final(self.clauses[conflict])
                    self._backtrack(len(self.trail_lim) - 1)
                    return SatResult.UNSAT
                learned, back_level = self._analyze(conflict)
                self._backtrack(back_level)
                if len(learned) == 1:
                    self._enqueue(learned[0], None)
                else:
                    idx = self._attach_clause(learned, learnt=True)
                    self.stats_learned += 1
                    # The backjump cannot have re-implied the negation:
                    # late implications sit at assumption levels, and
                    # this variable was assigned above them.
                    self._enqueue(learned[0], idx)
                self.var_inc /= self.var_decay
                self.cla_inc /= self.cla_decay
                conflicts_until_restart -= 1
                if conflicts_until_restart <= 0:
                    restart_num += 1
                    conflicts_until_restart = 100 * luby(restart_num)
                    self.stats_restarts += 1
                    self._backtrack(0)
                    self._maybe_reduce()
                elif self.max_learned is not None and self.num_learned > self.max_learned:
                    # Cap tripped mid-search: force a (non-Luby) restart to
                    # reach root level, where reduction is sound.
                    self._backtrack(0)
                    self._maybe_reduce()
            elif len(self.trail_lim) < len(assumed):
                # Place the next assumption as a pseudo-decision.  A level
                # is opened even when the literal already holds, keeping
                # level k <-> assumption k aligned for the conflict check.
                lit = assumed[len(self.trail_lim)]
                val = self._lit_value(lit)
                if val is False:
                    # Earlier assumptions already imply ¬lit: the core is
                    # this assumption plus whatever forced its negation.
                    # Every open level is consistent and stays.
                    core = self._analyze_final([lit])
                    core.append(lit)
                    self.last_core = core
                    return SatResult.UNSAT
                self.trail_lim.append(len(self.trail))
                if val is None:
                    self._enqueue(lit, None)
            else:
                decision = self._decide()
                if decision is None:
                    return SatResult.SAT
                self.stats_decisions += 1
                self.trail_lim.append(len(self.trail))
                self._enqueue(decision, None)

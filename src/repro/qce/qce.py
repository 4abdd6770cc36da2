"""Query Count Estimation (paper §3).

For every function location ``l`` (= basic block) and variable ``v`` this
pass precomputes:

* ``Qt(l)``   — estimated number of solver queries issued after reaching
  ``l`` (paper Eq. 4 with ``c = 1``), and
* ``Qadd(l, v)`` — estimated number of *additional* queries if ``v`` were
  symbolic at ``l`` (Eq. 4 with the dependence filter ``c``).

The recursion of Eq. 3/6 descends the CFG, multiplying every followed
branch by ``beta`` and bounding loops by their static trip count (or
``kappa``).  Loops are handled by *unrolling*: each function's CFG is
built once as a graph of ``(block, remaining budget per active loop)``
nodes in dependency-first order — the unrolled CFG the paper describes —
and Qt and every Qadd are one linear pass over it, each node computing
``contrib + sum(weight * successor)`` in successor order.  That is the
recursion's own arithmetic in the recursion's own order, so the tables
equal (``==``, not approximately) those of a memoized recursion that
re-derives the budgets on every visit; ``tests/test_qce.py`` holds the two
to each other.

Query sites are conditional branches plus — per the paper's footnote 1 —
assertions and memory accesses with (potentially) variable offsets.

Interprocedural handling follows §3.2: local query counts are computed
per function bottom-up over the call graph; call sites add the callee's
entry counts (with argument-to-parameter dependence mapping for ``Qadd``);
the final cross-frame summation happens dynamically in the engine using
the call stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from ..analysis.callgraph import bottom_up_order
from ..analysis.liveness import live_in_sets
from ..analysis.tripcount import trip_counts
from ..lang.cfg import (
    Function,
    IAssert,
    IAssign,
    ICall,
    ILoad,
    IStore,
    MemRef,
    Module,
    TBr,
    TJmp,
)
from ..memo import BoundedMemo


@dataclass(frozen=True)
class QceParams:
    """Heuristic parameters (paper §3.2/§5.4).

    The paper's COREUTILS-scale value ``alpha = 1e-12`` reflects very large
    absolute Qt values on 72 KLOC of code; our corpus is smaller, so the
    library default sits mid-range and the Fig. 7 sweep explores the full
    spectrum (alpha = 0 -> never merge differing concretes; alpha = +inf ->
    merge everything).
    """

    alpha: float = 0.05
    beta: float = 0.8
    kappa: int = 10


@dataclass
class _CallSite:
    callee: str
    # parameter name -> variables occurring in the matching argument
    param_args: dict[str, frozenset[str]]
    all_arg_vars: frozenset[str]


@dataclass
class _BlockSummary:
    site_vars: list[frozenset[str]] = field(default_factory=list)
    calls: list[_CallSite] = field(default_factory=list)


@dataclass
class FunctionQce:
    qt: dict[str, float]
    qadd: dict[str, dict[str, float]]
    variables: frozenset[str]

    def entry_qt(self, entry: str) -> float:
        return self.qt.get(entry, 0.0)


_NO_TAINT: frozenset[str] = frozenset()


def _ref_vars(ref: MemRef) -> frozenset[str]:
    return ref.row.variables if ref.row is not None else frozenset()


def _summarize_block(fn: Function, label: str, module: Module) -> _BlockSummary:
    summary = _BlockSummary()
    block = fn.blocks[label]
    for instr in block.instrs:
        if isinstance(instr, IAssert):
            summary.site_vars.append(instr.cond.variables)
        elif isinstance(instr, ILoad):
            index_vars = instr.index.variables | _ref_vars(instr.ref)
            if index_vars:
                summary.site_vars.append(index_vars | frozenset((instr.ref.array,)))
        elif isinstance(instr, IStore):
            index_vars = instr.index.variables | _ref_vars(instr.ref)
            if index_vars:
                summary.site_vars.append(index_vars | frozenset((instr.ref.array,)))
        elif isinstance(instr, ICall) and instr.func in module.functions:
            callee = module.function(instr.func)
            param_args: dict[str, frozenset[str]] = {}
            all_vars: set[str] = set()
            for (pname, _), arg in zip(callee.params, instr.args):
                if isinstance(arg, MemRef):
                    arg_vars = frozenset((arg.array,)) | _ref_vars(arg)
                else:
                    arg_vars = arg.variables
                param_args[pname] = arg_vars
                all_vars |= arg_vars
            summary.calls.append(_CallSite(instr.func, param_args, frozenset(all_vars)))
    if isinstance(block.term, TBr):
        summary.site_vars.append(block.term.cond.variables)
    return summary


@dataclass
class _UnrolledGraph:
    """The loop-budget-decorated CFG of one function, dependencies first.

    Node ``i`` is a ``(label, ctx)`` key: ``labels[i]`` is its block and
    ``deps[i]`` its ``(weight, node index)`` successors in the order the
    terminator names them; ``start[label]`` indexes the block's start key.
    """

    labels: list[str]
    deps: list[tuple[tuple[float, int], ...]]
    start: dict[str, int]


class _FunctionAnalyzer:
    """Qt and Qadd of one function, as linear passes over its unrolled graph."""

    def __init__(
        self,
        fn: Function,
        module: Module,
        params: QceParams,
        callee_results: dict[str, FunctionQce],
    ):
        self.fn = fn
        self.module = module
        self.params = params
        self.callee_results = callee_results
        # Budgets above ~8 change q by less than beta^8 relative weight but
        # multiply the DP state space; cap them for tractability.
        self.trips = {
            header: min(count, max(params.kappa, 8))
            for header, count in trip_counts(fn, params.kappa).items()
        }
        self.live_in = live_in_sets(fn)
        self.summaries = {label: _summarize_block(fn, label, module) for label in fn.blocks}
        # block -> headers of loops containing it
        self.enclosing: dict[str, frozenset[str]] = {label: frozenset() for label in fn.blocks}
        for loop in fn.natural_loops():
            for label in loop.body:
                self.enclosing[label] = self.enclosing[label] | {loop.header}
        self.successors = {label: block.successors() for label, block in fn.blocks.items()}
        self._transfers: dict[tuple[str, frozenset[str]], tuple[frozenset[str], float]] = {}

    # -- the unrolled graph -----------------------------------------------------

    @cached_property
    def graph(self) -> _UnrolledGraph:
        """Every ``(label, ctx)`` key reachable from a block's start key,
        dependencies first.

        One iterative DFS per block, in block order, over a shared visited
        map.  The budget-decorated graph is acyclic (budgets strictly
        decrease along back edges); for an irreducible CFG the dependency
        on a node still on the DFS path (gray) is cut, i.e. counts 0.
        """
        beta = self.params.beta
        index: dict[tuple, int] = {}
        succs: dict[tuple, list[tuple[float, tuple]]] = {}
        graph = _UnrolledGraph([], [], {})
        for label in self.fn.blocks:
            start = (label, tuple(
                sorted((h, max(0, self.trips.get(h, self.params.kappa) - 1))
                       for h in self.enclosing[label])
            ))
            gray: set[tuple] = set()
            stack: list[tuple[tuple, bool]] = [(start, False)]
            while stack:
                key, expanded = stack.pop()
                if key in index:
                    continue
                if expanded:
                    index[key] = len(graph.labels)
                    graph.labels.append(key[0])
                    graph.deps.append(tuple(
                        (weight, index[dep]) for weight, dep in succs.pop(key) if dep in index
                    ))
                    gray.discard(key)
                    continue
                gray.add(key)
                stack.append((key, True))
                succs[key] = out = []
                term = self.fn.blocks[key[0]].term
                if isinstance(term, TBr):
                    edges = ((beta, term.then_label), (beta, term.else_label))
                elif isinstance(term, TJmp):
                    edges = ((1.0, term.label),)
                else:
                    edges = ()  # TRet/THalt terminate the local count.
                for weight, succ in edges:
                    dep = self._succ_key(key[0], succ, key[1])
                    if dep is not None:
                        out.append((weight, dep))
                        if dep not in index and dep not in gray:
                            stack.append((dep, False))
            graph.start[label] = index[start]
        return graph

    def q_values(self, block_contrib: dict[str, float], starts=None) -> dict[str, float]:
        """Value of q at the start of the given blocks (default: all).

        ``block_contrib[label]`` is the folded contribution of all query
        sites in the block (sites within one block are summed with no
        ``beta`` in between, so folding them is exact).  Each node is
        ``contrib + sum(weight * dep)`` over its deps in successor order.
        """
        values: list[float] = []
        append = values.append
        for label, deps in zip(self.graph.labels, self.graph.deps):
            total = block_contrib[label]
            for weight, dep in deps:
                total += weight * values[dep]
            append(total)
        start = self.graph.start
        return {
            label: values[start[label]]
            for label in (starts if starts is not None else self.fn.blocks)
        }

    def _succ_key(self, src: str, dst: str, ctx: tuple) -> tuple | None:
        """Successor (label, ctx) after loop-budget accounting; None = cut."""
        # Leaving loops: drop budgets for loops not containing dst (a
        # header is in its own loop, so dst's budget survives this).
        dst_loops = self.enclosing[dst]
        ctx_map = {header: budget for header, budget in ctx if header in dst_loops}
        if dst in self.trips:  # dst is a loop header
            if dst in ctx_map and dst in self.enclosing[src]:
                # Back edge (or continue): consume one iteration.
                remaining = ctx_map[dst]
                if remaining <= 0:
                    return None  # unroll budget exhausted: branch not followed
                ctx_map[dst] = remaining - 1
            else:
                # Fresh entry into the loop.
                ctx_map[dst] = max(0, self.trips[dst] - 1)
        return (dst, tuple(sorted(ctx_map.items())))

    # -- instantiations of c ----------------------------------------------------------

    def compute_qt(self) -> dict[str, float]:
        contrib: dict[str, float] = {}
        for label, summary in self.summaries.items():
            total = float(len(summary.site_vars))
            for site in summary.calls:
                callee = self.callee_results.get(site.callee)
                if callee is not None:  # None = recursion cut (bounded)
                    total += callee.entry_qt(self.module.function(site.callee).entry)
            contrib[label] = total
        return self.q_values(contrib)

    def _qadd_contrib(self, start: str, var: str) -> dict[str, float]:
        """Per-block folded Qadd contribution for taint seeded at (start, var).

        Flow-sensitive forward taint from ``(start, var)`` with kills.
        This realizes the paper's dependence relation ``(l, v) C (l', e)``:
        ``v``'s *value at l* flows into the expression at ``l'``.  A plain
        reassignment (``i = 0``) kills the taint — crucial for the echo
        example, where the inner counter ``i`` is dead across outer-loop
        iterations and therefore cheap to merge.
        """
        taint_in = dict.fromkeys(self.fn.blocks, _NO_TAINT)
        taint_in[start] = frozenset((var,))
        worklist = [start]
        while worklist:
            label = worklist.pop()
            out = self._block_taint(label, taint_in[label])[0]
            for succ in self.successors[label]:
                current = taint_in[succ]
                if not out <= current:
                    taint_in[succ] = current | out
                    worklist.append(succ)
        # An untainted block contributes nothing.
        return {
            label: self._block_taint(label, tin)[1] if tin else 0.0
            for label, tin in taint_in.items()
        }

    def _block_taint(self, label: str, tainted_in: frozenset[str]) -> tuple[frozenset[str], float]:
        """``_block_site_taint``, memoised per analyzer: the (start, var)
        fixpoints of one function revisit the same few (block, taint-in)
        pairs."""
        key = (label, tainted_in)
        hit = self._transfers.get(key)
        if hit is None:
            hit = self._transfers[key] = self._block_site_taint(label, tainted_in)
        return hit

    @staticmethod
    def _step_taint(instr, tainted: set[str]) -> None:
        if isinstance(instr, IAssign):
            if instr.expr.variables & tainted:
                tainted.add(instr.dst)
            else:
                tainted.discard(instr.dst)
        elif isinstance(instr, ILoad):
            sources = instr.index.variables | _ref_vars(instr.ref) | {instr.ref.array}
            if sources & tainted:
                tainted.add(instr.dst)
            else:
                tainted.discard(instr.dst)
        elif isinstance(instr, IStore):
            sources = instr.value.variables | instr.index.variables | _ref_vars(instr.ref)
            if sources & tainted:
                tainted.add(instr.ref.array)  # weak update: no kill
        elif isinstance(instr, ICall):
            sources: set[str] = set()
            array_args: list[str] = []
            for arg in instr.args:
                if isinstance(arg, MemRef):
                    sources.add(arg.array)
                    sources |= _ref_vars(arg)
                    array_args.append(arg.array)
                else:
                    sources |= arg.variables
            hit = bool(sources & tainted)
            if instr.dst is not None:
                if hit:
                    tainted.add(instr.dst)
                else:
                    tainted.discard(instr.dst)
            if hit:
                tainted.update(array_args)

    def _block_site_taint(
        self, label: str, tainted_in: frozenset[str]
    ) -> tuple[frozenset[str], float]:
        """Taint out of one block, and its folded Qadd contribution.

        The contribution counts the tainted query sites of
        ``_summarize_block`` (branch site last), then adds, call by call
        and parameter by parameter, the callee's entry ``Qadd`` of every
        tainted parameter.
        """
        tainted = set(tainted_in)
        sites = 0
        call_terms: list[float] = []
        block = self.fn.blocks[label]
        for instr in block.instrs:
            if isinstance(instr, IAssert):
                sites += bool(instr.cond.variables & tainted)
            elif isinstance(instr, ILoad):
                index_vars = instr.index.variables | _ref_vars(instr.ref)
                if index_vars:
                    sites += bool((index_vars | {instr.ref.array}) & tainted)
            elif isinstance(instr, IStore):
                index_vars = instr.index.variables | _ref_vars(instr.ref)
                if index_vars:
                    sites += bool(index_vars & tainted or instr.ref.array in tainted)
            elif isinstance(instr, ICall) and instr.func in self.module.functions:
                callee = self.module.function(instr.func)
                result = self.callee_results.get(instr.func)
                for (pname, _), arg in zip(callee.params, instr.args):
                    if isinstance(arg, MemRef):
                        arg_vars = frozenset((arg.array,)) | _ref_vars(arg)
                    else:
                        arg_vars = arg.variables
                    if result is not None and arg_vars & tainted:
                        call_terms.append(result.qadd.get(callee.entry, {}).get(pname, 0.0))
            self._step_taint(instr, tainted)
        if isinstance(block.term, TBr):
            sites += bool(block.term.cond.variables & tainted)
        total = float(sites)
        for term in call_terms:
            total += term
        return frozenset(tainted), total

    def _is_trackable_at(self, start: str, var: str) -> bool:
        """Scalars dead at ``start`` cannot add queries; arrays always can."""
        vtype = self.fn.var_types.get(var)
        if vtype is not None and not hasattr(vtype, "element"):
            return var in self.live_in[start]
        return True  # arrays, globals, names outside var_types

    def compute_qadd_all(self, variables) -> dict[str, dict[str, float]]:
        """Qadd(l, v) for every block l and variable v.

        Starts with identical per-block contribution maps share one DP run
        (common: a variable's taint footprint is often the same from every
        block of a region), and dead-variable starts are skipped outright.
        """
        result: dict[str, dict[str, float]] = {label: {} for label in self.fn.blocks}
        for var in sorted(variables):
            groups: dict[tuple, list[str]] = {}
            contribs: dict[tuple, dict[str, float]] = {}
            for start in self.fn.blocks:
                if not self._is_trackable_at(start, var):
                    continue
                contrib = self._qadd_contrib(start, var)
                # Every map has the keys of fn.blocks in block order.
                fingerprint = tuple(contrib.values())
                if not any(fingerprint):
                    continue
                groups.setdefault(fingerprint, []).append(start)
                contribs[fingerprint] = contrib
            for fingerprint, starts in groups.items():
                contrib = contribs[fingerprint]
                values = self.q_values(contrib, starts=starts)
                for start in starts:
                    if values[start] > 0.0:
                        result[start][var] = values[start]
        return result

    def tracked_variables(self) -> frozenset[str]:
        """Scalars, arrays and referenced globals of this function."""
        names: set[str] = set(self.fn.var_types)
        for summary in self.summaries.values():
            for vars_ in summary.site_vars:
                names |= vars_
            for call in summary.calls:
                names |= call.all_arg_vars
        return frozenset(names)


class QceAnalysis:
    """Whole-module QCE: run once before symbolic execution (paper §5.1)."""

    def __init__(self, module: Module, params: QceParams | None = None):
        self.module = module
        self.params = params or QceParams()
        self.functions: dict[str, FunctionQce] = {}
        for name in bottom_up_order(module):
            fn = module.function(name)
            analyzer = _FunctionAnalyzer(fn, module, self.params, self.functions)
            qt = analyzer.compute_qt()
            variables = analyzer.tracked_variables()
            qadd = analyzer.compute_qadd_all(variables)
            self.functions[name] = FunctionQce(qt=qt, qadd=qadd, variables=variables)

    # -- engine-facing API -------------------------------------------------------

    def qt_local(self, func: str, block: str) -> float:
        return self.functions[func].qt.get(block, 0.0)

    def qadd_local(self, func: str, block: str, var: str) -> float:
        return self.functions[func].qadd.get(block, {}).get(var, 0.0)

    def qadd_map(self, func: str, block: str) -> dict[str, float]:
        return self.functions[func].qadd.get(block, {})

    def hot_variables(self, func: str, block: str, qt_global: float) -> frozenset[str]:
        """H(l) = {v | Qadd(l, v) > alpha * Qt(l)} (paper Eq. 2).

        ``qt_global`` is the dynamically-summed Qt over the call stack
        (paper §3.2, "Interprocedural QCE").
        """
        threshold = self.params.alpha * qt_global
        return frozenset(
            v for v, value in self.qadd_map(func, block).items() if value > threshold
        )


# (id(module), params) -> (module, analysis).  An entry holds its module,
# so the id cannot be reused while it is keyed.
_ANALYSIS_CACHE = BoundedMemo(64, process_wide=True)


def analyze_module(module: Module, params: QceParams | None = None) -> QceAnalysis:
    """Memoized QCE for a module (the pass is pure in module + params)."""
    params = params or QceParams()
    key = (id(module), params)
    entry = _ANALYSIS_CACHE.get(key)
    if entry is None:
        entry = (module, QceAnalysis(module, params))
        _ANALYSIS_CACHE.put(key, entry)
    return entry[1]

"""Spans recorded from outside the program, and each layer's self time.

Nothing under ``src/`` knows it is being traced.  A :class:`Tracer`
rebinds timing proxies onto public attributes of live objects (the
engine's solver, its cache, the strategy, ...) and onto module-level
names the engine looks up at call time; every call through a proxy
records one span: name, start, end and the span that was open when it
began.  Spans stay in memory until the run is over.

A layer's *self time* is its spans' duration minus the part their child
spans cover, so remainders have names (``engine.step`` is what is left
of the exploration loop once solver, search, merge and test generation
are taken out; ``solver.blast`` is what is left of ``check`` once cache,
store tier and presolve are) and the self times of all layers add up to
the root span exactly.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else -1])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def timed(self, name: str, fn):
        """A callable that runs ``fn`` inside a span called ``name``.
        Same bookkeeping as :meth:`span`, written out: a generator-based
        context manager per call would triple the cost of a proxy that
        ``merge_search`` goes through 600 000 times."""
        spans, open_, now = self.spans, self._open, time.perf_counter

        def proxy(*args, **kwargs):
            index = len(spans)
            spans.append([name, now(), None, open_[-1] if open_ else -1])
            open_.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[index][2] = now()

        return proxy

    def rebind(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (a bound method or module function) with
        its timed proxy.  On an instance this shadows the class's method
        for that one object; on a module it is what importers that look
        the name up at call time will see."""
        setattr(owner, attr, self.timed(name, getattr(owner, attr)))

    def delegate(self, owner, attr: str, methods: dict[str, str]) -> None:
        """For objects with ``__slots__``: replace ``owner.attr`` by a
        stand-in that times ``methods`` and forwards everything else."""
        setattr(owner, attr, _Delegate(getattr(owner, attr), self, methods))

    # -- after the run -------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: call count, total and self seconds."""
        covered = defaultdict(float)  # span index -> seconds its children cover
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - covered[index]
        return out


class _Delegate:
    def __init__(self, target, tracer: Tracer, methods: dict[str, str]) -> None:
        self._target = target
        for attr, name in methods.items():
            setattr(self, attr, tracer.timed(name, getattr(target, attr)))

    def __getattr__(self, attr):
        return getattr(self._target, attr)

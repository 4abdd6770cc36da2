"""The benchmark's workloads: which explorations run, and why.

A *cell* is one exhaustive exploration (program, mode, N args x L bytes,
how it is driven); a *workload* is one or two cells run one after the
other, each in a fresh interpreter.  The two modes are spelled out here
rather than borrowed from ``repro.experiments`` so the benchmark fixes
its own inputs:

* ``plain``   = merging none / similarity never / strategy dfs
* ``dsm-qce`` = merging dynamic / similarity qce / strategy coverage

``EngineConfig.seed`` is pinned to 0 in every cell.  The coverage
strategy draws its tiebreaks from it, and on ``wc dsm-qce 3x3`` seeds
0..4 give 50 799 to 117 072 merged paths and 4.8 to 9.0 s — a 2x swing
in work that no bound could absorb.  ``--seed`` therefore pins only the
children's ``PYTHONHASHSEED`` (set/dict iteration order), which leaves
every counter unchanged.

Sizes follow from the driver's cap (180 runs in 3420 s, so about 8 s
measured per run) and from how the host behaves: one process differs
from the next by a few percent that no amount of measuring inside it
removes, so a run is worth more as four 2 s explorations in four fresh
processes than as one of 8 s.  The issue's 5-20 s cells were cut to
about 2 s each — the three ``*_wc`` workloads together, so that they
keep sharing one input — except ``tsort``, which has no size between
0.2 s and 6 s.  This table is the one place to scale them back up.
"""

from __future__ import annotations

MODES = {
    "plain": {"merging": "none", "similarity": "never", "strategy": "dfs"},
    "dsm-qce": {"merging": "dynamic", "similarity": "qce", "strategy": "coverage"},
}


def cell(program, mode, n, l, **extra):
    """One exploration.  ``extra`` keys: ``byte_max`` ({input byte: largest
    allowed character} — an input precondition), ``store`` ('cold' |
    'warm'), ``workers``/``backend``/``campaign`` for partitioned runs."""
    return {"program": program, "mode": mode, "n": n, "l": l, **extra}


def cell_id(c) -> str:
    """Identity of a cell's *input and outputs* (the key into expect.json):
    how the exploration is driven (workers, store) must not change them."""
    pre = "".join(f",{k}<={v}" for k, v in sorted(c.get("byte_max", {}).items()))
    return f"{c['program']}/{c['mode']}/{c['n']}x{c['l']}{pre}"


WC = ("wc", "plain", 3, 2)

WORKLOADS = {
    "plain_wc": {
        "why": "wc plain 3x2 (cut from 3x3 to fit the run cap): 588 paths = 588 tests; "
               "stepping, test generation and the cheap solver tiers do the work, CDCL almost none",
        "cells": [cell(*WC)],
    },
    "blast_factor": {
        "why": "factor plain 1x2 with first byte <= '2' (cut from all 1x2): 26 paths, "
               "mul/div/mod bit-blasting and CDCL are three quarters of it; mirror image of plain_wc",
        "cells": [cell("factor", "plain", 1, 2, byte_max={"arg1_b0": "2"})],
    },
    "merge_solver": {
        "why": "wc dsm-qce 2x4 + uniq dsm-qce 3x2 (cut from 3x3): the paper's merging where its "
               "cost lands in presolve, rewrite and blasting of ite-heavy merged expressions",
        "cells": [cell("wc", "dsm-qce", 2, 4), cell("uniq", "dsm-qce", 3, 2)],
    },
    "merge_search": {
        "why": "tsort dsm-qce 3x2: same mode as merge_solver, but DSM bookkeeping "
               "(forwarding-set scan, similarity hashing) and QCE set-up dominate, not the solver",
        "cells": [cell("tsort", "dsm-qce", 3, 2)],
    },
    "par2_wc": {
        "why": "the plain_wc input through 2 forked workers: split, snapshot codec, wire, "
               "stealing; cpu_s here minus cpu_s on plain_wc is the price of partitioning",
        "cells": [cell(*WC, workers=2, backend="process")],
    },
    "campaign_wc": {
        "why": "the plain_wc input as a durable campaign: socket backend, 2 workers, writable "
               "store, checkpoint_every=1; adds leases, heartbeats, checkpoints, worker store tier",
        "cells": [cell(*WC, workers=2, backend="socket", campaign=True, store="cold")],
    },
    "store_cold": {
        "why": "the plain_wc cell + merge_solver's uniq cell, each against a fresh store: canonical "
               "keys per miss, buffered inserts, commit with replayed coverage (the write side)",
        "cells": [cell(*WC, store="cold"),
                  cell("uniq", "dsm-qce", 3, 2, store="cold")],
    },
    "store_warm": {
        "why": "the store_cold cells against a copy of the store a cold run wrote: store hits "
               "and warm-start seeding (the read side); a commit-heavier store shows on the sibling",
        "cells": [cell(*WC, store="warm"),
                  cell("uniq", "dsm-qce", 3, 2, store="warm")],
    },
}

# Same eight names and the same driving, on programs small enough that a
# whole untraced + traced pass takes seconds (the tier-1 smoke test).
_ECHO = ("echo", "plain", 2, 2)
_WC = ("wc", "plain", 2, 2)   # 84 paths: enough for the split to hand out partitions
SMOKE_WORKLOADS = {
    "plain_wc": [cell(*_WC)],
    "blast_factor": [cell("factor", "plain", 1, 1)],
    "merge_solver": [cell("echo", "dsm-qce", 2, 2), cell("cat", "dsm-qce", 2, 2)],
    "merge_search": [cell("cat", "dsm-qce", 2, 2)],
    "par2_wc": [cell(*_WC, workers=2, backend="process")],
    "campaign_wc": [cell(*_WC, workers=2, backend="socket", campaign=True, store="cold")],
    "store_cold": [cell(*_ECHO, store="cold"), cell("cat", "dsm-qce", 2, 2, store="cold")],
    "store_warm": [cell(*_ECHO, store="warm"), cell("cat", "dsm-qce", 2, 2, store="warm")],
}


def cells_of(workload: str, smoke: bool = False) -> list[dict]:
    return SMOKE_WORKLOADS[workload] if smoke else WORKLOADS[workload]["cells"]

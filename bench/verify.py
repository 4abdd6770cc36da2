"""Output checks: is what the exploration produced correct?

The reference is independent of the engine under test: every generated
test is replayed on the concrete interpreter (``repro.lang.interp``),
and path count, test count, covered blocks and the test-multiset digest
are compared with values recorded in ``expect.json``.  Each check is one
*op*: a ``(name, passed, detail)`` triple.  The benchmark reports
``failed / attempted`` over all of them; none of this time is measured.
"""

from __future__ import annotations

import hashlib

Check = tuple[str, bool, str]


def tests_digest(cases) -> str:
    """Order-free identity of a generated test multiset."""
    rows = sorted(repr((c.kind, c.argv, c.model, c.line, c.stdin)) for c in cases)
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16]


def replay_checks(module, cases, covered, exhaustive_plain: bool) -> list[Check]:
    """Replay every test concretely: one op per test, one for coverage.

    A ``path`` test must run to completion (and exit with the predicted
    code when the test carries one); an ``assert``/``bounds`` test must
    stop with that error at the recorded line.  The blocks the replays
    touch must all be blocks the engine reported covered — and in plain
    mode, where every path ends in a test, exactly those.
    """
    from repro.lang.interp import AssertionFailure, Interpreter, InterpError, OutOfBounds

    checks: list[Check] = []
    replayed: set = set()
    for i, case in enumerate(cases):
        interp = Interpreter(module, max_steps=2_000_000)
        try:
            result = interp.run_main(list(case.argv), stdin=case.stdin)
            got = ("path", None)
            if case.exit_code is not None and result.exit_code != case.exit_code:
                got = ("path", f"exit {result.exit_code}")
        except AssertionFailure as exc:
            got = ("assert", exc.line)
        except OutOfBounds as exc:
            got = ("bounds", int(str(exc).rsplit("line ", 1)[1]))
        except InterpError as exc:
            got = ("error", str(exc))
        replayed |= interp.coverage
        want = (case.kind, None if case.kind == "path" else case.line)
        checks.append((f"replay[{i}]", got == want, "" if got == want else f"want {want}, got {got}"))
    covered = set(covered)
    ok = replayed == covered if exhaustive_plain else replayed <= covered
    checks.append((
        "replay_coverage", ok,
        "" if ok else f"replayed {len(replayed)} blocks, engine covered {len(covered)}, "
                      f"{len(replayed - covered)} outside",
    ))
    return checks


EXPECTED_FACTS = ("paths", "tests", "covered", "digest")


def expect_checks(facts: dict, expected: dict | None) -> list[Check]:
    """Compare a cell's facts with its recorded expectations and flags."""
    checks: list[Check] = []
    for key in EXPECTED_FACTS:
        if expected is None:
            checks.append((f"expect.{key}", False, "no expectation recorded for this cell"))
        else:
            ok = facts[key] == expected[key]
            checks.append((f"expect.{key}", ok,
                           "" if ok else f"want {expected[key]}, got {facts[key]}"))
    checks.append(("not_timed_out", not facts["timed_out"], ""))
    warning = facts["store_warning"]
    checks.append(("no_store_warning", warning is None, warning or ""))
    if "ledger_error" in facts:
        error = facts["ledger_error"]
        checks.append(("ledger_clean", error is None, error or ""))
    return checks


def same_check(name: str, labelled_values: list[tuple[str, object]]) -> Check:
    """One op: every labelled value equals the first."""
    first = labelled_values[0][1]
    odd = [(label, v) for label, v in labelled_values if v != first]
    return (name, not odd, "" if not odd else f"{labelled_values[0]} vs {odd}")

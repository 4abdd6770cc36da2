"""Hypothesis strategy for generated MiniC programs (shared by test files).

``minic_programs(control=False)`` is straight-line concrete arithmetic:
``main`` declares a few ``int``s from literals and earlier names and
prints them.  ``control=True`` grows the same declarations into a body
with ``if``/``else`` on input-dependent values, bounded ``for`` loops
nested up to depth 2 (a literal or ``argc`` bound, so loops with and
without a static trip count), loads from ``argv`` indexed by a loop
counter, and one call to a generated helper function.
"""

from hypothesis import strategies as st

BINOPS = ("+", "-", "*", "/", "%", "&", "|", "^", "<", "==")
CMPS = ("<", "<=", "==", "!=", ">")
MAX_LOOP_DEPTH = 2
MAX_STATEMENTS = 12


def _literal():
    return st.integers(min_value=0, max_value=9999).map(str)


def _operand(draw, names):
    return draw(st.sampled_from(names) | _literal() if names else _literal())


def _declarations(draw, names, extra=()):
    stmts = []
    for i in range(draw(st.integers(min_value=2, max_value=7))):
        pool = names + list(extra)
        a, b, c = (_operand(draw, pool) for _ in range(3))
        op1, op2 = draw(st.sampled_from(BINOPS)), draw(st.sampled_from(BINOPS))
        stmts.append(f"int v{i} = ({a} {op1} {b}) {op2} ({c});")
        names.append(f"v{i}")
    return stmts


class _Body:
    """Draws statement lists: at most ``MAX_STATEMENTS`` statements in all,
    one of them the helper call."""

    def __init__(self, draw, names):
        self.draw = draw
        self.names = names
        self.calls = 1
        self.loops = 0
        self.budget = MAX_STATEMENTS

    def block(self, depth: int, counters: list[str], indent: str) -> list[str]:
        n = self.draw(st.integers(min_value=1, max_value=3))
        out = []
        for _ in range(n):
            out.extend(self.statement(depth, counters, indent))
        return out

    def statement(self, depth, counters, indent, kind=None) -> list[str]:
        draw = self.draw
        self.budget -= 1
        if kind is None:
            kinds = ["assign"]
            if self.budget > 0:
                kinds.append("if")
                if depth < MAX_LOOP_DEPTH:
                    kinds.append("for")
            if self.calls:
                kinds.append("call")
            if counters:
                kinds.append("load")
            kind = draw(st.sampled_from(kinds))
        pool = self.names + counters + ["argc"]
        dst = draw(st.sampled_from(self.names))
        if kind == "assign":
            a, b = _operand(draw, pool), _operand(draw, pool)
            return [f"{indent}{dst} = {a} {draw(st.sampled_from(BINOPS))} {b};"]
        if kind == "load":
            return [f"{indent}{dst} = argv[1][{draw(st.sampled_from(counters))}];"]
        if kind == "call":
            self.calls -= 1
            a, b = _operand(draw, pool), _operand(draw, pool)
            return [f"{indent}{dst} = helper({a}, {b});"]
        inner = indent + "  "
        if kind == "if":
            a, b = _operand(draw, pool), _operand(draw, pool)
            lines = [f"{indent}if ({a} {draw(st.sampled_from(CMPS))} {b}) {{"]
            lines += self.block(depth, counters, inner)
            if draw(st.booleans()):
                lines.append(f"{indent}}} else {{")
                lines += self.block(depth, counters, inner)
            return lines + [f"{indent}}}"]
        counter = f"i{self.loops}"
        self.loops += 1
        bound = draw(st.sampled_from(["1", "2", "3", "argc"]))
        lines = [f"{indent}for (int {counter} = 0; {counter} < {bound}; {counter}++) {{"]
        lines += self.block(depth + 1, counters + [counter], inner)
        return lines + [f"{indent}}}"]


_HELPER = """int helper(int p, int q) {
  int r = p;
  if (p < q) r = q - p;
  for (int k = 0; k < 2; k++) {
    if (r > k) r = r - 1;
  }
  return r;
}
"""


@st.composite
def minic_programs(draw, control: bool = False):
    names: list[str] = []
    stmts = ["  " + s for s in _declarations(draw, names, ["argc"] if control else ())]
    if control:
        body = _Body(draw, names)
        stmts += body.block(0, [], "  ")
        if body.calls:
            stmts += body.statement(0, [], "  ", kind="call")
    prints = "\n".join(f"  print_int({v}); putchar(' ');" for v in names)
    return (
        (_HELPER if control else "")
        + "int main(int argc, char argv[][]) {\n"
        + "\n".join(stmts)
        + "\n"
        + prints
        + "\n  return 0;\n}\n"
    )

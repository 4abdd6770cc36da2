"""Parser tests: structure, precedence, errors."""

import pytest

from repro.lang import ast_nodes as A
from repro.lang.parser import ParseError, parse
from repro.lang.types import Array2DType, ArrayType, CHAR, INT


def parse_main_body(body):
    prog = parse("int main(int argc, char argv[][]) { %s }" % body)
    return prog.functions[0].body


def parse_expr(text):
    body = parse_main_body(f"x = {text};")
    return body[0].expr.value  # the Assign's value


def test_function_signature():
    prog = parse("int main(int argc, char argv[][]) { return 0; }")
    fn = prog.functions[0]
    assert fn.name == "main"
    assert fn.params[0].param_type is INT
    assert isinstance(fn.params[1].param_type, Array2DType)


def test_void_function_and_array_param():
    prog = parse("void f(char s[]) { }")
    fn = prog.functions[0]
    assert fn.return_type is None
    assert isinstance(fn.params[0].param_type, ArrayType)


def test_globals():
    prog = parse("int g = 3;\nchar buf[4];\nint main(int a, char v[][]) { return g; }")
    assert len(prog.globals) == 2
    assert prog.globals[0].init.value == 3
    assert isinstance(prog.globals[1].var_type, ArrayType)


def test_precedence_mul_over_add():
    e = parse_expr("1 + 2 * 3")
    assert isinstance(e, A.Binary) and e.op == "+"
    assert isinstance(e.right, A.Binary) and e.right.op == "*"


def test_precedence_cmp_over_logic():
    e = parse_expr("a < b && c == d")
    assert e.op == "&&"
    assert e.left.op == "<" and e.right.op == "=="


def test_logic_precedence_or_lowest():
    e = parse_expr("a && b || c")
    assert e.op == "||"
    assert e.left.op == "&&"


def test_ternary():
    e = parse_expr("a ? b : c")
    assert isinstance(e, A.Ternary)


def test_unary_chain():
    e = parse_expr("!-~a")
    assert isinstance(e, A.Unary) and e.op == "!"
    assert e.operand.op == "-"
    assert e.operand.operand.op == "~"


def test_postfix_index_and_call():
    e = parse_expr("f(argv[1][2], 3)")
    assert isinstance(e, A.Call) and e.func == "f"
    idx = e.args[0]
    assert isinstance(idx, A.Index) and isinstance(idx.base, A.Index)


def test_incdec_prefix_postfix():
    body = parse_main_body("++i; i--;")
    assert isinstance(body[0].expr, A.IncDec) and body[0].expr.prefix
    assert isinstance(body[1].expr, A.IncDec) and not body[1].expr.prefix


def test_compound_assignment():
    body = parse_main_body("x += 2;")
    assign = body[0].expr
    assert isinstance(assign, A.Assign) and assign.op == "+="


def test_for_loop_with_decl():
    body = parse_main_body("for (int i = 0; i < 3; i++) { x = i; }")
    loop = body[0]
    assert isinstance(loop, A.For)
    assert isinstance(loop.init, A.VarDecl)
    assert loop.cond.op == "<"


def test_for_loop_headless():
    body = parse_main_body("for (;;) break;")
    loop = body[0]
    assert loop.init is None and loop.cond is None and loop.step is None


def test_while_and_dowhile():
    body = parse_main_body("while (x) x--; do x++; while (x < 3);")
    assert isinstance(body[0], A.While)
    assert isinstance(body[1], A.DoWhile)


def test_if_else_if_chain():
    body = parse_main_body("if (a) x = 1; else if (b) x = 2; else x = 3;")
    outer = body[0]
    assert isinstance(outer, A.If)
    inner = outer.else_body[0]
    assert isinstance(inner, A.If) and inner.else_body


def test_array_decl_with_string_init():
    body = parse_main_body('char s[8] = "hi";')
    decl = body[0]
    assert decl.array_init == b"hi"


def test_array_decl_with_list_init():
    body = parse_main_body("int a[3] = {1, -2, 3};")
    assert body[0].array_init == (1, -2, 3)


def test_assert_halt_return():
    body = parse_main_body("assert(x > 0); halt(2); return 1;")
    assert isinstance(body[0], A.AssertStmt)
    assert isinstance(body[1], A.Halt)
    assert isinstance(body[2], A.Return)


def test_assignment_to_rvalue_rejected():
    with pytest.raises(ParseError):
        parse_main_body("1 = 2;")


def test_missing_semicolon_rejected():
    with pytest.raises(ParseError):
        parse_main_body("x = 1")


def test_unknown_toplevel_rejected():
    with pytest.raises(ParseError):
        parse("banana main() {}")


def test_2d_local_decl():
    body = parse_main_body("char grid[2][3];")
    assert isinstance(body[0].var_type, Array2DType)
    assert body[0].var_type.rows == 2 and body[0].var_type.cols == 3


# -- bounded nesting ------------------------------------------------------------------

from repro.lang import compile_program  # noqa: E402
from repro.lang.interp import run_concrete  # noqa: E402
from repro.lang.parser import MAX_NESTING  # noqa: E402

# Each shape with n levels, and the levels main's body adds around them:
# a return statement and its expression, or nothing around a bare block.
NESTED = {
    "parens": (lambda n: "return " + "(" * n + "1" + ")" * n + ";", 2),
    "braces": (lambda n: "{" * n + "}" * n + " return 1;", 0),
    "unary minus": (lambda n: "return " + "- " * n + "1;", 2),
}


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_nesting_at_the_limit_compiles_and_runs(shape):
    build, around = NESTED[shape]
    n = MAX_NESTING - around
    module = compile_program("int main() { %s }" % build(n))
    want = -1 if shape == "unary minus" and n % 2 else 1
    assert run_concrete(module, []).exit_code == want & 0xFFFFFFFF


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_nesting_past_the_limit_is_a_parse_error(shape):
    build, around = NESTED[shape]
    with pytest.raises(ParseError, match=f"MAX_NESTING={MAX_NESTING}"):
        compile_program("int main() { %s }" % build(MAX_NESTING - around + 1))


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_twenty_thousand_levels_are_a_parse_error(shape):
    build, _ = NESTED[shape]
    with pytest.raises(ParseError):
        compile_program("int main() { %s }" % build(20_000))


def test_else_if_chains_and_precedence_climbing_keep_their_trees():
    body = parse_main_body("if (a) x = 1; else if (b) x = 2; else x = 3;")
    assert isinstance(body[0].else_body[0], A.If)
    assert isinstance(body[0].else_body[0].else_body[0], A.ExprStmt)
    expr = parse_expr("a - b * c + d < e == f || g && h")
    assert expr.op == "||"
    assert expr.left.op == "==" and expr.left.left.op == "<"
    assert expr.left.left.left.op == "+" and expr.left.left.left.left.op == "-"
    assert expr.left.left.left.left.right.op == "*"
    assert expr.right.op == "&&"

"""Lexer tests."""

import pytest

from repro.lang.lexer import LexError, tokenize


def kinds(src):
    return [(t.kind, t.text) for t in tokenize(src)[:-1]]


def test_keywords_vs_identifiers():
    toks = tokenize("int intx if iffy")
    assert [t.kind for t in toks[:-1]] == ["kw", "ident", "kw", "ident"]


def test_integer_literals():
    toks = tokenize("0 42 0xFF 0x10")
    assert [t.value for t in toks[:-1]] == [0, 42, 255, 16]


def test_char_literals_and_escapes():
    toks = tokenize(r"'a' '\n' '\t' '\\' '\0'")
    assert [t.value for t in toks[:-1]] == [97, 10, 9, 92, 0]


def test_string_literals():
    toks = tokenize(r'"hi" "a\nb" ""')
    assert [t.value for t in toks[:-1]] == [b"hi", b"a\nb", b""]


def test_multichar_punct_longest_match():
    assert [t.text for t in tokenize("<<= << <= <")[:-1]] == ["<<=", "<<", "<=", "<"]
    assert [t.text for t in tokenize("++ +=")[:-1]] == ["++", "+="]


def test_comments_skipped():
    toks = tokenize("a // line comment\nb /* block\ncomment */ c")
    assert [t.text for t in toks[:-1]] == ["a", "b", "c"]


def test_line_numbers_tracked():
    toks = tokenize("a\nb\n  c")
    assert [t.line for t in toks[:-1]] == [1, 2, 3]
    assert toks[2].col == 3


def test_unterminated_string_raises():
    with pytest.raises(LexError):
        tokenize('"oops')


def test_unterminated_block_comment_raises():
    with pytest.raises(LexError):
        tokenize("/* never ends")


def test_bad_character_raises():
    with pytest.raises(LexError):
        tokenize("a @ b")


def test_eof_token_terminates():
    assert tokenize("")[-1].kind == "eof"


@pytest.mark.parametrize("literal", ["0x", "0X;", "0xg"])
def test_hex_prefix_without_digits_is_a_lex_error(literal):
    from repro.lang import compile_program

    source = "int main(){ int x = " + literal + "; return x; }"
    with pytest.raises(LexError):
        compile_program(source)
    with pytest.raises(LexError) as err:
        compile_program(source, include_stdlib=False)
    assert (err.value.line, err.value.col) == (1, 21)
    with pytest.raises(LexError, match="hex literal has no digits at line 2:3"):
        tokenize("a\n  " + literal)


@pytest.mark.parametrize(
    "src, col",
    [
        ("²", 1),      # superscript two: str.isdigit() says yes
        ("1²", 2),     # a number literal stops at the ASCII digits
        ("١٢", 1),     # Arabic-Indic digits: int() would read 12
        ("a²", 2),     # str.isalnum() says yes
        ("xé", 2),
    ],
)
def test_only_ascii_digits_and_identifiers(src, col):
    with pytest.raises(LexError) as err:
        tokenize("int x;\n" + src)
    assert (err.value.line, err.value.col) == (2, col)


def test_non_ascii_number_never_escapes_compile_program():
    from repro.lang import compile_program

    for body in ("return 1²;", "return ١٢;", "int a² = 1; return 0;",
                 "return '€';", 'char s[4] = "€"; return 0;'):
        with pytest.raises(LexError):
            compile_program("int main() { %s }" % body)

"""Recursive-descent parser for MiniC.

Grammar (C subset):

    program   := (funcdef | vardecl ';')*
    funcdef   := type ident '(' params ')' '{' stmt* '}'
    vardecl   := type ident ('[' INT ']')? ('=' init)?
    stmt      := vardecl ';' | if | while | do-while | for | 'break' ';'
               | 'continue' ';' | 'return' expr? ';' | 'assert' '(' expr ')' ';'
               | 'halt' '(' expr? ')' ';' | '{' stmt* '}' | expr ';'
    expr      := assignment with C precedence, ternary, '&&'/'||', '++'/'--'

Nesting is bounded by :data:`MAX_NESTING`: every statement, every
(sub)expression that can hold a statement or expression of its own
(parentheses, brackets, call arguments, ternary arms, assignment
right-hand sides) and every prefix operator is one level.  Deeper
source is a :class:`ParseError`, not a ``RecursionError`` somewhere in
the parser, the lowering, the CFG or the interpreter.
"""

from __future__ import annotations

from . import ast_nodes as A
from .lexer import Token, tokenize
from .types import BY_NAME, Array2DType, ArrayType, ScalarType


# Levels of nesting a program may use (module docstring).  It sits below
# the shallowest depth at which any stage of compile_program or the
# concrete interpreter runs out of Python stack under the default
# recursion limit, with room for the caller's own frames.
MAX_NESTING = 64


class ParseError(Exception):
    def __init__(self, message: str, token: Token):
        super().__init__(f"{message} at line {token.line}:{token.col} (near {token.text!r})")
        self.token = token


class Parser:
    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.pos = 0
        self.depth = 0

    # -- token helpers --------------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        if self.at(kind, text):
            return self.next()
        return None

    def enter(self) -> None:
        """One level deeper (undone by :meth:`leave`); past
        :data:`MAX_NESTING` the program is refused."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than MAX_NESTING={MAX_NESTING} levels", self.peek())

    def leave(self) -> None:
        self.depth -= 1

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.accept(kind, text)
        if tok is None:
            expected = text if text is not None else kind
            raise ParseError(f"expected {expected!r}", self.peek())
        return tok

    # -- top level -------------------------------------------------------------

    def parse_program(self) -> A.Program:
        functions: list[A.FuncDef] = []
        globals_: list[A.VarDecl] = []
        first = self.peek()
        while not self.at("eof"):
            if not (self.at("kw") and (self.peek().text in BY_NAME or self.peek().text == "void")):
                raise ParseError("expected type at top level", self.peek())
            if self.peek(2).text == "(":
                functions.append(self.parse_funcdef())
            else:
                decl = self.parse_vardecl()
                self.expect("punct", ";")
                globals_.append(decl)
        return A.Program(first.line, tuple(functions), tuple(globals_))

    def parse_type(self) -> ScalarType | None:
        tok = self.expect("kw")
        if tok.text == "void":
            return None
        scalar = BY_NAME.get(tok.text)
        if scalar is None:
            raise ParseError(f"unknown type {tok.text!r}", tok)
        return scalar

    def parse_funcdef(self) -> A.FuncDef:
        line = self.peek().line
        return_type = self.parse_type()
        name = self.expect("ident").text
        self.expect("punct", "(")
        params: list[A.Param] = []
        if not self.at("punct", ")"):
            while True:
                p_line = self.peek().line
                p_type = self.parse_type()
                if p_type is None:
                    if not params and self.at("punct", ")"):
                        break  # f(void)
                    raise ParseError("void parameter", self.peek())
                p_name = self.expect("ident").text
                if self.accept("punct", "["):
                    size_tok = self.accept("int")
                    self.expect("punct", "]")
                    size = size_tok.value if size_tok else None
                    if self.accept("punct", "["):
                        cols_tok = self.accept("int")
                        self.expect("punct", "]")
                        cols = cols_tok.value if cols_tok else None
                        params.append(A.Param(p_line, p_name, Array2DType(p_type, size, cols)))
                    else:
                        params.append(A.Param(p_line, p_name, ArrayType(p_type, size)))
                else:
                    params.append(A.Param(p_line, p_name, p_type))
                if not self.accept("punct", ","):
                    break
        self.expect("punct", ")")
        body = self.parse_block()
        return A.FuncDef(line, name, return_type, tuple(params), body)

    def parse_block(self) -> tuple:
        self.expect("punct", "{")
        stmts: list = []
        while not self.accept("punct", "}"):
            stmts.append(self.parse_stmt())
        return tuple(stmts)

    # -- statements ---------------------------------------------------------------

    def parse_vardecl(self) -> A.VarDecl:
        line = self.peek().line
        base = self.parse_type()
        if base is None:
            raise ParseError("cannot declare void variable", self.peek())
        name = self.expect("ident").text
        if self.accept("punct", "["):
            size = self.expect("int").value
            self.expect("punct", "]")
            if self.at("punct", "["):
                self.next()
                cols = self.expect("int").value
                self.expect("punct", "]")
                return A.VarDecl(line, name, Array2DType(base, size, cols), None, None)
            array_init: bytes | tuple[int, ...] | None = None
            if self.accept("punct", "="):
                if self.at("string"):
                    array_init = self.next().value
                else:
                    self.expect("punct", "{")
                    values: list[int] = []
                    if not self.at("punct", "}"):
                        while True:
                            values.append(self._parse_const_int())
                            if not self.accept("punct", ","):
                                break
                    self.expect("punct", "}")
                    array_init = tuple(values)
            return A.VarDecl(line, name, ArrayType(base, size), None, array_init)
        init = None
        if self.accept("punct", "="):
            init = self.parse_expr()
        return A.VarDecl(line, name, base, init, None)

    def _parse_const_int(self) -> int:
        negative = bool(self.accept("punct", "-"))
        tok = self.accept("int") or self.expect("char")
        value = tok.value
        return -value if negative else value

    def parse_stmt(self) -> A.Stmt:
        self.enter()
        stmt = self._parse_stmt()
        self.leave()
        return stmt

    def _parse_stmt(self) -> A.Stmt:
        tok = self.peek()
        if tok.kind == "punct" and tok.text == "{":
            stmts = self.parse_block()
            # A bare block has no scoping consequences in MiniC (locals are
            # function-scoped, like the paper's LLVM view); inline it.
            return A.If(tok.line, A.IntLit(tok.line, 1), stmts, ())
        if tok.kind == "kw":
            if tok.text in BY_NAME:
                decl = self.parse_vardecl()
                self.expect("punct", ";")
                return decl
            if tok.text == "if":
                return self.parse_if()
            if tok.text == "while":
                self.next()
                self.expect("punct", "(")
                cond = self.parse_expr()
                self.expect("punct", ")")
                body = self._stmt_or_block()
                return A.While(tok.line, cond, body)
            if tok.text == "do":
                self.next()
                body = self._stmt_or_block()
                self.expect("kw", "while")
                self.expect("punct", "(")
                cond = self.parse_expr()
                self.expect("punct", ")")
                self.expect("punct", ";")
                return A.DoWhile(tok.line, cond, body)
            if tok.text == "for":
                return self.parse_for()
            if tok.text == "break":
                self.next()
                self.expect("punct", ";")
                return A.Break(tok.line)
            if tok.text == "continue":
                self.next()
                self.expect("punct", ";")
                return A.Continue(tok.line)
            if tok.text == "return":
                self.next()
                value = None if self.at("punct", ";") else self.parse_expr()
                self.expect("punct", ";")
                return A.Return(tok.line, value)
            if tok.text == "assert":
                self.next()
                self.expect("punct", "(")
                cond = self.parse_expr()
                self.expect("punct", ")")
                self.expect("punct", ";")
                return A.AssertStmt(tok.line, cond)
            if tok.text == "halt":
                self.next()
                self.expect("punct", "(")
                code = None if self.at("punct", ")") else self.parse_expr()
                self.expect("punct", ")")
                self.expect("punct", ";")
                return A.Halt(tok.line, code)
        expr = self.parse_expr()
        self.expect("punct", ";")
        return A.ExprStmt(tok.line, expr)

    def _stmt_or_block(self) -> tuple:
        if self.at("punct", "{"):
            return self.parse_block()
        return (self.parse_stmt(),)

    def parse_if(self) -> A.If:
        tok = self.expect("kw", "if")
        self.expect("punct", "(")
        cond = self.parse_expr()
        self.expect("punct", ")")
        then_body = self._stmt_or_block()
        else_body: tuple = ()
        if self.accept("kw", "else"):
            else_body = self._stmt_or_block()
        return A.If(tok.line, cond, then_body, else_body)

    def parse_for(self) -> A.For:
        tok = self.expect("kw", "for")
        self.expect("punct", "(")
        init: A.Stmt | None = None
        if not self.at("punct", ";"):
            if self.at("kw") and self.peek().text in BY_NAME:
                init = self.parse_vardecl()
            else:
                init = A.ExprStmt(self.peek().line, self.parse_expr())
        self.expect("punct", ";")
        cond = None if self.at("punct", ";") else self.parse_expr()
        self.expect("punct", ";")
        step: A.Stmt | None = None
        if not self.at("punct", ")"):
            step = A.ExprStmt(self.peek().line, self.parse_expr())
        self.expect("punct", ")")
        body = self._stmt_or_block()
        return A.For(tok.line, init, cond, step, tuple(body))

    # -- expressions -----------------------------------------------------------------

    _BINARY_LEVELS = [
        ["||"],
        ["&&"],
        ["|"],
        ["^"],
        ["&"],
        ["==", "!="],
        ["<", ">", "<=", ">="],
        ["<<", ">>"],
        ["+", "-"],
        ["*", "/", "%"],
    ]

    _ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}

    def parse_expr(self) -> A.Expr:
        return self.parse_assignment()

    def parse_assignment(self) -> A.Expr:
        self.enter()
        left = self.parse_ternary()
        tok = self.peek()
        if tok.kind == "punct" and tok.text in self._ASSIGN_OPS:
            if not isinstance(left, (A.Name, A.Index)):
                raise ParseError("invalid assignment target", tok)
            self.next()
            left = A.Assign(tok.line, left, tok.text, self.parse_assignment())
        self.leave()
        return left

    def parse_ternary(self) -> A.Expr:
        cond = self.parse_binary(0)
        tok = self.accept("punct", "?")
        if tok is None:
            return cond
        then_expr = self.parse_assignment()
        self.expect("punct", ":")
        else_expr = self.parse_assignment()
        return A.Ternary(tok.line, cond, then_expr, else_expr)

    _BINARY_LEVEL = {op: level for level, ops in enumerate(_BINARY_LEVELS) for op in ops}

    def parse_binary(self, level: int) -> A.Expr:
        """Operators of precedence ``level`` (an index into
        :attr:`_BINARY_LEVELS`) and tighter, all left-associative, by
        precedence climbing: a frame per operator, not per level."""
        left = self.parse_unary()
        while True:
            tok = self.peek()
            op_level = self._BINARY_LEVEL.get(tok.text) if tok.kind == "punct" else None
            if op_level is None or op_level < level:
                return left
            self.next()
            right = self.parse_binary(op_level + 1)
            left = A.Binary(tok.line, tok.text, left, right)

    def parse_unary(self) -> A.Expr:
        tok = self.peek()
        if tok.kind == "punct" and tok.text in ("-", "!", "~"):
            self.next()
            self.enter()
            expr = A.Unary(tok.line, tok.text, self.parse_unary())
            self.leave()
            return expr
        if tok.kind == "punct" and tok.text in ("++", "--"):
            self.next()
            self.enter()
            target = self.parse_unary()
            self.leave()
            if not isinstance(target, (A.Name, A.Index)):
                raise ParseError("invalid increment target", tok)
            return A.IncDec(tok.line, target, tok.text, True)
        return self.parse_postfix()

    def parse_postfix(self) -> A.Expr:
        expr = self.parse_primary()
        while True:
            tok = self.peek()
            if tok.kind == "punct" and tok.text == "[":
                self.next()
                index = self.parse_expr()
                self.expect("punct", "]")
                expr = A.Index(tok.line, expr, index)
            elif tok.kind == "punct" and tok.text == "(" and isinstance(expr, A.Name):
                self.next()
                args: list[A.Expr] = []
                if not self.at("punct", ")"):
                    while True:
                        args.append(self.parse_assignment())
                        if not self.accept("punct", ","):
                            break
                self.expect("punct", ")")
                expr = A.Call(tok.line, expr.ident, tuple(args))
            elif tok.kind == "punct" and tok.text in ("++", "--"):
                self.next()
                if not isinstance(expr, (A.Name, A.Index)):
                    raise ParseError("invalid increment target", tok)
                expr = A.IncDec(tok.line, expr, tok.text, False)
            else:
                return expr

    def parse_primary(self) -> A.Expr:
        tok = self.next()
        if tok.kind == "int":
            return A.IntLit(tok.line, tok.value)
        if tok.kind == "char":
            return A.CharLit(tok.line, tok.value)
        if tok.kind == "string":
            return A.StringLit(tok.line, tok.value)
        if tok.kind == "ident":
            return A.Name(tok.line, tok.text)
        if tok.kind == "punct" and tok.text == "(":
            expr = self.parse_expr()
            self.expect("punct", ")")
            return expr
        raise ParseError("expected expression", tok)


def parse(source: str) -> A.Program:
    """Parse MiniC source text into an AST."""
    return Parser(source).parse_program()

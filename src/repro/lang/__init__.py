"""MiniC front end: lexer -> parser -> AST -> CFG IR (+ concrete interpreter).

Public API::

    from repro.lang import compile_program, run_concrete
    module = compile_program("int main(int argc, char argv[][]) { return 0; }")
"""

from .ast_nodes import Program
from .cfg import Block, Function, MemRef, Module
from .interp import (
    AssertionFailure,
    InterpError,
    Interpreter,
    OutOfBounds,
    Replay,
    RunResult,
    replay,
    run_concrete,
)
from .lexer import LexError, tokenize
from .lower import LowerError, lower_program
from .parser import ParseError, parse
from .stdlib import STDLIB_SOURCE
from .types import CHAR, INT, UINT, Array2DType, ArrayType, ScalarType


def compile_program(source: str, name: str = "<program>", include_stdlib: bool = True) -> Module:
    """Compile MiniC source text to a CFG module (stdlib included by default)."""
    full = (STDLIB_SOURCE + "\n" + source) if include_stdlib else source
    return lower_program(parse(full), source_name=name)


__all__ = [
    "AssertionFailure",
    "Array2DType",
    "ArrayType",
    "Block",
    "CHAR",
    "Function",
    "INT",
    "InterpError",
    "Interpreter",
    "LexError",
    "LowerError",
    "MemRef",
    "Module",
    "OutOfBounds",
    "ParseError",
    "Program",
    "Replay",
    "RunResult",
    "STDLIB_SOURCE",
    "ScalarType",
    "UINT",
    "compile_program",
    "lower_program",
    "parse",
    "replay",
    "run_concrete",
    "tokenize",
]

"""Scalar and array types for MiniC.

MiniC mirrors the C subset the paper's COREUTILS experiments exercise:
``int`` is 32-bit signed, ``char`` is 8-bit *unsigned* (bytes compare
unsigned, as KLEE's symbolic argv bytes do), ``uint`` is 32-bit unsigned.
Arrays have static sizes and pass by reference.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ScalarType:
    width: int
    signed: bool
    name: str

    def __str__(self) -> str:
        return self.name


INT = ScalarType(32, True, "int")
UINT = ScalarType(32, False, "uint")
CHAR = ScalarType(8, False, "char")

BY_NAME = {"int": INT, "uint": UINT, "char": CHAR}


@dataclass(frozen=True)
class ArrayType:
    element: ScalarType
    size: int | None  # None for unsized array parameters (by-reference)

    def __str__(self) -> str:
        return f"{self.element}[{'' if self.size is None else self.size}]"


@dataclass(frozen=True)
class Array2DType:
    """A 2-D array (rows × cols); models the symbolic ``argv``.

    Parameters may leave both dimensions unsized (``char argv[][]``); the
    runtime region carries the actual geometry.
    """

    element: ScalarType
    rows: int | None
    cols: int | None

    def __str__(self) -> str:
        rows = "" if self.rows is None else self.rows
        cols = "" if self.cols is None else self.cols
        return f"{self.element}[{rows}][{cols}]"

"""Registry of the MiniC COREUTILS-style corpus.

Each entry bundles the MiniC source, a human description, and default
symbolic-input dimensions (N args × L bytes) sized so that plain symbolic
execution is non-trivial but bounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..env.argv import ArgvSpec
from ..lang import Module, compile_program
from . import (
    basename,
    cksum_prog,
    nl_prog,
    split_prog,
    tac_stdin,
    wc_stdin,
    cat_prog,
    comm,
    cut,
    dirname,
    echo,
    expand,
    factor,
    false_prog,
    fold,
    head_prog,
    join_prog,
    link_prog,
    nice_prog,
    paste,
    pr,
    rev,
    seq,
    sleep_prog,
    sum_prog,
    test_expr,
    tr_prog,
    true_prog,
    tsort,
    uniq,
    wc,
    yes_prog,
)

_MODULES = [
    basename,
    cksum_prog,
    nl_prog,
    split_prog,
    tac_stdin,
    wc_stdin,
    cat_prog,
    comm,
    cut,
    dirname,
    echo,
    expand,
    factor,
    false_prog,
    fold,
    head_prog,
    join_prog,
    link_prog,
    nice_prog,
    paste,
    pr,
    rev,
    seq,
    sleep_prog,
    sum_prog,
    test_expr,
    tr_prog,
    true_prog,
    tsort,
    uniq,
    wc,
    yes_prog,
]


@dataclass(frozen=True)
class ProgramInfo:
    name: str
    source: str
    description: str
    default_n: int
    default_l: int
    default_stdin: int = 0

    def compile(self) -> Module:
        return _compile_cached(self.name)

    def spec(self, n_args: int | None = None, arg_len: int | None = None) -> ArgvSpec:
        """The symbolic input this program is explored with: its default
        dimensions unless overridden, and always its stdin length."""
        return ArgvSpec(
            n_args=self.default_n if n_args is None else n_args,
            arg_len=self.default_l if arg_len is None else arg_len,
            stdin_len=self.default_stdin,
        )


PROGRAMS: dict[str, ProgramInfo] = {
    mod.NAME: ProgramInfo(
        name=mod.NAME,
        source=mod.SOURCE,
        description=mod.DESCRIPTION,
        default_n=mod.DEFAULT_N,
        default_l=mod.DEFAULT_L,
        default_stdin=getattr(mod, "DEFAULT_STDIN", 0),
    )
    for mod in _MODULES
}


@lru_cache(maxsize=None)
def _compile_cached(name: str) -> Module:
    info = PROGRAMS[name]
    return compile_program(info.source, name=info.name)


def get_program(name: str) -> ProgramInfo:
    info = PROGRAMS.get(name)
    if info is None:
        raise KeyError(f"unknown corpus program {name!r}; have {sorted(PROGRAMS)}")
    return info


def all_programs() -> list[ProgramInfo]:
    return [PROGRAMS[name] for name in sorted(PROGRAMS)]

"""Symbolic execution engine: Algorithm 1, state merging, similarity, tests."""

from ..stats import CoverageTracker
from .executor import Engine, EngineConfig
from .merge import merge_states, split_guard
from .similarity import (
    LiveVarSimilarity,
    MergeAlways,
    MergeNever,
    QceFullSimilarity,
    QceSimilarity,
)
from .state import ArrayBinding, Frame, Region, SymState
from .testgen import TestCase, TestSuite, make_test_case

__all__ = [
    "ArrayBinding",
    "CoverageTracker",
    "Engine",
    "EngineConfig",
    "Frame",
    "LiveVarSimilarity",
    "MergeAlways",
    "MergeNever",
    "QceFullSimilarity",
    "QceSimilarity",
    "Region",
    "SymState",
    "TestCase",
    "TestSuite",
    "make_test_case",
    "merge_states",
    "split_guard",
]

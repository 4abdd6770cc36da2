"""Supporting static analyses: call graph, liveness, trip counts."""

from .callgraph import bottom_up_order, call_graph, is_recursive
from .liveness import block_use_def, live_at, live_in_sets
from .tripcount import loop_trip_count, trip_counts

__all__ = [
    "block_use_def",
    "bottom_up_order",
    "call_graph",
    "is_recursive",
    "live_at",
    "live_in_sets",
    "loop_trip_count",
    "trip_counts",
]

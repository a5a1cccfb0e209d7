"""Temporal regular path queries with compact answer representations.

Evaluate path queries that navigate both a graph and time over
interval-annotated edge-labeled graphs, producing answers in one of four
compact forms (time-folded, distance-folded, rectangles, cropped rectangles)
or as explicit point tuples from the brute-force oracle.
"""

from .errors import (
    DenseInfeasibleError,
    EmptyIntervalError,
    FixpointLimitError,
    GraphParseError,
    IntervalDomainError,
    InvalidTupleError,
    MinimizeGuardError,
    ModeError,
    QueryParseError,
    TrpqError,
)
from .intervals import Interval
from .graph import TemporalGraph, graph_nodes, load_graph, serialize_graph
from .query import Trpq, format_query, parse_query, power
from .oracle import PointTuple, eval_direct, induced_relation
from .tuples import (
    CTuple,
    DTuple,
    TDTuple,
    TTuple,
    ctuple_valid,
    delta_at,
    unfold_c,
    unfold_d,
    unfold_t,
    unfold_td,
)
from .evaluate import (
    AnswerSet,
    eval_c,
    eval_d,
    eval_t,
    eval_td,
    join_c,
    join_td,
)
from .compact import (
    coalesce_d,
    coalesce_t,
    greedy_reduce,
    minimize_exact,
    minimum_covers,
    remove_subsumed,
)
from .bundled import bundled_graph, bundled_query, running_example

__version__ = "0.1.0"

__all__ = [
    "AnswerSet",
    "CTuple",
    "DTuple",
    "DenseInfeasibleError",
    "EmptyIntervalError",
    "FixpointLimitError",
    "GraphParseError",
    "Interval",
    "IntervalDomainError",
    "InvalidTupleError",
    "MinimizeGuardError",
    "ModeError",
    "PointTuple",
    "QueryParseError",
    "TDTuple",
    "TTuple",
    "TemporalGraph",
    "Trpq",
    "TrpqError",
    "bundled_graph",
    "bundled_query",
    "coalesce_d",
    "coalesce_t",
    "ctuple_valid",
    "delta_at",
    "eval_c",
    "eval_d",
    "eval_direct",
    "eval_t",
    "eval_td",
    "format_query",
    "graph_nodes",
    "greedy_reduce",
    "induced_relation",
    "join_c",
    "join_td",
    "load_graph",
    "minimize_exact",
    "minimum_covers",
    "parse_query",
    "power",
    "remove_subsumed",
    "running_example",
    "serialize_graph",
    "unfold_c",
    "unfold_d",
    "unfold_t",
    "unfold_td",
]

"""A small distributed-style tabular dataflow engine.

This package is the repository's stand-in for Apache Spark (see
DESIGN.md), cut to what Algorithm 1 issues: lazy logical plans over
partitioned row or columnar tables, filters and row maps fused into
generated per-partition kernels, an inner broadcast join, a
single-pass split by key, ascending global sorts, unions and
repartitions, executed serially, on a process pool or under a
simulated-cluster cost model.

The names below are the ones the rest of ``repro`` imports from here;
executors, fault injection and the plan, expression and schema
internals are imported from their submodules.
"""

from repro.engine.columnar import BytesColumn, ColumnarPartition
from repro.engine.context import EngineContext
from repro.engine.errors import (
    EngineError,
    ExecutionError,
    InjectedFaultError,
    PlanError,
)
from repro.engine.expressions import apply, col
from repro.engine.schema import Schema
from repro.engine.storage import TableStore

__all__ = [
    "EngineContext",
    "EngineError",
    "ExecutionError",
    "InjectedFaultError",
    "PlanError",
    "TableStore",
    "BytesColumn",
    "ColumnarPartition",
    "Schema",
    "apply",
    "col",
]

"""A small distributed-style tabular dataflow engine.

This package is the repository's stand-in for Apache Spark (see
DESIGN.md), cut to what Algorithm 1 issues: lazy logical plans over
partitioned row or columnar tables, run as they are built. Each chain
of filters, projections and maps is one per-partition task that
evaluates bound expressions over whole columns; the wide stages are an
inner broadcast join, a single-pass split by key, ascending global
sorts, unions and repartitions. Plans execute serially in the driver
process.

The names below are the ones the rest of ``repro`` imports from here;
the executor and the plan, expression and schema internals are imported
from their submodules.
"""

from repro.engine.columnar import BytesColumn, ColumnarPartition
from repro.engine.context import EngineContext
from repro.engine.errors import EngineError, ExecutionError, PlanError
from repro.engine.expressions import apply, col
from repro.engine.schema import Schema
from repro.engine.storage import TableStore

__all__ = [
    "EngineContext",
    "EngineError",
    "ExecutionError",
    "PlanError",
    "TableStore",
    "BytesColumn",
    "ColumnarPartition",
    "Schema",
    "apply",
    "col",
]

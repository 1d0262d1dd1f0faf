"""Physical per-partition operations.

The executor fuses the chain of narrow plan nodes above a wide stage into
one :class:`PartitionTask` per input partition. Wide operations (the
broadcast join, sort, split) are driver-side exchanges plus the
per-partition tasks defined here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter

import numpy as np

from repro.engine.columnar import (
    ColumnarPartition,
    DictColumn,
    columns_to_rows,
    compress_column,
)
from repro.engine.expressions import (
    BoundAnd,
    BoundApply,
    BoundBinary,
    BoundColumn,
    BoundInSet,
    BoundLiteral,
    BoundOr,
    BoundUnary,
)


@dataclass(frozen=True)
class FilterStep:
    predicate: object


@dataclass(frozen=True)
class ProjectStep:
    exprs: tuple


@dataclass(frozen=True)
class FlatMapStep:
    func: object
    #: Column count of the rows *func* yields (the plan node's schema
    #: width): how a column step downstream of this barrier lays out an
    #: empty output.
    out_width: int

    def run(self, rows):
        func = self.func
        out = []
        for r in rows:
            out.extend(func(r))
        return out


@dataclass(frozen=True)
class MapPartitionStep:
    func: object
    out_width: int  # as :attr:`FlatMapStep.out_width`

    def run(self, rows):
        return self.func(rows)


def evaluate(expr, columns, n):
    """One bound expression over *n* rows held as *columns*: its
    whole output column.

    A column reference is the buffer itself (zero-copy) and a literal
    is replicated. An apply whose callable publishes ``batch_call`` is
    one call on the argument columns; ``batch_call`` must return
    ``[func(*cells) for cells in zip(*columns)]``, and domain layers use
    it to hoist per-row work out of the loop (``repro.core``). Anything
    else is the bound expression called on each row, so short-circuits,
    ``bool()`` coercion and exceptions are its own; its rows hold None
    for columns it does not read (:func:`columns_read`), undecoded.
    """
    if isinstance(expr, BoundColumn):
        return columns[expr.index]
    if isinstance(expr, BoundLiteral):
        return [expr.value] * n
    if isinstance(expr, BoundApply):
        batch = getattr(expr.func, "batch_call", None)
        if callable(batch):
            return batch(*(columns[i] for i in expr.indices))
    read = columns_read(expr)
    if read is not None:
        columns = [c if i in read else repeat(None, n)
                   for i, c in enumerate(columns)]
    return [expr(row) for row in columns_to_rows(columns, n)]


def columns_read(expr):
    """Column indices *expr* reads; None if it is no bound expression."""
    if isinstance(expr, BoundColumn):
        return {expr.index}
    if isinstance(expr, BoundApply):
        return set(expr.indices)
    if isinstance(expr, BoundLiteral):
        return set()
    if isinstance(expr, (BoundUnary, BoundInSet)):
        return columns_read(expr.operand)
    if not isinstance(expr, (BoundBinary, BoundAnd, BoundOr)):
        return None
    left, right = columns_read(expr.left), columns_read(expr.right)
    return None if left is None or right is None else left | right


def partition_batch(step):
    """The ``batch_call`` a partition function publishes, else None.

    The columnar hook of :meth:`Table.map_partitions
    <repro.engine.table.Table.map_partitions>`: ``func(rows)`` is the
    row form, ``func.batch_call(partition)`` maps a
    :class:`ColumnarPartition` to the ``ColumnarPartition`` of the same
    rows, and is what :class:`PartitionTask` calls.
    """
    if isinstance(step, MapPartitionStep):
        batch = getattr(step.func, "batch_call", None)
        if callable(batch):
            return batch
    return None


def is_column_step(step):
    """Whether *step* runs on columns: a filter, a projection or a
    partition function that publishes ``batch_call``."""
    return isinstance(step, (FilterStep, ProjectStep)) or \
        partition_batch(step) is not None


@dataclass(frozen=True)
class PartitionTask:
    """A fused chain of narrow steps applied to one partition.

    Accepts a row list or a :class:`ColumnarPartition` and keeps one
    layout at a time. Filters, projections and partition functions with
    ``batch_call`` run on columns: a row list is transposed when the
    first of them comes. A filter builds a mask with :func:`evaluate`
    and compresses every column with :func:`compress_column` (packed
    planes stay packed), unless the mask is all true; a projection
    evaluates its expressions one whole column at a time, in order. A
    flat-map or a plain partition function is a row barrier. *width* is
    the input column count. *emit* selects the output of a chain that
    ends on columns: ``"rows"`` (collect and storage edges) or
    ``"partition"``, a :class:`ColumnarPartition` a downstream wide
    stage or :meth:`~repro.engine.table.Table.cache` keeps as buffers.
    A chain that ends in a barrier emits that barrier's row list.
    """

    steps: tuple
    width: int
    emit: str = "rows"

    def __call__(self, partition):
        # The partition is in one layout at a time: *rows*, or (when
        # rows is None) *columns* of *n* rows, *width* of them.
        rows, columns, n, width = partition, None, 0, self.width
        if isinstance(partition, ColumnarPartition):
            rows, columns, n = None, list(partition.columns), len(partition)
        for step in self.steps:
            if not is_column_step(step):
                if rows is None:
                    rows = columns_to_rows(columns, n)
                rows = step.run(rows)
                width = step.out_width
                continue
            if rows is not None:
                # A bare zip(*) transpose is one C pass, and tuple
                # columns work everywhere a step touches them. An empty
                # row list still needs *width* columns to index.
                rows = rows if isinstance(rows, list) else list(rows)
                n = len(rows)
                columns = list(zip(*rows)) if n else [()] * width
                rows = None
            if isinstance(step, FilterStep):
                if n:
                    mask = evaluate(step.predicate, columns, n)
                    if not all(mask):
                        columns = [compress_column(c, mask) for c in columns]
                        n = len(columns[0]) if columns else sum(
                            1 for m in mask if m
                        )
            elif isinstance(step, ProjectStep):
                columns = [evaluate(e, columns, n) for e in step.exprs]
                width = len(columns)
            else:
                out = partition_batch(step)(ColumnarPartition(columns, n))
                columns, n = list(out.columns), len(out)
                width = step.out_width
        if rows is not None:
            return rows
        if self.emit == "partition":
            return ColumnarPartition(columns, n)
        return columns_to_rows(columns, n)


@dataclass(frozen=True)
class BroadcastJoinTask:
    """Inner-join one left partition against a broadcast hash map of
    right rows.

    ``right_index`` maps join key -> list of right row remainders (right
    rows with the key columns removed). ``left_key_indices`` locate the
    key inside each left row.
    """

    left_key_indices: tuple
    right_index: dict

    def __call__(self, rows):
        out = []
        idx = self.right_index
        keys = self.left_key_indices
        for row in rows:
            for rem in idx.get(tuple(row[i] for i in keys), ()):
                out.append(row + rem)
        return out


@dataclass(frozen=True)
class SortPartitionTask:
    """Stable ascending sort of a single partition by key columns."""

    key_indices: tuple

    def __call__(self, rows):
        ordered = list(rows)
        if self.key_indices:
            ordered.sort(key=itemgetter(*self.key_indices))
        return ordered


@dataclass(frozen=True)
class SplitRouteTask:
    """Order a :class:`ColumnarPartition`'s rows by split group.

    The group codes are those of a dictionary-coded key column, else of
    a :class:`DictColumn` built over the key cells, and a stable argsort
    on them orders the rows. Returns the ordered partition plus a
    trailing routing column (the codes, ascending, over the group keys).
    """

    key_index: int

    def __call__(self, partition):
        route = partition.columns[self.key_index]
        if not isinstance(route, DictColumn):
            route = DictColumn.from_values(route)
        order = np.argsort(np.asarray(route.codes), kind="stable")
        ordered = partition.gather(order)
        return ColumnarPartition(
            ordered.columns + [route.gather(order)], len(ordered)
        )


def split_evenly(rows, num_partitions):
    """Split *rows* into ``num_partitions`` contiguous, balanced blocks."""
    n = len(rows)
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")
    base, extra = divmod(n, num_partitions)
    out = []
    start = 0
    for i in range(num_partitions):
        size = base + (1 if i < extra else 0)
        out.append(rows[start : start + size])
        start += size
    return out

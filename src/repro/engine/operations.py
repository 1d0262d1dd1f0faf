"""Physical per-partition operations.

Executors fuse chains of narrow plan nodes into a single
:class:`PartitionTask` per input partition; the task is a picklable object
so the multiprocessing executor can ship it to a worker process. Wide
operations (the broadcast join, sort, split) are driver-side exchanges
plus the per-partition tasks defined here.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from repro.engine.columnar import as_row_partition


@dataclass(frozen=True)
class FilterStep:
    predicate: object

    def run(self, rows):
        pred = self.predicate
        return [r for r in rows if pred(r)]


@dataclass(frozen=True)
class ProjectStep:
    exprs: tuple

    def run(self, rows):
        exprs = self.exprs
        return [tuple(e(r) for e in exprs) for r in rows]


@dataclass(frozen=True)
class FlatMapStep:
    func: object
    #: Column count of the rows *func* yields (the plan node's schema
    #: width): what a columnar kernel downstream of this barrier is
    #: compiled for, and lays an empty output out as.
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


@dataclass(frozen=True)
class PartitionTask:
    """A fused chain of narrow steps applied to one partition.

    Accepts row lists or columnar partitions (normalized to rows on
    entry), so the interpreted path runs unchanged over columnar
    sources.
    """

    steps: tuple

    def __call__(self, rows):
        rows = as_row_partition(rows)
        for step in self.steps:
            rows = step.run(rows)
        return rows


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
    """Route one partition's rows into named split groups.

    Emits a list of ``(group, row)`` pairs where the group is the row's
    value in the key column; the driver regroups the pairs into
    per-group partitions, preserving partition index and row order. The
    output is a flat list (not a per-group dict) so fault-injection
    poisoning -- silently dropping the last element -- corrupts the
    routing in a way the differential oracle detects.
    """

    key_index: int

    def __call__(self, rows):
        i = self.key_index
        return [(row[i], row) for row in rows]


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

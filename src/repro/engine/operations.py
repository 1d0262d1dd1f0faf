"""Physical per-partition operations.

Executors fuse chains of narrow plan nodes into a single
:class:`PartitionTask` per input partition; the task is a picklable object
so the multiprocessing executor can ship it to a worker process. Wide
operations (the broadcast join, sort, split, sorted partition map) are
driver-side exchanges plus the per-partition tasks defined here.
"""

from __future__ import annotations

import zlib
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
    """Join one left partition against a broadcast hash map of right rows.

    ``right_index`` maps join key -> list of right row remainders (right
    rows with the key columns removed). ``left_key_indices`` locate the
    key inside each left row.
    """

    left_key_indices: tuple
    right_index: dict
    how: str
    right_width: int

    def __call__(self, rows):
        out = []
        idx = self.right_index
        keys = self.left_key_indices
        empty = (None,) * self.right_width
        left_outer = self.how == "left"
        for row in rows:
            key = tuple(row[i] for i in keys)
            matches = idx.get(key)
            if matches:
                for rem in matches:
                    out.append(row + rem)
            elif left_outer:
                out.append(row + empty)
        return out


@dataclass(frozen=True)
class SortPartitionTask:
    """Sort a single partition by key columns with per-key direction."""

    key_indices: tuple
    ascending: tuple

    def __call__(self, rows):
        ordered = list(rows)
        if self.key_indices and all(self.ascending):
            # All-ascending (the common time-ordering case): one sort
            # with a composite key. Lexicographic tuple comparison
            # equals the stable least-significant-key-first multi-pass,
            # at one pass instead of k.
            ordered.sort(key=itemgetter(*self.key_indices))
            return ordered
        # Stable sorts applied from the least-significant key up give a
        # correct multi-key ordering with mixed directions.
        for idx, asc in reversed(list(zip(self.key_indices, self.ascending))):
            ordered.sort(key=lambda r, i=idx: r[i], reverse=not asc)
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


@dataclass(frozen=True)
class CarryMapTask:
    """Run a windowed partition function with carry rows from predecessor."""

    func: object

    def __call__(self, partition_and_carry):
        partition, carry = partition_and_carry
        return self.func(partition, carry)


def stable_hash(value):
    """Process- and run-stable hash of a shuffle key.

    The builtin :func:`hash` is salted per interpreter run for strings
    (``PYTHONHASHSEED``), so using it to route shuffle buckets makes
    partition layouts differ across fresh runs -- breaking the engine's
    determinism contract and the fleet layer's byte-identical-resume
    claim. This CRC32-based hash is stable everywhere while preserving
    the invariant a keyed repartition relies on: values that compare
    equal hash equally, including across numeric types
    (``1 == 1.0 == True``).
    """
    return zlib.crc32(_stable_bytes(value))


def _stable_bytes(value):
    """Tagged canonical byte encoding of a key value (or key tuple)."""
    if value is None:
        return b"n"
    if isinstance(value, (bool, int, float)):
        if value != value:  # NaN: one canonical bucket for all of them
            return b"f:nan"
        try:
            as_int = int(value)
        except (OverflowError, ValueError):  # infinities
            return b"f:" + repr(float(value)).encode("ascii")
        if value == as_int:
            return b"i:" + repr(as_int).encode("ascii")
        return b"f:" + repr(float(value)).encode("ascii")
    if isinstance(value, str):
        return b"s:" + value.encode("utf-8", "surrogatepass")
    if isinstance(value, bytes):
        return b"b:" + value
    if isinstance(value, tuple):
        parts = [b"t:"]
        for item in value:
            piece = _stable_bytes(item)
            parts.append(str(len(piece)).encode("ascii"))
            parts.append(b":")
            parts.append(piece)
        return b"".join(parts)
    if isinstance(value, frozenset):
        parts = sorted(_stable_bytes(item) for item in value)
        return b"fs:" + b"|".join(parts)
    # Exotic key types fall back to repr; deterministic for values whose
    # repr is (which covers everything the trace domain produces).
    return b"r:" + repr(value).encode("utf-8", "surrogatepass")


def hash_partition(rows, key_indices, num_buckets):
    """Split *rows* into ``num_buckets`` lists by a stable key hash.

    Uses :func:`stable_hash`, not the builtin ``hash``, so the bucket a
    row lands in is identical across interpreter runs, hash seeds and
    worker processes.
    """
    buckets = [[] for _unused in range(num_buckets)]
    for row in rows:
        key = tuple(row[i] for i in key_indices)
        buckets[stable_hash(key) % num_buckets].append(row)
    return buckets


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

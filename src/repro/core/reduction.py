"""Constraint reduction (Sec. 4.1, Algorithm 1 lines 10-11).

A constraint set ``C = {c_i}`` with ``c = (s_id, d, F)`` is joined to
each signal sequence on the signal type (line 10). If the enable flag
``d`` holds, all marker functions ``f ∈ F`` run; per element the flag
``e`` becomes true if any ``f`` is true (Eq. 1). Line 11 keeps the
elements where the flag is false -- markers flag *redundant* elements,
"leaving task-relevant elements only".

Marker functions receive the time-ordered (t, v) sequence (plus the
previous element as carry) so they can express the paper's examples:
repeated data points, temporal-gap conditions, sending-condition checks.
Aggregation-based markers (inherently distributable operations in Big
Data systems) compute their statistics over the rows they are handed.

Eq. 1 itself is evaluated in one place,
:func:`repro.core.sequence.reduce_sequence`; :func:`reduce_signal` is
its engine wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.model import K_S_COLUMNS
from repro.core.sequence import (
    marker_functions,
    order_sequence,
    reduce_sequence,
)


class ReductionError(ValueError):
    """Raised for invalid constraints."""


class MarkerFunction:
    """Base class of the ``f ∈ F`` marker functions.

    ``flags(times, values, prev)`` returns one boolean per element; True
    marks the element redundant (to be removed). ``prev`` is the (t, v)
    of the element preceding the sequence, or None. Implementations must
    be picklable.
    """

    def flags(self, times, values, prev):
        raise NotImplementedError

    def carry_after(self, times, values, prev):
        """The ``prev`` a windowed run must pass to the *next* chunk.

        The default -- the chunk's last raw element -- is correct for
        markers that compare against the previous raw element
        (``UnchangedValue``, ``UnchangedWithinCycle``). Markers whose
        state is not the last raw element (``MinimumGap`` tracks the
        last *kept* element) override this; incremental execution
        threads each function's own carry so chunked reduction stays
        element-for-element identical to a whole-trace run.
        """
        if not times:
            return prev
        return (times[-1], values[-1])


@dataclass(frozen=True)
class UnchangedValue(MarkerFunction):
    """Marks elements repeating the previous value.

    This is the reduction the paper's evaluation applies: "Signal
    instances are often sent repeatedly without change of values. Thus,
    identical subsequent signal instances are removed".
    """

    def flags(self, times, values, prev):
        out = []
        prev_value = prev[1] if prev is not None else _SENTINEL
        for v in values:
            out.append(v == prev_value)
            prev_value = v
        return out


@dataclass(frozen=True)
class UnchangedWithinCycle(MarkerFunction):
    """Repeat-removal that *preserves cycle-time violations*.

    An element is redundant only if its value repeats AND the temporal
    gap to the previous element stays within ``tolerance`` times the
    expected cycle time -- "important state changes such as violations of
    cycle times need to be preserved" (Sec. 1).
    """

    cycle_time: float
    tolerance: float = 1.5

    def __post_init__(self):
        if self.cycle_time <= 0 or self.tolerance <= 0:
            raise ReductionError("cycle_time and tolerance must be positive")

    def flags(self, times, values, prev):
        out = []
        prev_t, prev_v = prev if prev is not None else (None, _SENTINEL)
        limit = self.cycle_time * self.tolerance
        for t, v in zip(times, values):
            gap_ok = prev_t is not None and (t - prev_t) <= limit
            out.append(v == prev_v and gap_ok)
            prev_t, prev_v = t, v
        return out


@dataclass(frozen=True)
class MinimumGap(MarkerFunction):
    """Downsampling: marks elements closer than ``min_gap`` to the last
    *kept* element (gap-based decimation)."""

    min_gap: float

    def __post_init__(self):
        if self.min_gap <= 0:
            raise ReductionError("min_gap must be positive")

    def flags(self, times, values, prev):
        out = []
        last_kept = prev[0] if prev is not None else None
        for t in times:
            if last_kept is not None and (t - last_kept) < self.min_gap:
                out.append(True)
            else:
                out.append(False)
                last_kept = t
        return out

    def carry_after(self, times, values, prev):
        """Carry the last element *this marker kept*, not the last raw
        one -- seeding the next chunk with a later (discarded) element
        would shrink gaps and over-reduce at window boundaries."""
        last_kept = prev[0] if prev is not None else None
        for t in times:
            if last_kept is None or (t - last_kept) >= self.min_gap:
                last_kept = t
        if last_kept is None:
            return prev
        return (last_kept, None)


@dataclass(frozen=True)
class ValueInSet(MarkerFunction):
    """Marks elements whose value is in a configured idle set."""

    values: frozenset

    def flags(self, times, values, prev):
        member = self.values
        return [v in member for v in values]


@dataclass(frozen=True)
class Predicate(MarkerFunction):
    """Row-wise marker from a picklable callable ``func(t, v) -> bool``."""

    func: object

    def flags(self, times, values, prev):
        f = self.func
        return [bool(f(t, v)) for t, v in zip(times, values)]


@dataclass(frozen=True)
class OutsideQuantileRange(MarkerFunction):
    """Aggregation marker: drop numeric elements outside a quantile band.

    Demonstrates ``f`` as an aggregation operation: the band is computed
    over the whole sequence first (a distributable aggregation), then
    applied row-wise. "The whole sequence" is the rows one ``flags`` call
    receives: all of them in a whole-trace run, one window's chunk in a
    windowed run -- the one bundled marker whose decisions no carry can
    make independent of window boundaries.
    """

    lower: float = 0.0
    upper: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.lower < self.upper <= 1.0:
            raise ReductionError("need 0 <= lower < upper <= 1")

    def flags(self, times, values, prev):
        numeric = [v for v in values if isinstance(v, (int, float))]
        if not numeric:
            return [False] * len(values)
        lo = float(np.quantile(numeric, self.lower))
        hi = float(np.quantile(numeric, self.upper))
        out = []
        for v in values:
            if isinstance(v, (int, float)):
                out.append(v < lo or v > hi)
            else:
                out.append(False)
        return out


_SENTINEL = object()


@dataclass(frozen=True)
class Constraint:
    """``c = (s_id, d, F)``: marker functions for one signal type."""

    signal_id: str
    enabled: bool = True  # the paper's d
    functions: tuple = field(default_factory=tuple)

    def __post_init__(self):
        for f in self.functions:
            if not isinstance(f, MarkerFunction):
                raise ReductionError(
                    "constraint functions must be MarkerFunction instances"
                )


@dataclass(frozen=True)
class ConstraintSet:
    """``C``: the full constraint parameterization of one domain."""

    constraints: tuple = field(default_factory=tuple)

    def __iter__(self):
        return iter(self.constraints)

    def __len__(self):
        return len(self.constraints)

    def for_signal(self, signal_id):
        """All enabled constraints joined to *signal_id* (line 10)."""
        return [
            c
            for c in self.constraints
            if c.signal_id == signal_id and c.enabled
        ]


@dataclass(frozen=True)
class _ReduceSequenceTask:
    """Partition function: one whole sequence, ordered then reduced."""

    functions: tuple

    def __call__(self, rows):
        return reduce_sequence(order_sequence(rows), self.functions, {})


def reduce_signal(k_sep, constraints):
    """Lines 10-11 for one signal sequence held in an engine table.

    Joins the applicable *constraints* (a list of :class:`Constraint`)
    with the sequence, evaluates Eq. 1 and keeps elements whose flag
    ``e`` is false. With no constraints the sequence passes through
    (ordered), matching the σ over an empty condition set.

    The sequence is gathered into one partition and reduced by the same
    :func:`~repro.core.sequence.reduce_sequence` every pipeline entry
    point uses, so the result cannot depend on how *k_sep* was
    partitioned; parallelism is across sequences, not inside one.
    """
    return k_sep.select(*K_S_COLUMNS).repartition(1).map_partitions(
        _ReduceSequenceTask(marker_functions(constraints))
    )


def reduction_ratio(before_count, after_count):
    """Fraction of elements removed by reduction."""
    if before_count == 0:
        return 0.0
    return 1.0 - after_count / before_count

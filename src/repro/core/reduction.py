"""Constraint reduction (Sec. 4.1, Algorithm 1 lines 10-11).

A constraint set ``C = {c_i}`` with ``c = (s_id, d, F)`` is joined to
each signal sequence on the signal type (line 10). If the enable flag
``d`` holds, all marker functions ``f ∈ F`` run; per element the flag
``e`` becomes true if any ``f`` is true (Eq. 1). Line 11 keeps the
elements where the flag is false -- markers flag *redundant* elements,
"leaving task-relevant elements only".

Marker functions receive the time-ordered sequence as a timestamp array
and a value array (plus the previous element as carry, element -1) so
they can express the paper's examples:
repeated data points, temporal-gap conditions, sending-condition checks.
Aggregation-based markers (inherently distributable operations in Big
Data systems) compute their statistics over the rows they are handed.
A marker that decides from each element's predecessor alone also
offers :meth:`MarkerFunction.from_predecessor`, which flags the
elements of every sequence it applies to in one call.

Eq. 1 itself is evaluated in one place,
:func:`repro.core.sequence.reduce_segments`; :func:`reduce_signal` is
its engine wrapper.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.core.classification import numeric_mask
from repro.core.model import K_S_COLUMNS
from repro.core.sequence import marker_functions, order_rows, reduce_sequence


class ReductionError(ValueError):
    """Raised for invalid constraints."""


class MarkerFunction:
    """Base class of the ``f ∈ F`` marker functions.

    ``flags(times, values, prev)`` receives a sequence's timestamps and
    values as object arrays of the decoder's objects, and returns one
    boolean per element (an array or a list); True marks the element
    redundant (to be removed). ``prev`` is the (t, v) of the element
    preceding the sequence -- element -1 -- or None.

    ``from_predecessor(gaps, repeats)``, where a marker defines it,
    flags the elements of many sequences at once from their
    predecessors: ``gaps[i]`` is ``t_i - t_(i-1)`` (NaN without a
    predecessor) and ``repeats[i]`` whether ``v_i == v_(i-1)``; element
    -1 of each sequence is its carry, the last raw element before it
    (the default :meth:`carry_after`). It returns the same flags as
    ``flags``. Markers without it (None) run ``flags`` per sequence.
    """

    from_predecessor = None

    def flags(self, times, values, prev):
        """By default :meth:`from_predecessor` over this one sequence."""
        if self.from_predecessor is None:
            raise NotImplementedError
        times = np.asarray(times, dtype=float)
        # Without a prev the first gap is NaN and nothing repeats.
        before = np.concatenate(([np.nan], times[:-1]))
        repeats = np.zeros(len(values), dtype=bool)
        repeats[1:] = values[1:] == values[:-1]
        if prev is not None and len(values):
            before[0] = prev[0]
            repeats[0] = bool(values[0] == prev[1])
        return self.from_predecessor(times - before, repeats)

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
        if not len(times):
            return prev
        return (times[-1:].tolist()[0], values[-1:].tolist()[0])


@dataclass(frozen=True)
class UnchangedValue(MarkerFunction):
    """Marks elements repeating the previous value.

    This is the reduction the paper's evaluation applies: "Signal
    instances are often sent repeatedly without change of values. Thus,
    identical subsequent signal instances are removed".
    """

    def from_predecessor(self, gaps, repeats):
        return repeats


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

    def from_predecessor(self, gaps, repeats):
        return repeats & (gaps <= self.cycle_time * self.tolerance)


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
        for t in times.tolist():
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
        for t in times.tolist():
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
        return np.fromiter(
            map(self.values.__contains__, values), bool, len(values)
        )


@dataclass(frozen=True)
class Predicate(MarkerFunction):
    """Row-wise marker from a callable ``func(t, v) -> bool``."""

    func: object

    def flags(self, times, values, prev):
        f = self.func
        return [bool(f(t, v)) for t, v in zip(times.tolist(), values.tolist())]


@dataclass(frozen=True)
class OutsideQuantileRange(MarkerFunction):
    """Aggregation marker: drop numeric elements outside a quantile band.

    Demonstrates ``f`` as an aggregation operation: the band is computed
    over the whole sequence first (a distributable aggregation), then
    applied element-wise. Numeric is Table 3's test
    (:func:`~repro.core.classification.numeric_mask`): booleans and
    labels are never flagged. "The whole sequence" is the elements one
    ``flags`` call receives: all of them in a whole-trace run, one
    window's chunk in a windowed run -- the one bundled marker whose
    decisions no carry can make independent of window boundaries.
    """

    lower: float = 0.0
    upper: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.lower < self.upper <= 1.0:
            raise ReductionError("need 0 <= lower < upper <= 1")

    def flags(self, times, values, prev):
        numeric = numeric_mask(values)
        out = np.zeros(len(values), dtype=bool)
        if numeric.any():
            numbers = values[numeric]
            lo = float(np.quantile(numbers.tolist(), self.lower))
            hi = float(np.quantile(numbers.tolist(), self.upper))
            with np.errstate(invalid="ignore"):  # NaN compares false
                out[numeric] = (numbers < lo) | (numbers > hi)
        return out



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

    @cached_property
    def _by_signal(self):
        index = defaultdict(list)
        for c in self.constraints:
            if c.enabled:
                index[c.signal_id].append(c)
        return index

    def for_signal(self, signal_id):
        """All enabled constraints joined to *signal_id* (line 10), in
        set order."""
        return list(self._by_signal.get(signal_id, ()))


@dataclass(frozen=True)
class _ReduceSequenceTask:
    """Partition function: one whole sequence, ordered then reduced."""

    functions: tuple

    def __call__(self, rows):
        return reduce_sequence(order_rows(rows), self.functions, {}).rows()


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

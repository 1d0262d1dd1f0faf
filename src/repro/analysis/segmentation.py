"""Time-series segmentation: Sliding Window, Bottom-Up and SWAB.

Implements the online segmentation algorithm of Keogh, Chu, Hart &
Pazzani, "An online algorithm for segmenting time series" (ICDM 2001) --
reference [7] of the paper -- from scratch: piecewise-linear
approximation with sliding-window and bottom-up strategies and their
combination SWAB (Sliding Window And Bottom-up), which the paper's α
branch uses for trend estimation.

Segments are least-squares linear fits; the error measure is the sum of
squared residuals, as in the original paper.

Every fit is closed-form. One :class:`_SpanFitter` per buffer keeps three
prefix sums over the buffer's samples ``y_i`` (centred on the buffer
mean, ``i`` local to the buffer)::

    S0[k] = Σ_{i<k} y_i      S1[k] = Σ_{i<k} i·y_i      S2[k] = Σ_{i<k} y_i²

so that for any span ``[a, b]`` of ``n`` samples, with ``x = i - a``::

    Σy  = S0[b+1] - S0[a]          Σx  = n(n-1)/2   (closed forms of n)
    Σxy = S1[b+1] - S1[a] - a·Σy   Sxx = Σx² - (Σx)²/n = n(n²-1)/12
    Σy² = S2[b+1] - S2[a]

    Sxy = Σxy - Σx·Σy/n            slope     = Sxy / Sxx
    Syy = Σy² - (Σy)²/n            intercept = (Σy - slope·Σx)/n + mean
                                   SSE       = Syy - Sxy²/Sxx   (clamped at 0)

Centring per buffer keeps ``Σy²`` of the order of the buffer's own
variance, so a series such as ``1e6 + walk`` loses no digits to its
offset. The merge order is Keogh's greedy one: always the cheapest
adjacent pair, the leftmost one on equal cost, until the cheapest
exceeds ``max_error``.

Bottom-up first fits the whole buffer. The least-squares SSE of a span
never exceeds that of a span containing it: the containing span's line,
restricted to the sub-span, is one candidate line there. Every merge the
greedy loop could consider is a sub-span of the buffer, so if the whole
buffer's SSE is within ``max_error``, every merge is too, and the loop
would end with the whole buffer as its one survivor -- the very
``segment(0, n-1)`` just computed. Such a buffer costs one fit. The test
leaves room for the fitter's rounding: it requires
``SSE ≤ max_error - guard`` with ``guard = 1e-14·n³·S2[n]`` (6.4e-10 of
the buffer's centred energy at SWAB's 40 samples), far above the rounding
of any span's computed SSE, which is at most of order ``n^2.5·ε·S2[n]``;
the guard adds the smallest normal double, below which rounding is
absolute rather than relative. A buffer that fails the test -- or whose
fit is ``nan`` -- runs the greedy loop unchanged, so the merge order and
its ties are Keogh's either way.

SWAB's full buffers from its current start lie at a stride of the
buffer size, and :func:`_accepted` tests a run of them in one pass: an
``np.add.accumulate`` per row gives each buffer's sum and centred
``S0[n]``, ``S1[n]``, ``S2[n]``, from which each whole fit and guard are
the scalar ones, operation for operation, up to the first buffer that
fails. An accumulate adds left to right, as ``accumulate`` and
:func:`sequential_sum` do, and adding ``0.0`` to its last sum is starting
from ``0.0`` (``0.0 + -0.0`` is ``0.0``), so the fits are bit-identical.
The failing buffer and the partial tail go to :func:`_bottom_up`. A pass
that stops at its first buffer costs more than the buffer, so one starts
at the series' start and after two buffers in a row kept whole.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, count
from operator import add, mul

import numpy as np


@dataclass(frozen=True)
class Segment:
    """A linear segment over samples [start, end] (inclusive indices).

    ``slope``/``intercept`` describe the least-squares line against the
    *local* sample index (0 at ``start``); ``error`` is the sum of squared
    residuals.
    """

    start: int
    end: int
    slope: float
    intercept: float
    error: float

    @property
    def length(self):
        return self.end - self.start + 1

    def value_at(self, index):
        """Fitted value at absolute sample *index*."""
        return self.intercept + self.slope * (index - self.start)


def sequential_sum(values):
    """``sum(values)`` as Python 3.11's builtin adds it, left to right
    from the int 0: 3.12 compensates float sums, so fits would vary."""
    return reduce(add, values, 0)


class _SpanFitter:
    """Least-squares line over any span of one buffer in O(1).

    *values* is a non-empty list of floats; see the module docstring for
    the sums. Non-finite samples make every sum, and so every fit of the
    buffer, ``nan``.
    """

    __slots__ = ("size", "_mean", "_s0", "_s1", "_s2")

    def __init__(self, values):
        self.size = len(values)
        if not values:
            raise ValueError("empty segment")
        self._mean = mean = sequential_sum(values) / len(values)
        centred = [v - mean for v in values]
        self._s0 = list(accumulate(centred, initial=0.0))
        self._s1 = list(accumulate(map(mul, count(), centred), initial=0.0))
        self._s2 = list(accumulate(map(mul, centred, centred), initial=0.0))

    def fit(self, start, end):
        """``(slope, intercept, sse)`` of samples [start, end] (inclusive)."""
        stop = end + 1
        n = stop - start
        sum_y = self._s0[stop] - self._s0[start]
        if n == 1:
            return 0.0, sum_y + self._mean, 0.0
        slope, sse = self.line(start, stop)
        sum_x = 0.5 * n * (n - 1)
        return slope, (sum_y - slope * sum_x) / n + self._mean, sse

    def line(self, start, stop):
        """``(slope, sse)`` of samples [start, stop), two or more."""
        n = stop - start
        sum_y = self._s0[stop] - self._s0[start]
        sum_x = 0.5 * n * (n - 1)
        sum_xy = self._s1[stop] - self._s1[start] - start * sum_y
        s_xy = sum_xy - sum_x * sum_y / n
        s_xx = n * (n * n - 1) / 12.0
        slope = s_xy / s_xx
        s_yy = self._s2[stop] - self._s2[start] - sum_y * sum_y / n
        sse = s_yy - slope * s_xy
        return slope, 0.0 if sse < 0.0 else sse

    def segment(self, start, end, offset=0):
        """The fit of [start, end] as a :class:`Segment` shifted by *offset*."""
        return Segment(start + offset, end + offset, *self.fit(start, end))

    def guard(self):
        """Room for rounding below ``max_error``: a whole-buffer SSE at
        most ``max_error - guard()`` proves every span's fit within it."""
        return 1e-14 * self.size**3 * self._s2[-1] + sys.float_info.min


def _floats(values):
    return np.asarray(values, dtype=float).tolist()


def fit_segment(values, start, end):
    """Least-squares line over values[start:end+1]."""
    fitter = _SpanFitter(_floats(values[start : end + 1]))
    return fitter.segment(0, fitter.size - 1, start)


def sliding_window(values, max_error):
    """Grow segments left-to-right until the fit error exceeds max_error."""
    if max_error < 0:
        raise ValueError("max_error must be non-negative")
    n = len(values)
    if n == 0:
        return []
    fitter = _SpanFitter(_floats(values))
    segments = []
    anchor = 0
    while anchor < n:
        best = fitter.segment(anchor, anchor)
        for end in range(anchor + 1, n):
            candidate = fitter.segment(anchor, end)
            if candidate.error > max_error:
                break
            best = candidate
        segments.append(best)
        anchor = best.end + 1
    return segments


def bottom_up(values, max_error):
    """Merge the finest segmentation greedily while error permits."""
    if len(values) == 0:
        return []
    if max_error < 0:
        raise ValueError("max_error must be non-negative")
    return _bottom_up(_floats(values), max_error, 0)


def _bottom_up(values, max_error, offset):
    """:func:`bottom_up` of a non-empty list of floats that begins at
    *offset*."""
    fitter = _SpanFitter(values)
    n = fitter.size
    # Within budget as a whole, so is every merge (module docstring).
    whole = fitter.segment(0, n - 1, offset)
    if whole.error <= max_error - fitter.guard():
        return [whole]
    # Segment i is [bounds[i], bounds[i + 1]): pairs to start with (the
    # last may be one sample). costs[i] is the error of merging segment
    # i with segment i + 1.
    bounds = list(range(0, n, 2)) + [n]
    line = fitter.line
    costs = [line(start, stop)[1] for start, stop in zip(bounds, bounds[2:])]
    while costs:
        cheapest = min(costs)
        if cheapest > max_error:
            break
        i = costs.index(cheapest)  # leftmost on equal cost
        del bounds[i + 1], costs[i]
        if i < len(costs):
            costs[i] = line(bounds[i], bounds[i + 2])[1]
        if i > 0:
            costs[i - 1] = line(bounds[i - 1], bounds[i + 1])[1]
    return [fitter.segment(start, stop - 1, offset)
            for start, stop in zip(bounds, bounds[1:])]


def _accepted(values, start, size, max_error):
    """One segment per full buffer of the array *values* from *start*
    on, up to the first whose whole fit fails :func:`_bottom_up`'s
    one-fit test (module docstring)."""
    rows = values[start : len(values) - (len(values) - start) % size]
    rows = rows.reshape(-1, size)
    planes = np.empty((3,) + rows.shape)  # centred y, i·y, y²
    with np.errstate(all="ignore"):
        means = (np.add.accumulate(rows, axis=1)[:, -1] + 0.0) / size
        centred = np.subtract(rows, means[:, None], out=planes[0])
        np.multiply(np.arange(size), centred, out=planes[1])
        np.multiply(centred, centred, out=planes[2])
        sums = np.add.accumulate(planes, axis=2)[:, :, -1] + 0.0
    sum_x, s_xx, out = 0.5 * size * (size - 1), size * (size**2 - 1) / 12.0, []
    cube, tiny = 1e-14 * size**3, sys.float_info.min
    for mean, sum_y, sum_xy, sum_yy in zip(means.tolist(), *sums.tolist()):
        # _SpanFitter.fit(0, size - 1) and guard(); 0 is fit's start.
        s_xy = sum_xy - 0 * sum_y - sum_x * sum_y / size
        slope = s_xy / s_xx
        sse = max(sum_yy - sum_y * sum_y / size - slope * s_xy, 0.0)
        if not sse <= max_error - (cube * sum_yy + tiny):
            break
        out.append(Segment(start, start + size - 1, slope,
                           (sum_y - slope * sum_x) / size + mean, sse))
        start += size
    return out


def swab(values, max_error, buffer_size=None):
    """SWAB: bottom-up inside a sliding buffer, emitting leftmost segments.

    ``buffer_size`` defaults to enough samples for roughly five to six
    segments, as recommended in the original paper.
    """
    values = np.asarray(values, dtype=float)
    n = len(values)
    if buffer_size is None:
        buffer_size = max(min(n, 40), 8)
    if buffer_size < 2:
        raise ValueError("buffer_size must be at least 2")
    if n and max_error < 0:
        raise ValueError("max_error must be non-negative")
    out = []
    start = 0
    kept_whole = 2  # buffers in a row kept whole (module docstring)
    while start < n:
        if kept_whole > 1 and n - start >= 2 * buffer_size:
            run = _accepted(values, start, buffer_size, max_error)
            out += run
            start += len(run) * buffer_size
            kept_whole = 0
            continue
        stop = min(start + buffer_size, n)
        segments = _bottom_up(values[start:stop].tolist(), max_error, start)
        if stop < n:
            # More data to come: only the leftmost segment is final.
            del segments[1:]
        out.extend(segments)
        kept_whole = (kept_whole + 1) * (segments[0].length == buffer_size)
        start = out[-1].end + 1
    return out


def segments_cover(segments, n):
    """True if *segments* partition indices 0..n-1 without gaps/overlap."""
    expected = 0
    for seg in segments:
        if seg.start != expected:
            return False
        expected = seg.end + 1
    return expected == n

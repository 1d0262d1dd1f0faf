"""SWAB / bottom-up / sliding-window segmentation.

The closed-form fitter of ``repro.analysis.segmentation`` is pinned
against the ``numpy.polyfit`` implementation it replaced, kept here as
the reference (``reference_*``): same greedy order, one full ``lstsq``
per candidate. The one-fit acceptance of a whole buffer is pinned, bit
for bit, against the greedy loop it short-cuts (``greedy_*``).
"""

import sys
from itertools import accumulate, count
from operator import mul

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis import segmentation
from repro.analysis import (
    Segment,
    bottom_up,
    fit_segment,
    segments_cover,
    sliding_window,
    swab,
)


def piecewise_signal():
    """Three clean linear pieces: up, flat, down."""
    return np.concatenate(
        [np.linspace(0, 10, 40), np.full(30, 10.0), np.linspace(10, 0, 40)]
    )


class TestFitSegment:
    def test_perfect_line_zero_error(self):
        seg = fit_segment([0.0, 1.0, 2.0, 3.0], 0, 3)
        assert seg.error == pytest.approx(0.0, abs=1e-12)
        assert seg.slope == pytest.approx(1.0)
        assert seg.intercept == pytest.approx(0.0)

    def test_single_point(self):
        seg = fit_segment([5.0], 0, 0)
        assert seg.slope == 0.0
        assert seg.intercept == 5.0
        assert seg.length == 1

    def test_value_at_uses_local_index(self):
        seg = fit_segment([0.0, 2.0, 4.0, 6.0], 2, 3)
        assert seg.value_at(2) == pytest.approx(4.0)
        assert seg.value_at(3) == pytest.approx(6.0)

    def test_empty_segment_rejected(self):
        with pytest.raises(ValueError):
            fit_segment([], 0, -1)


class TestBottomUp:
    def test_recovers_three_pieces(self):
        segments = bottom_up(piecewise_signal(), max_error=0.5)
        assert len(segments) == 3
        assert segments_cover(segments, 110)

    def test_zero_budget_keeps_fine_segments(self):
        noisy = np.array([0.0, 5.0, 1.0, 6.0, 2.0, 7.0])
        segments = bottom_up(noisy, max_error=0.0)
        assert len(segments) == 3  # initial pairs, no merge possible

    def test_huge_budget_merges_to_one(self):
        segments = bottom_up(piecewise_signal(), max_error=1e9)
        assert len(segments) == 1

    def test_empty_input(self):
        assert bottom_up([], max_error=1.0) == []

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            bottom_up([1.0], max_error=-1)


class TestSlidingWindow:
    def test_recovers_pieces(self):
        segments = sliding_window(piecewise_signal(), max_error=0.5)
        assert segments_cover(segments, 110)
        assert len(segments) <= 5  # may fragment slightly at breakpoints

    def test_each_segment_within_budget(self):
        values = piecewise_signal()
        for seg in sliding_window(values, max_error=0.5):
            if seg.length > 2:
                assert fit_segment(values, seg.start, seg.end).error <= 0.5


class TestSwab:
    def test_covers_input(self):
        values = piecewise_signal()
        segments = swab(values, max_error=0.5)
        assert segments_cover(segments, len(values))

    def test_finds_flat_middle(self):
        segments = swab(piecewise_signal(), max_error=0.5)
        flat = [s for s in segments if abs(s.slope) < 0.01]
        assert flat, "expected a near-flat segment"

    def test_slopes_signs_match_shape(self):
        segments = swab(piecewise_signal(), max_error=0.5, buffer_size=50)
        assert segments[0].slope > 0
        assert segments[-1].slope < 0

    def test_empty_input(self):
        assert swab([], max_error=1.0) == []

    def test_short_input_single_segment(self):
        segments = swab([1.0, 2.0], max_error=10.0)
        assert segments_cover(segments, 2)

    def test_online_matches_buffer_sizes(self):
        """Different buffer sizes must still produce full covers."""
        values = piecewise_signal()
        for buffer_size in (10, 25, 60):
            segments = swab(values, 0.5, buffer_size=buffer_size)
            assert segments_cover(segments, len(values))


class TestSegment:
    def test_length(self):
        assert Segment(3, 7, 0.0, 0.0, 0.0).length == 5


@given(
    values=st.lists(
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        min_size=1,
        max_size=80,
    ),
    max_error=st.floats(min_value=0.0, max_value=100.0),
)
@settings(max_examples=60, deadline=None)
def test_property_swab_always_covers(values, max_error):
    segments = swab(values, max_error)
    assert segments_cover(segments, len(values))


@given(
    values=st.lists(
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        min_size=1,
        max_size=60,
    ),
    max_error=st.floats(min_value=0.0, max_value=100.0),
)
@settings(max_examples=60, deadline=None)
def test_property_bottom_up_always_covers(values, max_error):
    segments = bottom_up(values, max_error)
    assert segments_cover(segments, len(values))


# -- the polyfit reference ------------------------------------------------
#
# ``margins`` collects, for every greedy decision the reference takes, how
# far it was from going the other way: the distance of the deciding cost
# to ``max_error`` and to the runner-up cost. A series is tie-free for a
# tolerance when every margin exceeds it; only then is the segmentation
# independent of the fitter's rounding.


def reference_fit(values, start, end):
    y = np.asarray(values[start : end + 1], dtype=float)
    n = len(y)
    if n == 1:
        return Segment(start, end, 0.0, float(y[0]), 0.0)
    x = np.arange(n, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (intercept + slope * x)
    error = float(residuals @ residuals)
    return Segment(start, end, float(slope), float(intercept), error)


def reference_sliding_window(values, max_error, margins):
    n = len(values)
    segments = []
    anchor = 0
    while anchor < n:
        best = reference_fit(values, anchor, anchor)
        for end in range(anchor + 1, n):
            candidate = reference_fit(values, anchor, end)
            margins.append(abs(candidate.error - max_error))
            if candidate.error > max_error:
                break
            best = candidate
        segments.append(best)
        anchor = best.end + 1
    return segments


def reference_bottom_up(values, max_error, margins):
    n = len(values)
    segments = [
        reference_fit(values, start, min(start + 1, n - 1))
        for start in range(0, n, 2)
    ]

    def merge_cost(i):
        return reference_fit(values, segments[i].start, segments[i + 1].end)

    merged = [merge_cost(i) for i in range(len(segments) - 1)]
    while merged:
        ranked = sorted(m.error for m in merged)
        margins.append(abs(ranked[0] - max_error))
        if ranked[0] > max_error:
            break
        if len(ranked) > 1:
            margins.append(ranked[1] - ranked[0])
        best_index = min(range(len(merged)), key=lambda i: merged[i].error)
        segments[best_index] = merged[best_index]
        del segments[best_index + 1]
        del merged[best_index]
        if best_index < len(merged):
            merged[best_index] = merge_cost(best_index)
        if best_index > 0:
            merged[best_index - 1] = merge_cost(best_index - 1)
    return segments


def reference_swab(values, max_error, buffer_size, margins):
    values = list(values)
    n = len(values)
    out = []
    start = 0
    while start < n:
        stop = min(start + buffer_size, n)
        segments = reference_bottom_up(values[start:stop], max_error, margins)
        if stop < n:
            segments = segments[:1]
        out.extend(
            Segment(
                s.start + start, s.end + start, s.slope, s.intercept, s.error
            )
            for s in segments
        )
        start = out[-1].end + 1
    return out


def spans(segments):
    return [(s.start, s.end) for s in segments]


def centred_energy(values):
    y = np.asarray(values, dtype=float)
    return float(((y - y.mean()) ** 2).sum())


def assert_matches_reference(actual, expected, values):
    assert spans(actual) == spans(expected)
    scale = 1.0 + float(np.abs(values).max())
    error_tolerance = 1e-9 * (1.0 + centred_energy(values))
    for got, want in zip(actual, expected):
        for name in ("slope", "intercept"):
            assert getattr(got, name) == pytest.approx(
                getattr(want, name), rel=1e-6, abs=1e-9 * scale
            )
        assert 0.0 <= got.error
        assert abs(got.error - want.error) <= error_tolerance


@st.composite
def series(draw):
    """Noise or a random walk, n <= 300, magnitudes up to 1e6."""
    n = draw(st.integers(min_value=1, max_value=300))
    values = draw(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    if draw(st.booleans()):
        values = (np.cumsum(values) / n).tolist()
    return values


error_fraction = st.floats(min_value=0.0, max_value=1.0)


def tie_free(values, margins):
    """No reference decision within the fitters' rounding of a tie."""
    return min(margins, default=1.0) > 1e-7 * (1.0 + centred_energy(values))


@given(values=series(), fraction=error_fraction)
@settings(max_examples=60, deadline=None)
def test_property_bottom_up_matches_polyfit_reference(values, fraction):
    max_error = fraction * centred_energy(values)
    margins = []
    expected = reference_bottom_up(values, max_error, margins)
    assume(tie_free(values, margins))
    assert_matches_reference(bottom_up(values, max_error), expected, values)


@given(
    values=series(),
    fraction=error_fraction,
    buffer_size=st.sampled_from([8, 40, 50]),
)
@settings(max_examples=60, deadline=None)
def test_property_swab_matches_polyfit_reference(
    values, fraction, buffer_size
):
    max_error = fraction * centred_energy(values) * buffer_size / len(values)
    margins = []
    expected = reference_swab(values, max_error, buffer_size, margins)
    assume(tie_free(values, margins))
    assert_matches_reference(
        swab(values, max_error, buffer_size=buffer_size), expected, values
    )


@given(values=series(), fraction=error_fraction)
@settings(max_examples=40, deadline=None)
def test_property_sliding_window_matches_polyfit_reference(values, fraction):
    max_error = fraction * centred_energy(values)
    margins = []
    expected = reference_sliding_window(values, max_error, margins)
    assume(tie_free(values, margins))
    assert_matches_reference(
        sliding_window(values, max_error), expected, values
    )


class TestTies:
    """On exactly equal merge costs the leftmost pair merges first."""

    STEP = [0.0, 0.0, 1.0, 1.0]  # merging the two pairs costs 0.2

    def test_leftmost_of_two_equal_merges(self):
        # (0,1)+(2,3) and (2,3)+(4,5) both cost exactly 0.2 -- the buffer
        # mean 2.25 keeps every sum dyadic -- and no further merge fits.
        values = self.STEP + [0.0, 0.0, 8.0, 8.0]
        segments = bottom_up(values, max_error=0.25)
        assert spans(segments) == [(0, 3), (4, 5), (6, 7)]

    def test_constant_series_merges_whole_buffers(self):
        values = [3.0] * 100
        assert spans(bottom_up(values, max_error=0.0)) == [(0, 99)]
        segments = swab(values, max_error=0.0, buffer_size=8)
        assert spans(segments) == [
            (i, min(i + 7, 99)) for i in range(0, 100, 8)
        ]
        assert all(s.error == 0.0 and s.slope == 0.0 for s in segments)

    def test_integer_steps_through_swab(self):
        values = self.STEP * 10
        segments = swab(values, max_error=0.25, buffer_size=8)
        assert spans(segments) == [(i, i + 3) for i in range(0, 40, 4)]
        assert segments_cover(segments, len(values))
        for seg in segments:
            assert reference_fit(values, seg.start, seg.end).error <= 0.25


class TestNumerics:
    def test_large_offset_keeps_sse_non_negative_and_close(self):
        rng = np.random.default_rng(7)
        values = 1e9 + np.cumsum(rng.normal(size=200))
        max_error = 0.05 * float(values.var()) * 40
        segments = swab(values, max_error, buffer_size=40)
        assert spans(segments) == spans(
            reference_swab(values, max_error, 40, [])
        )
        for seg in segments:
            want = reference_fit(values, seg.start, seg.end)
            assert seg.error >= 0.0
            assert seg.error == pytest.approx(want.error, rel=1e-4, abs=1e-4)
            assert seg.slope == pytest.approx(want.slope, rel=1e-4, abs=1e-6)

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), -float("inf")]
    )
    @pytest.mark.parametrize("at", [0, 17, 59])
    def test_non_finite_input_terminates_and_covers(self, bad, at):
        values = list(np.linspace(0.0, 5.0, 60))
        values[at] = bad
        for segments in (
            swab(values, 0.5, buffer_size=8),
            bottom_up(values, 0.5),
            sliding_window(values, 0.5),
        ):
            assert segments_cover(segments, len(values))


def test_swab_rejects_buffers_that_cannot_hold_a_segment():
    for buffer_size in (1, 0, -3):
        with pytest.raises(ValueError):
            swab([1.0, 2.0, 3.0], 0.5, buffer_size=buffer_size)


# -- the greedy reference ---------------------------------------------------
#
# The fitter and bottom-up loop as they were before the whole-buffer test,
# copied verbatim: every buffer runs Keogh's greedy loop. ``bottom_up`` and
# ``swab`` must return the very same segments, bit for bit, on either side
# of the budget boundary.


class _SpanFitter:
    """Least-squares line over any span of one buffer in O(1).

    See the module docstring for the sums. Non-finite samples make every
    sum, and so every fit of the buffer, ``nan``.
    """

    __slots__ = ("size", "_mean", "_s0", "_s1", "_s2")

    def __init__(self, values):
        values = np.asarray(values, dtype=float).tolist()
        self.size = len(values)
        if not values:
            raise ValueError("empty segment")
        self._mean = mean = sum(values) / len(values)
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
        sum_x = 0.5 * n * (n - 1)
        sum_xy = self._s1[stop] - self._s1[start] - start * sum_y
        s_xy = sum_xy - sum_x * sum_y / n
        s_xx = n * (n * n - 1) / 12.0
        slope = s_xy / s_xx
        s_yy = self._s2[stop] - self._s2[start] - sum_y * sum_y / n
        sse = s_yy - slope * s_xy
        return (
            slope,
            (sum_y - slope * sum_x) / n + self._mean,
            0.0 if sse < 0.0 else sse,
        )

    def segment(self, start, end, offset=0):
        """The fit of [start, end] as a :class:`Segment` shifted by *offset*."""
        return Segment(start + offset, end + offset, *self.fit(start, end))


def _bottom_up(values, max_error, offset):
    """:func:`bottom_up` of a non-empty buffer that begins at *offset*."""
    fitter = _SpanFitter(values)
    n = fitter.size
    # Start from segments of length 2 (the last may be length 1).
    starts = list(range(0, n, 2))
    ends = [start - 1 for start in starts[1:]] + [n - 1]
    # costs[i] is the error of merging segment i with segment i + 1.
    costs = [
        fitter.fit(starts[i], ends[i + 1])[2] for i in range(len(starts) - 1)
    ]
    while costs:
        cheapest = min(costs)
        if cheapest > max_error:
            break
        i = costs.index(cheapest)  # leftmost on equal cost
        ends[i] = ends[i + 1]
        del starts[i + 1], ends[i + 1], costs[i]
        if i < len(costs):
            costs[i] = fitter.fit(starts[i], ends[i + 1])[2]
        if i > 0:
            costs[i - 1] = fitter.fit(starts[i - 1], ends[i])[2]
    return [
        fitter.segment(start, end, offset) for start, end in zip(starts, ends)
    ]


def greedy_swab(values, max_error, buffer_size):
    values = np.asarray(values, dtype=float)
    n = len(values)
    out = []
    start = 0
    while start < n:
        stop = min(start + buffer_size, n)
        segments = _bottom_up(values[start:stop], max_error, start)
        if stop < n:
            del segments[1:]
        out.extend(segments)
        start = out[-1].end + 1
    return out


def exact(segments):
    """Segments as tuples whose floats compare bit for bit."""
    return [
        (s.start, s.end, s.slope.hex(), s.intercept.hex(), s.error.hex())
        for s in segments
    ]


@st.composite
def buffers(draw):
    """:func:`series`, a random walk on a 1e9 offset, a constant, or a
    rounded line (whose whole SSE may compute below its spans')."""
    kind = draw(
        st.sampled_from(["series", "offset walk", "constant", "line"])
    )
    if kind == "series":
        return draw(series())
    n = draw(st.integers(min_value=1, max_value=300))
    level = draw(st.floats(min_value=-1e6, max_value=1e6))
    if kind == "constant":
        return [level] * n
    if kind == "line":
        step = draw(st.sampled_from([0.1, 0.3, 1 / 3, 0.7, 1e-3]))
        return [level + step * i for i in range(n)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (1e9 + np.cumsum(rng.normal(size=n))).tolist()


#: max_error is the whole buffer's SSE times (1 + δ): δ at the boundary,
#: or anywhere in [-1, 1].
deltas = st.one_of(
    st.sampled_from([0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9]),
    st.floats(min_value=-1.0, max_value=1.0),
)


def budget_for(buffer, delta):
    fitter = _SpanFitter(buffer)
    return fitter.fit(0, fitter.size - 1)[2] * (1.0 + delta)


@given(values=buffers(), delta=deltas)
@settings(max_examples=150, deadline=None)
def test_property_bottom_up_is_exactly_the_greedy_loop(values, delta):
    max_error = budget_for(values, delta)
    assert exact(bottom_up(values, max_error)) == exact(
        _bottom_up(values, max_error, 0)
    )


@given(
    values=buffers(),
    delta=deltas,
    buffer_size=st.sampled_from([8, 40, 50]),
)
@settings(max_examples=150, deadline=None)
def test_property_swab_is_exactly_the_greedy_loop(values, delta, buffer_size):
    max_error = budget_for(values[:buffer_size], delta)
    assert exact(swab(values, max_error, buffer_size=buffer_size)) == exact(
        greedy_swab(values, max_error, buffer_size)
    )


def one_fit_swab(values, max_error, buffer_size):
    """``swab`` before the stride pass: every buffer goes through
    ``_bottom_up``, which accepts a buffer whole after one fit."""
    values = np.asarray(values, dtype=float).tolist()
    n = len(values)
    out = []
    start = 0
    while start < n:
        stop = min(start + buffer_size, n)
        segments = segmentation._bottom_up(values[start:stop], max_error, start)
        if stop < n:
            del segments[1:]
        out.extend(segments)
        start = out[-1].end + 1
    return out


@st.composite
def strided_series(draw):
    """``(values, buffer_size, max_error)``: pieces of whole buffers or
    not -- noisy lines a line fits within budget, noise that runs the
    greedy loop, runs of -0.0 -- with ±inf or NaN dropped into them,
    on a 1e9 offset or none; or fewer samples than one buffer."""
    size = draw(st.integers(2, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pieces = [rng.normal(size=draw(st.integers(0, size - 1)))]
    for _ in range(draw(st.integers(0, 4))):
        n = draw(st.integers(1, 3)) * size + draw(
            st.sampled_from([0, 0, 1, size // 2, size - 1])
        )
        kind = draw(st.sampled_from(["line", "line", "noise", "-0.0"]))
        if kind == "line":
            piece = draw(st.floats(-10, 10)) * np.arange(n) + rng.normal(
                scale=1e-3, size=n
            )
        elif kind == "noise":
            piece = rng.normal(scale=10.0, size=min(n, size + 3))
        else:
            piece = np.full(n, -0.0)
        pieces.append(piece)
    draw(st.randoms()).shuffle(pieces)
    values = np.concatenate(pieces)
    if draw(st.booleans()):
        values = values + 1e9
    for bad in draw(st.lists(st.sampled_from(
        [float("inf"), -float("inf"), float("nan")]
    ), max_size=2)):
        if len(values):
            values[draw(st.integers(0, len(values) - 1))] = bad
    max_error = draw(st.sampled_from([0.0, 1e-3, 1.0, 100.0])) * size
    return values.tolist(), size, max_error


@given(drawn=strided_series())
@settings(max_examples=200, deadline=None)
def test_property_the_stride_pass_is_exactly_the_one_fit_loop(drawn):
    values, buffer_size, max_error = drawn
    got = exact(swab(values, max_error, buffer_size=buffer_size))
    assert got == exact(one_fit_swab(values, max_error, buffer_size))
    assert got == exact(greedy_swab(values, max_error, buffer_size))


def test_minus_zero_buffers_fit_as_the_scalar_sums_do():
    # 0.0 + -0.0 is 0.0: the sums start from 0.0, so an all -0.0
    # buffer's mean, slope and intercept come out as the loop's.
    values = [-0.0] * 24 + [1.0, -0.0, 2.0]
    for max_error in (0.0, 1.0):
        assert exact(swab(values, max_error, buffer_size=8)) == exact(
            one_fit_swab(values, max_error, 8)
        )


def test_a_rounded_line_whose_whole_sse_is_zero_keeps_the_greedy_loop():
    # The whole buffer's SSE computes to 0.0 while shorter spans compute
    # to a few ulps, so at max_error 0.0 the greedy loop stops short of
    # one segment. The rounding guard sends the buffer down that loop.
    values = [0.1 * i for i in range(1, 12)]
    assert budget_for(values, 0.0) == 0.0
    segments = bottom_up(values, 0.0)
    assert len(segments) > 1
    assert exact(segments) == exact(_bottom_up(values, 0.0, 0))


class TestFitCounts:
    """A buffer whose whole fit is within budget costs one fit."""

    @pytest.fixture
    def fits(self, monkeypatch):
        """The spans of the lines fitted, as inclusive ``(start, end)``."""
        calls = []
        line = segmentation._SpanFitter.line

        def counted(self, start, stop):
            calls.append((start, stop - 1))
            return line(self, start, stop)

        monkeypatch.setattr(segmentation._SpanFitter, "line", counted)
        return calls

    def test_an_accepted_buffer_costs_one_fit(self, fits):
        assert spans(bottom_up(piecewise_signal(), max_error=1e9)) == [
            (0, 109)
        ]
        assert fits == [(0, 109)]

    def test_a_rejected_buffer_runs_the_greedy_loop(self, fits):
        values = TestTies.STEP + [0.0, 0.0, 8.0, 8.0]
        segments = bottom_up(values, max_error=0.25)
        assert spans(segments) == [(0, 3), (4, 5), (6, 7)]
        assert fits == [
            (0, 7),  # the whole buffer: over budget
            (0, 3), (2, 5), (4, 7),  # the initial pair costs
            (0, 5),  # after the leftmost of the two equal merges
            (0, 3), (4, 5), (6, 7),  # the segments
        ]

    def test_swab_fits_accepted_full_buffers_in_one_pass(self, fits):
        values = np.linspace(0.0, 10.0, 100)
        segments = swab(values, max_error=1.0, buffer_size=8)
        assert spans(segments) == [
            (i, min(i + 7, 99)) for i in range(0, 100, 8)
        ]
        # The twelve full buffers take the stride pass: no scalar fit.
        # The four-sample tail takes one whole-buffer fit.
        assert fits == [(0, 3)]


def test_the_mean_sum_is_the_uncompensated_left_to_right_sum():
    """Python 3.12 compensates the builtin float ``sum``; the fitter's
    and the rolling mean's sum adds left to right on every interpreter,
    as the builtin did up to 3.11."""
    assert segmentation.sequential_sum([0.1] * 10) == 0.9999999999999999
    assert segmentation.sequential_sum([]) == 0
    assert repr(segmentation.sequential_sum([-0.0])) == "0.0"


@pytest.mark.skipif(
    sys.version_info >= (3, 12),
    reason="the builtin float sum is compensated from Python 3.12",
)
@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    st.floats(), st.sampled_from([-0.0, float("inf"), float("-inf")]),
    st.integers(-(2 ** 70), 2 ** 70),
)))
def test_sequential_sum_is_the_builtin_of_this_interpreter(values):
    got, expected = segmentation.sequential_sum(values), sum(values)
    assert (type(got), repr(got)) == (type(expected), repr(expected))

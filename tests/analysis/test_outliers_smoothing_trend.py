"""Outlier detectors, smoothing filters and trend classification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    DECREASING,
    ExponentialSmoothing,
    HampelDetector,
    INCREASING,
    IqrDetector,
    MedianFilter,
    MovingAverage,
    STEADY,
    TrendClassifier,
    ZScoreDetector,
    gradient,
    split_outliers,
)
from repro.analysis.outliers import OutlierError, mean_var
from repro.analysis.smoothing import SmoothingError


def spiky_series():
    rng = np.random.default_rng(1)
    x = rng.normal(0, 1, 200)
    x[50] = 40.0
    x[120] = -35.0
    return x


class TestZScore:
    def test_finds_planted_spikes(self):
        mask = ZScoreDetector(threshold=3.5).mask(spiky_series())
        assert mask[50] and mask[120]
        assert mask.sum() == 2

    def test_constant_series_no_outliers(self):
        assert not ZScoreDetector().mask([5.0] * 10).any()

    def test_empty(self):
        assert ZScoreDetector().mask([]).size == 0

    def test_invalid_threshold(self):
        with pytest.raises(OutlierError):
            ZScoreDetector(threshold=0)


#: Lengths at and around numpy's pairwise-summation edges (an unrolled
#: block of 8, a pairwise block of 128 elements).
_EDGES = [1, 2, 3, 7, 8, 9, 15, 16, 17, 127, 128, 129, 255, 256, 257,
          1023, 1024, 1025, 2047, 2048, 2049, 3000]
_SPECIALS = [np.nan, np.inf, -np.inf, -0.0]


@st.composite
def _samples(draw):
    """Float64 samples: noise, constant runs or a constant, shifted by
    a 1e9 offset or not, with NaN, +-inf or -0.0 planted."""
    size = draw(st.one_of(st.integers(1, 3000), st.sampled_from(_EDGES)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = draw(st.sampled_from(["noise", "runs", "constant"]))
    if shape == "noise":
        x = rng.normal(0.0, draw(st.sampled_from([1e-9, 1.0, 1e6])), size)
    elif shape == "runs":
        levels = rng.normal(0.0, 10.0, size)
        x = np.repeat(levels, rng.integers(1, 50, size))[:size]
    else:
        x = np.full(size, draw(st.sampled_from([0.0, -0.0, 1.5, -3e-300])))
    offset = draw(st.sampled_from([0.0, 1e9, -1e9]))
    if offset:
        x = x + offset
    for at, value in draw(st.lists(st.tuples(
        st.integers(0, size - 1), st.sampled_from(_SPECIALS)
    ), max_size=3)):
        x[at] = value
    return x


def _bits(value):
    return np.asarray(value, dtype=np.float64).tobytes()


class TestMeanVar:
    @settings(max_examples=300, deadline=None)
    @given(x=_samples())
    def test_is_numpy_mean_var_and_std_bit_for_bit(self, x):
        mean, var, deviations = mean_var(x)
        assert _bits(mean) == _bits(x.mean())
        assert _bits(var) == _bits(x.var())
        assert _bits(np.sqrt(var)) == _bits(x.std())
        assert _bits(deviations) == _bits(x - x.mean())

    @settings(max_examples=100, deadline=None)
    @given(x=_samples(), threshold=st.sampled_from([1e-12, 0.5, 3.5]))
    def test_z_score_mask_is_the_two_sum_mask(self, x, threshold):
        std = x.std()
        expected = np.zeros(x.size, dtype=bool) if std == 0 else \
            np.abs(x - x.mean()) > threshold * std
        actual = ZScoreDetector(threshold=threshold).mask(x)
        assert actual.tolist() == expected.tolist()


class TestIqr:
    def test_finds_planted_spikes(self):
        mask = IqrDetector(k=3.0).mask(spiky_series())
        assert mask[50] and mask[120]

    def test_degenerate_distribution(self):
        x = [5.0] * 50 + [100.0]
        mask = IqrDetector().mask(x)
        assert mask[-1]
        assert mask.sum() == 1

    def test_all_equal(self):
        assert not IqrDetector().mask([3.0] * 20).any()


class TestHampel:
    def test_finds_local_spike_in_trend(self):
        # A global z-score misses a spike riding a strong trend; the
        # rolling Hampel filter catches it.
        x = np.linspace(0, 100, 200)
        x[100] += 30.0
        assert HampelDetector(window=11, threshold=3.0).mask(x)[100]

    def test_window_validation(self):
        with pytest.raises(OutlierError):
            HampelDetector(window=4)
        with pytest.raises(OutlierError):
            HampelDetector(window=1)


class TestSplitOutliers:
    def test_partition_preserves_everything(self):
        values = list(spiky_series())
        rows = list(enumerate(values))
        out_rows, clean_rows = split_outliers(rows, values, ZScoreDetector())
        assert len(out_rows) + len(clean_rows) == len(rows)
        assert {r[0] for r in out_rows} == {50, 120}


class TestMovingAverage:
    def test_same_length(self):
        out = MovingAverage(5).smooth([1.0] * 10)
        assert out.size == 10

    def test_reduces_variance(self):
        x = spiky_series()
        assert MovingAverage(7).smooth(x).var() < x.var()

    def test_window_one_identity(self):
        x = [1.0, 9.0, 2.0]
        assert list(MovingAverage(1).smooth(x)) == x

    def test_known_values(self):
        out = MovingAverage(3).smooth([1.0, 2.0, 3.0, 4.0, 5.0])
        assert list(out) == [1.5, 2.0, 3.0, 4.0, 4.5]

    def test_invalid_window(self):
        with pytest.raises(SmoothingError):
            MovingAverage(0)

    @staticmethod
    def per_sample_loop(values, window):
        """The loop ``smooth`` vectorises: same expression per sample."""
        x = np.asarray(values, dtype=float)
        n = x.size
        half = window // 2
        csum = np.concatenate(([0.0], np.cumsum(x)))
        out = np.empty(n)
        for i in range(n):
            lo = max(0, i - half)
            hi = min(n, i + half + 1)
            out[i] = (csum[hi] - csum[lo]) / (hi - lo)
        return out

    @pytest.mark.parametrize("seed", range(10))
    def test_bit_identical_to_per_sample_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 200))
        x = rng.normal(0, 10.0 ** rng.integers(-3, 7), n) + rng.normal(0, 1e3)
        for window in (2, 3, 6, 9, n, n + 1, 2 * n + 5):
            assert np.array_equal(
                MovingAverage(window).smooth(x),
                self.per_sample_loop(x, window),
            )


class TestExponentialSmoothing:
    def test_first_value_kept(self):
        out = ExponentialSmoothing(0.5).smooth([10.0, 0.0])
        assert out[0] == 10.0
        assert out[1] == 5.0

    def test_alpha_one_identity(self):
        x = [1.0, 5.0, 2.0]
        assert list(ExponentialSmoothing(1.0).smooth(x)) == x

    def test_invalid_alpha(self):
        with pytest.raises(SmoothingError):
            ExponentialSmoothing(0.0)


class TestMedianFilter:
    def test_removes_single_spike(self):
        x = [1.0, 1.0, 50.0, 1.0, 1.0]
        out = MedianFilter(3).smooth(x)
        assert out[2] == 1.0

    def test_even_window_rejected(self):
        with pytest.raises(SmoothingError):
            MedianFilter(4)


class TestTrendClassifier:
    def test_slope_labels(self):
        tc = TrendClassifier(steady_threshold=0.1)
        assert tc.classify_slope(1.0) == INCREASING
        assert tc.classify_slope(-1.0) == DECREASING
        assert tc.classify_slope(0.05) == STEADY

    def test_gradient_labels_follow_shape(self):
        tc = TrendClassifier(steady_threshold=0.1)
        labels = tc.classify_gradient([0.0, 1.0, 2.0, 2.0, 2.0, 1.0, 0.0])
        assert labels[0] == INCREASING
        assert labels[3] == STEADY
        assert labels[-1] == DECREASING

    def test_single_value_steady(self):
        assert TrendClassifier().classify_gradient([5.0]) == [STEADY]

    def test_empty(self):
        assert TrendClassifier().classify_gradient([]) == []

    def test_each_segment_takes_its_own_gradient(self):
        tc = TrendClassifier(steady_threshold=0.1)
        parts = [[0.0, 1.0, 2.0], [5.0], [], [3.0, 1.0], [2.0, 2.0, 0.0, 4.0]]
        owner = np.repeat(np.arange(len(parts)), [len(p) for p in parts])
        assert tc.classify_gradient(np.concatenate(parts), owner) == [
            label for part in parts for label in tc.classify_gradient(part)
        ]


class TestGradient:
    def test_linear_series_constant_gradient(self):
        assert gradient([0.0, 2.0, 4.0]) == [2.0, 2.0, 2.0]

    def test_single_value(self):
        assert gradient([7.0]) == [0.0]

    def test_empty(self):
        assert gradient([]) == []

"""Outlier detection for numeric signal sequences.

The α and β branches of Algorithm 1 split numeric sequences into
outliers (kept aside as potential errors, lines 16/21) and clean values.
Three standard detectors are provided; all return a boolean mask so the
caller can both remove *and* preserve the outliers, as the paper's merge
step requires.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class OutlierError(ValueError):
    """Raised for invalid detector parameters."""


def mean_var(x):
    """``(x.mean(), x.var(), x - x.mean())`` of a non-empty float64
    array from one sum of *x* and one of its squared deviations, bit for
    bit as numpy's ``_methods._var`` computes them: the mean is the
    pairwise sum over the count, the variance the pairwise sum of the
    squared deviations over the count (``x.std()`` is its square root).
    """
    mean = np.add.reduce(x) / x.size
    deviations = x - mean
    return mean, np.add.reduce(np.square(deviations)) / x.size, deviations


@dataclass(frozen=True)
class ZScoreDetector:
    """|value - mean| > threshold * std."""

    threshold: float = 3.5

    def __post_init__(self):
        if self.threshold <= 0:
            raise OutlierError("threshold must be positive")

    def mask(self, values):
        x = np.asarray(values, dtype=float)
        if x.size == 0:
            return np.zeros(0, dtype=bool)
        _mean, var, deviations = mean_var(x)
        std = np.sqrt(var)
        if std == 0:
            return np.zeros(x.size, dtype=bool)
        return np.abs(deviations) > self.threshold * std


@dataclass(frozen=True)
class IqrDetector:
    """Tukey fences: outside [q1 - k*IQR, q3 + k*IQR]."""

    k: float = 3.0

    def __post_init__(self):
        if self.k <= 0:
            raise OutlierError("k must be positive")

    def mask(self, values):
        x = np.asarray(values, dtype=float)
        if x.size == 0:
            return np.zeros(0, dtype=bool)
        q1, q3 = np.percentile(x, [25, 75])
        iqr = q3 - q1
        if iqr == 0:
            # Degenerate distribution (>=50% identical values): any point
            # deviating from the median is an outlier, provided deviants
            # are a minority; otherwise nothing is flagged.
            med = np.median(x)
            deviant = np.abs(x - med) > 0
            if deviant.mean() >= 0.25:
                return np.zeros(x.size, dtype=bool)
            return deviant
        lo, hi = q1 - self.k * iqr, q3 + self.k * iqr
        return (x < lo) | (x > hi)


@dataclass(frozen=True)
class HampelDetector:
    """Rolling-median filter: |x - median| > threshold * MAD in a window."""

    window: int = 11
    threshold: float = 3.0

    def __post_init__(self):
        if self.window < 3 or self.window % 2 == 0:
            raise OutlierError("window must be an odd integer >= 3")
        if self.threshold <= 0:
            raise OutlierError("threshold must be positive")

    def mask(self, values):
        x = np.asarray(values, dtype=float)
        n = x.size
        mask = np.zeros(n, dtype=bool)
        if n == 0:
            return mask
        half = self.window // 2
        scale = 1.4826  # MAD -> std for Gaussian data
        for i in range(n):
            lo = max(0, i - half)
            hi = min(n, i + half + 1)
            window = x[lo:hi]
            med = np.median(window)
            mad = np.median(np.abs(window - med))
            if mad == 0:
                mask[i] = x[i] != med and np.all(window[window != x[i]] == med)
                continue
            mask[i] = abs(x[i] - med) > self.threshold * scale * mad
        return mask


def split_outliers(rows, values, detector):
    """Partition parallel (rows, values) into (outlier_rows, clean_rows).

    This is the paper's ``outlier(K)`` returning ``(K_out, K_rep)`` --
    outliers are *kept*, not discarded, so they can be merged back as
    potential errors after processing.
    """
    mask = detector.mask(values)
    outlier_rows = [r for r, m in zip(rows, mask) if m]
    clean_rows = [r for r, m in zip(rows, mask) if not m]
    return outlier_rows, clean_rows

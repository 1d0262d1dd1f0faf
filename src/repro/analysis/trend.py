"""Trend estimation.

The α branch derives a trend per SWAB segment from the fitted slope; the
β branch estimates trends of ordinal sequences "using the gradient"
(Sec. 4.2). Trends are the categorical labels that appear in the state
representation of Table 4: increasing / decreasing / steady.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

INCREASING = "increasing"
DECREASING = "decreasing"
STEADY = "steady"


@dataclass(frozen=True)
class TrendClassifier:
    """Classify slopes into trend labels.

    ``steady_threshold`` is the absolute slope (per sample) below which a
    segment counts as steady; scale it to the signal's value range when
    known.
    """

    steady_threshold: float = 1e-3

    def classify_slope(self, slope):
        if slope > self.steady_threshold:
            return INCREASING
        if slope < -self.steady_threshold:
            return DECREASING
        return STEADY

    def classify_gradient(self, values, owner=None):
        """Trend label per value from the discrete gradient.

        The gradient is ``numpy.gradient``'s with unit spacing: central
        differences inside, forward and backward ones at the first and
        last element. With *owner* (per value, its segment; segments are
        contiguous) it is taken per segment, for all segments at once.
        Labels are :meth:`classify_slope`'s, taken for the whole gradient
        at once: a NaN gradient and a segment of one value are steady.
        """
        x = np.asarray(values, dtype=float)
        if owner is None:
            owner = np.zeros(x.size, np.intp)
        after = np.zeros(x.size, dtype=bool)  # has a successor
        after[:-1] = owner[1:] == owner[:-1]
        before = np.zeros(x.size, dtype=bool)  # has a predecessor
        before[1:] = after[:-1]
        grad = np.zeros(x.size)
        both = np.flatnonzero(before & after)
        grad[both] = (x[both + 1] - x[both - 1]) / 2.0
        first = np.flatnonzero(after & ~before)
        grad[first] = x[first + 1] - x[first]
        last = np.flatnonzero(before & ~after)
        grad[last] = x[last] - x[last - 1]
        labels = np.full(x.size, STEADY, dtype=object)
        labels[grad < -self.steady_threshold] = DECREASING
        labels[grad > self.steady_threshold] = INCREASING
        labels[~(before | after)] = STEADY
        return labels.tolist()


def gradient(values):
    """Discrete gradient (numpy.gradient) as a list of floats."""
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        return []
    if x.size == 1:
        return [0.0]
    return [float(g) for g in np.gradient(x)]

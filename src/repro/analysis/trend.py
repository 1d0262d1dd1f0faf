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

    def classify_gradient(self, values):
        """Trend label per value from the discrete gradient.

        The first element has no predecessor and is labelled from the
        forward difference, matching ``numpy.gradient`` edge handling.
        Labels are :meth:`classify_slope`'s, taken for the whole gradient
        at once: a NaN gradient is steady.
        """
        x = np.asarray(values, dtype=float)
        if x.size < 2:
            return [STEADY] * x.size
        grad = np.gradient(x)
        labels = np.full(grad.size, STEADY, dtype=object)
        labels[grad < -self.steady_threshold] = DECREASING
        labels[grad > self.steady_threshold] = INCREASING
        return labels.tolist()


def gradient(values):
    """Discrete gradient (numpy.gradient) as a list of floats."""
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        return []
    if x.size == 1:
        return [0.0]
    return [float(g) for g in np.gradient(x)]

"""Smoothing filters for the α branch (Algorithm 1, before SWAB)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SmoothingError(ValueError):
    """Raised for invalid filter parameters."""


@dataclass(frozen=True)
class MovingAverage:
    """Centered moving average with edge-shrinking windows.

    Window edges shrink near the series boundaries so the output has the
    same length as the input and no phase shift.
    """

    window: int = 5

    def __post_init__(self):
        if self.window < 1:
            raise SmoothingError("window must be >= 1")

    def smooth(self, values):
        x = np.asarray(values, dtype=float)
        n = x.size
        if n == 0 or self.window == 1:
            return x.copy()
        half = self.window // 2
        csum = np.concatenate(([0.0], np.cumsum(x)))
        index = np.arange(n)
        lo = np.maximum(index - half, 0)
        hi = np.minimum(index + half + 1, n)
        return (csum[hi] - csum[lo]) / (hi - lo)


@dataclass(frozen=True)
class ExponentialSmoothing:
    """Classic single exponential smoothing with factor alpha."""

    alpha: float = 0.3

    def __post_init__(self):
        if not 0 < self.alpha <= 1:
            raise SmoothingError("alpha must be in (0, 1]")

    def smooth(self, values):
        x = np.asarray(values, dtype=float)
        if x.size == 0:
            return x.copy()
        out = np.empty_like(x)
        out[0] = x[0]
        a = self.alpha
        for i in range(1, x.size):
            out[i] = a * x[i] + (1 - a) * out[i - 1]
        return out


@dataclass(frozen=True)
class MedianFilter:
    """Rolling median; robust against residual spikes."""

    window: int = 5

    def __post_init__(self):
        if self.window < 1 or self.window % 2 == 0:
            raise SmoothingError("window must be an odd integer >= 1")

    def smooth(self, values):
        x = np.asarray(values, dtype=float)
        n = x.size
        if n == 0 or self.window == 1:
            return x.copy()
        half = self.window // 2
        out = np.empty(n)
        for i in range(n):
            lo = max(0, i - half)
            hi = min(n, i + half + 1)
            out[i] = np.median(x[lo:hi])
        return out

"""SAX: Symbolic Aggregate approXimation.

Implements Lin, Keogh, Lonardi & Chiu, "A symbolic representation of time
series, with implications for streaming algorithms" (DMKD 2004) --
reference [9] of the paper -- from scratch: z-normalization, Piecewise
Aggregate Approximation (PAA), discretization against equiprobable
Gaussian breakpoints and the MINDIST lower-bounding distance.

The paper's α branch maps each SWAB segment onto a SAX symbol, giving a
(trend, symbol) tuple per segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist

import numpy as np

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"

MIN_ALPHABET = 2
MAX_ALPHABET = 20


class SaxError(ValueError):
    """Raised for invalid SAX parameters."""


@lru_cache(maxsize=None)  # at most one tuple per valid alphabet size
def gaussian_breakpoints(alphabet_size):
    """Breakpoints splitting N(0,1) into *alphabet_size* equiprobable bins."""
    if not MIN_ALPHABET <= alphabet_size <= MAX_ALPHABET:
        raise SaxError(
            "alphabet size must be in {}..{}".format(MIN_ALPHABET, MAX_ALPHABET)
        )
    inv_cdf = NormalDist().inv_cdf
    return tuple(inv_cdf(k / alphabet_size) for k in range(1, alphabet_size))


def znormalize(values, epsilon=1e-8):
    """Zero-mean unit-variance normalization.

    Near-constant series (std < epsilon) normalize to all zeros rather
    than amplifying noise, per common SAX practice.
    """
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        return x
    std = x.std()
    if std < epsilon:
        return np.zeros_like(x)
    return (x - x.mean()) / std


def paa(values, num_segments):
    """Piecewise Aggregate Approximation to *num_segments* means.

    Handles series lengths not divisible by the segment count by
    fractional assignment (each sample contributes proportionally to the
    segments it spans), as in the reference implementation.
    """
    x = np.asarray(values, dtype=float)
    n = x.size
    if num_segments < 1:
        raise SaxError("num_segments must be positive")
    if n == 0:
        raise SaxError("cannot PAA an empty series")
    if n == num_segments:
        return x.copy()
    if n % num_segments == 0:
        return x.reshape(num_segments, n // num_segments).mean(axis=1)
    # Fractional cover: upsample by num_segments, then block-average.
    upsampled = np.repeat(x, num_segments)
    return upsampled.reshape(num_segments, n).mean(axis=1)


def symbolize_value(value, breakpoints):
    """Map one normalized value to its symbol index (0-based)."""
    index = 0
    for bp in breakpoints:
        if value < bp:
            break
        index += 1
    return index


@dataclass(frozen=True)
class SaxEncoder:
    """SAX pipeline: znorm -> PAA -> symbols.

    Parameters
    ----------
    alphabet_size:
        Number of symbols (2..20).
    word_length:
        Number of PAA segments per word when encoding whole series.
    """

    alphabet_size: int = 5
    word_length: int = 8

    def __post_init__(self):
        gaussian_breakpoints(self.alphabet_size)  # validates
        if self.word_length < 1:
            raise SaxError("word_length must be positive")

    @property
    def breakpoints(self):
        return gaussian_breakpoints(self.alphabet_size)

    def encode_word(self, values):
        """Whole-series SAX word of length ``word_length``."""
        normalized = znormalize(values)
        reduced = paa(normalized, self.word_length)
        bps = self.breakpoints
        return "".join(
            _ALPHABET[symbolize_value(v, bps)] for v in reduced
        )

    def encode_values(self, values):
        """Symbol per value (no PAA) against the series' own statistics."""
        normalized = znormalize(values)
        bps = self.breakpoints
        return [
            _ALPHABET[symbolize_value(v, bps)] for v in normalized
        ]

    def symbol_for_level(self, value, mean, std, epsilon=1e-8):
        """Symbol for one value given external normalization statistics.

        Used by the α branch: segment means are symbolized against the
        statistics of the whole signal sequence, so symbols stay
        comparable across segments.
        """
        if std < epsilon:
            normalized = 0.0
        else:
            normalized = (value - mean) / std
        return _ALPHABET[symbolize_value(normalized, self.breakpoints)]

    def level_indices(self, levels, means, stds, epsilon=1e-8):
        """:meth:`symbol_for_level`'s index per element of the arrays."""
        with np.errstate(all="ignore"):
            normalized = np.where(stds < epsilon, 0.0, (levels - means) / stds)
        return np.searchsorted(self.breakpoints, normalized, side="right")

    def mindist(self, word_a, word_b, series_length):
        """MINDIST lower bound between two SAX words (Lin et al. 2004)."""
        if len(word_a) != len(word_b):
            raise SaxError("words must have equal length")
        bps = (-math.inf,) + self.breakpoints + (math.inf,)
        total = 0.0
        for sa, sb in zip(word_a, word_b):
            i, j = _ALPHABET.index(sa), _ALPHABET.index(sb)
            if abs(i - j) <= 1:
                continue
            hi, lo = max(i, j), min(i, j)
            gap = bps[hi] - bps[lo + 1]
            total += gap * gap
        return math.sqrt(series_length / len(word_a)) * math.sqrt(total)

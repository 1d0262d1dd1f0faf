"""Type-dependent processing branches α, β, γ (Sec. 4.2, lines 13-28).

All three branches homogenize the reduced sequences -- the segments of
a :class:`~repro.core.sequence.Sequences` set, split with masks -- into
the common output layout ``R_COLUMNS = (t, s_id, b_id, kind, value,
trend)``, and build those rows once, as their result:

* α (fast numerics): outlier removal -> smoothing -> SWAB segmentation
  -> trend per segment + SAX symbol per segment, outliers merged back as
  potential errors;
* β (ordinals): split functional/validity parts, translate the
  functional part to numeric ranks, outlier detection, per-element trend
  from the gradient, outliers merged back;
* γ (binary/nominal): no transformation; functional/validity split only.

``kind`` is one of ``symbol`` (α/β output), ``outlier``, ``binary``,
``nominal`` or ``validity``; ``value`` is a level label (α/β), the
original label (γ) or the raw numeric value (outliers); ``trend`` is
increasing/decreasing/steady or None.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate, chain

import numpy as np

from repro.analysis.outliers import ZScoreDetector
from repro.analysis.sax import SaxEncoder
from repro.analysis.segmentation import swab
from repro.analysis.smoothing import MovingAverage
from repro.analysis.trend import (
    DECREASING,
    INCREASING,
    STEADY,
    TrendClassifier,
)
from repro.core.classification import (
    ALPHA,
    BETA,
    BINARY,
    GAMMA,
    ClassifierConfig,
    all_numeric,
    numeric_mask,
)
from repro.core.model import NUMBER, OBJECT

#: Homogeneous output layout of every branch.
R_COLUMNS = ("t", "s_id", "b_id", "kind", "value", "trend")

KIND_SYMBOL = "symbol"
KIND_OUTLIER = "outlier"
KIND_BINARY = "binary"
KIND_NOMINAL = "nominal"
KIND_VALIDITY = "validity"
KIND_EXTENSION = "extension"

#: Semantic level labels per SAX alphabet size (Table 4 prints "high",
#: not a raw SAX letter). Sizes without labels fall back to letters.
LEVEL_LABELS = {
    2: ("low", "high"),
    3: ("low", "medium", "high"),
    4: ("low", "medium_low", "medium_high", "high"),
    5: ("very_low", "low", "medium", "high", "very_high"),
}


class BranchError(ValueError):
    """Raised for invalid branch configuration."""


@dataclass(frozen=True)
class BranchConfig:
    """Tuning knobs of the three branches.

    ``swab_error_fraction`` scales the SWAB error bound relative to the
    sequence variance (so one setting works across physical units);
    ``trend_fraction`` scales the steady-slope threshold relative to the
    sequence's value spread per sample.
    """

    outlier_detector: object = field(default_factory=ZScoreDetector)
    smoother: object = field(default_factory=lambda: MovingAverage(window=5))
    sax: SaxEncoder = field(default_factory=lambda: SaxEncoder(alphabet_size=3))
    swab_error_fraction: float = 0.05
    swab_buffer: int = 40
    trend_fraction: float = 0.02
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)

    def level_label(self, symbol_index):
        labels = LEVEL_LABELS.get(self.sax.alphabet_size)
        if labels is None:
            return "abcdefghijklmnopqrstuvwxyz"[symbol_index]
        return labels[symbol_index]


def process_branch(sequence, classification, config=None):
    """Dispatch one classified sequence to its branch (line 13)."""
    return branch_segments(sequence.as_set(), [classification], config)[0]


def branch_segments(sequences, classifications, config=None):
    """Lines 13-28 for every segment of a
    :class:`~repro.core.sequence.Sequences` set, segment ``i`` on the
    branch of ``classifications[i]``: the R rows of each, one list per
    segment. Each branch runs over masks and gathers of all its
    segments at once: α in :func:`_alpha`, β and γ in
    :func:`_beta_gamma`."""
    config = config or BranchConfig()
    out = [None] * len(classifications)
    alpha, vector = [], []
    for i, classification in enumerate(classifications):
        if classification.branch == ALPHA:
            alpha.append(i)
        elif classification.branch in (BETA, GAMMA):
            vector.append(i)
        else:
            raise BranchError(
                "unknown branch {!r}".format(classification.branch)
            )
    for i, rows in zip(alpha + vector, _alpha(sequences, alpha, config) +
                       _beta_gamma(sequences, vector, classifications, config)):
        out[i] = rows
    return out


#: The R kinds, in ``str`` order.
_KINDS = (KIND_BINARY, KIND_NOMINAL, KIND_OUTLIER, KIND_SYMBOL, KIND_VALIDITY)
_SYMBOL = _KINDS.index(KIND_SYMBOL)


def _alpha(sequences, segments, config):
    """Branch α for *segments* (ascending) of *sequences*, one list of
    R rows per segment.

    Non-numeric elements are validity or nominal rows; the detector, the
    smoother and SWAB run on each segment's numbers as on the segment
    alone. A SWAB segment's level is the pairwise sum of its smoothed
    values over their count, as ``ndarray.mean``, reduced for all SWAB
    segments of one length at once; SAX symbols and the trends of the
    slopes are taken for all SWAB segments at once.
    """
    index = sequences.positions(np.asarray(segments, np.intp))
    x, value = sequences.x[index], np.empty(len(index), dtype=object)
    kind = np.full(len(index), _SYMBOL, np.int8)
    sizes = sequences.sizes[segments]  # numbers per segment
    if (sequences.kinds[segments] != NUMBER).any():
        loose = np.flatnonzero(sequences.kind[index] != NUMBER)
        # typeSplit: peel off non-numeric elements (e.g. embedded
        # validity strings) as nominal side output.
        numeric = numeric_mask(sequences.v[index[loose]])
        x[loose[numeric]] = sequences.v[index[loose[numeric]]].astype(float)
        labels = loose[~numeric]
        value[labels] = sequences.text(index[labels])
        kind[labels] = np.where(np.fromiter(map(
            config.classifier.validity_values.__contains__, value[labels]
        ), bool, len(labels)), _KINDS.index(KIND_VALIDITY),
            _KINDS.index(KIND_NOMINAL))
        sizes = sizes - np.bincount(sequences.segment[index[labels]],
                                    minlength=len(sequences.keys))[segments]
    numbers = np.flatnonzero(kind == _SYMBOL)
    x, outlier = x[numbers], np.zeros(len(numbers), dtype=bool)
    smoothed, fits, stats, sizes = [], [], [], sizes.tolist()
    for lo, hi in zip(accumulate([0] + sizes), accumulate(sizes)):
        if lo < hi:  # each segment's numbers, a slice of x
            outlier[lo:hi] = config.outlier_detector.mask(x[lo:hi])
        if lo < hi and not outlier[lo:hi].all():
            part = config.smoother.smooth(x[lo:hi][~outlier[lo:hi]])
            # np.std is the square root of np.var, bit for bit.
            mean, variance = float(part.mean()), float(part.var())
            std, offset = math.sqrt(variance), sum(map(len, smoothed))
            smoothed.append(part)
            segs = swab(part, config.swab_error_fraction * max(
                variance, 1e-12) * config.swab_buffer,
                buffer_size=config.swab_buffer)
            fits += [(seg.start + offset, seg.end + offset, seg.slope)
                     for seg in segs]
            stats += [(mean, std, config.trend_fraction * max(std, 1e-12))
                      ] * len(segs)
    kind[numbers[outlier]], value[numbers[outlier]] = \
        _KINDS.index(KIND_OUTLIER), x[outlier]
    first, last, slope = np.fromiter(chain.from_iterable(fits), float,
                                     3 * len(fits)).reshape(-1, 3).T
    first, length = first.astype(np.intp), (last - first + 1).astype(np.intp)
    mean, std, steady = np.fromiter(chain.from_iterable(stats), float,
                                    3 * len(stats)).reshape(-1, 3).T
    series, level = np.concatenate(smoothed + [x[:0]]), np.empty(len(first))
    for size in set(length.tolist()):
        of = np.flatnonzero(length == size)
        level[of] = np.add.reduce(
            series[first[of, None] + np.arange(size)], axis=1
        ) / size
    labels = np.array([config.level_label(i) for i in range(
        config.sax.alphabet_size)], dtype=object)
    rows = np.flatnonzero(kind != _SYMBOL)
    return _ordered(
        sequences, segments,
        np.append(index[rows], index[numbers[~outlier][first]]),
        np.append(kind[rows], np.full(len(first), _SYMBOL, np.int8)),
        np.append(value[rows], labels[
            config.sax.level_indices(level, mean, std)]),
        np.append(np.full(len(rows), None), np.where(
            slope > steady, INCREASING,
            np.where(slope < -steady, DECREASING, STEADY),
        ).astype(object)),
    )


def _beta_gamma(sequences, segments, classifications, config):
    """Branches β and γ for *segments* (ascending) of *sequences*, one
    R row per element, one list per segment.

    γ keeps every element, labelled validity or its data type. β splits
    off the validity elements, translates the functional ones to ranks
    (:func:`_ranks`), flags outliers per segment and labels the rest
    with the trend of the rank gradient, as ``numpy.gradient`` with unit
    spacing computes it, per segment.
    """
    index = sequences.positions(np.asarray(segments, np.intp))
    owner = sequences.segment[index]
    invalid = sequences.isin(config.classifier.validity_values)[index]
    value = sequences.text(index)
    trend = np.full(len(index), None, dtype=object)
    code = np.full(len(sequences.keys), -1, np.int8)
    for i in segments:
        c = classifications[i]
        code[i] = -1 if c.branch == BETA else _KINDS.index(
            KIND_BINARY if c.data_type == BINARY else KIND_NOMINAL
        )
    kind = code[owner]
    kind[invalid] = _KINDS.index(KIND_VALIDITY)
    functional = np.flatnonzero(kind < 0)
    if len(functional):
        ranks = _ranks(sequences, index[functional], owner[functional], config)
        heads = np.flatnonzero(np.diff(owner[functional], prepend=-1))
        outlier = np.concatenate([
            np.asarray(config.outlier_detector.mask(part), dtype=bool)
            for part in np.split(ranks, heads[1:])
        ])
        kind[functional] = _KINDS.index(KIND_SYMBOL)
        kind[functional[outlier]] = _KINDS.index(KIND_OUTLIER)
        value[functional[outlier]] = sequences.v[index[functional[outlier]]]
        clean = functional[~outlier]
        trend[clean] = TrendClassifier(
            steady_threshold=config.trend_fraction
        ).classify_gradient(ranks[~outlier], owner[clean])
    return _ordered(sequences, segments, index, kind, value, trend)


def _ordered(sequences, segments, at, kind, value, trend):
    """The R rows of the elements at positions *at*, with codes *kind*
    into :data:`_KINDS`, objects *value* and *trend*: one list per
    segment of *segments* (ascending), each sorted by ``t``, then kind,
    stably."""
    owner = sequences.segment[at]
    order = np.lexsort((at, kind, sequences.times()[at], owner))
    at, owner = at[order], owner[order]
    s_ids = np.fromiter((key[0] for key in sequences.keys), object,
                        len(sequences.keys))
    rows = list(zip(
        sequences.t[at].tolist(), s_ids[owner].tolist(),
        sequences.channels[sequences.b[at]].tolist(),
        np.array(_KINDS, dtype=object)[kind[order]].tolist(),
        value[order].tolist(), trend[order].tolist(),
    ))
    sizes = np.bincount(owner, minlength=len(sequences.keys))[segments]
    return [rows[end - size : end] for end, size in
            zip(accumulate(sizes.tolist()), sizes.tolist())]


def _ranks(sequences, index, owner, config):
    """β's numeric translation of the elements at *index* (segment by
    segment, *owner* each one's), as float64 ranks.

    A segment of numbers ranks as its values; one of labels by a
    configured vocabulary holding all of its labels (so low < medium <
    high) or, failing that, by sorted order.
    """
    ranks = sequences.x[index]
    kinds = sequences.kind[index]
    heads = np.flatnonzero(np.diff(owner, prepend=-1))
    for lo, hi in zip(heads.tolist(), np.append(heads[1:], len(index)).tolist()):
        if kinds[lo] == NUMBER:
            continue
        values = sequences.v[index[lo:hi]]
        if kinds[lo] == OBJECT and all_numeric(values):
            ranks[lo:hi] = values.astype(float)
            continue
        labels = list(map(str, values.tolist()))
        distinct = set(labels)
        vocabulary = next((
            words for words in config.classifier.ordinal_vocabularies
            if distinct <= set(words)
        ), sorted(distinct))
        order = {label: i for i, label in enumerate(vocabulary)}
        ranks[lo:hi] = np.fromiter(map(order.__getitem__, labels), float,
                                   hi - lo)
    return ranks

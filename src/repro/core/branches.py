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
from itertools import repeat

import numpy as np

from repro.analysis.outliers import ZScoreDetector
from repro.analysis.sax import SaxEncoder
from repro.analysis.segmentation import swab
from repro.analysis.smoothing import MovingAverage
from repro.analysis.trend import TrendClassifier
from repro.core.classification import (
    ALPHA,
    BETA,
    BINARY,
    GAMMA,
    ORDINAL,
    Classification,
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


def _rows(sequence, kind, value, trend=None):
    """R rows of *sequence*'s elements, as Python scalars. *kind*,
    *value* and *trend* are one per element (a list) or one for all."""
    n = len(sequence)
    return list(zip(
        sequence.t.tolist(), repeat(sequence.s_id, n), sequence.b.tolist(),
        *(c if isinstance(c, list) else repeat(c, n)
          for c in (kind, value, trend))
    ))


def process_alpha(sequence, config=None):
    """Branch α: lines 14-19 of Algorithm 1, for one sequence whose
    values are objects, or float64 when every one is a number."""
    config = config or BranchConfig()
    out, numbers, values = [], sequence, sequence.v
    if values.dtype == object:
        # typeSplit: peel off non-numeric elements (e.g. embedded
        # validity strings) as nominal side output.
        numeric = numeric_mask(values)
        labels = [str(v) for v in values[~numeric]]
        validity = config.classifier.validity_values
        out = _rows(sequence.take(~numeric), [
            KIND_VALIDITY if label in validity else KIND_NOMINAL
            for label in labels
        ], labels)
        numbers = sequence.take(numeric)
        values = numbers.v.astype(float)
    if not len(numbers):
        return sorted(out, key=_row_key)
    mask = np.asarray(config.outlier_detector.mask(values), dtype=bool)
    out += _rows(numbers.take(mask), KIND_OUTLIER, values[mask].tolist())
    clean = numbers.take(~mask)
    if not len(clean):
        return sorted(out, key=_row_key)
    smoothed = config.smoother.smooth(values[~mask])
    # np.std is the square root of np.var, bit for bit.
    mean, variance = float(smoothed.mean()), float(smoothed.var())
    std = math.sqrt(variance)
    max_error = config.swab_error_fraction * max(variance, 1e-12) * config.swab_buffer
    segments = swab(smoothed, max_error, buffer_size=config.swab_buffer)
    trend = TrendClassifier(
        steady_threshold=config.trend_fraction * max(std, 1e-12)
    )
    starts = [seg.start for seg in segments]
    for seg, t, b in zip(
        segments, clean.t[starts].tolist(), clean.b[starts].tolist()
    ):
        # As ndarray.mean: the pairwise sum over the count.
        level = float(np.add.reduce(smoothed[seg.start : seg.end + 1])
                      / (seg.end + 1 - seg.start))
        symbol = config.sax.symbol_for_level(level, mean, std)
        label = config.level_label("abcdefghijklmnopqrstuvwxyz".index(symbol))
        out.append((
            t, clean.s_id, b, KIND_SYMBOL, label,
            trend.classify_slope(seg.slope),
        ))
    out.sort(key=_row_key)
    return out


def process_beta(sequence, config=None):
    """Branch β: lines 20-25 of Algorithm 1, for one sequence."""
    return branch_segments(
        sequence.as_set(), [Classification(None, ORDINAL, BETA)], config
    )[0]


def process_gamma(sequence, data_type, config=None):
    """Branch γ: lines 26-28 -- no transformation, F/V split only."""
    return branch_segments(
        sequence.as_set(), [Classification(None, data_type, GAMMA)], config
    )[0]


def process_branch(sequence, classification, config=None):
    """Dispatch one classified sequence to its branch (line 13)."""
    return branch_segments(sequence.as_set(), [classification], config)[0]


def branch_segments(sequences, classifications, config=None):
    """Lines 13-28 for every segment of a
    :class:`~repro.core.sequence.Sequences` set, segment ``i`` on the
    branch of ``classifications[i]``: the R rows of each, one list per
    segment. α runs per segment, SWAB in Keogh's order; β and γ run
    over masks and gathers of all their segments at once
    (:func:`_beta_gamma`)."""
    config = config or BranchConfig()
    out = [None] * len(classifications)
    vector = []
    for i, classification in enumerate(classifications):
        if classification.branch == ALPHA:
            out[i] = process_alpha(sequences.sequence(i, numbers=True), config)
        elif classification.branch in (BETA, GAMMA):
            vector.append(i)
        else:
            raise BranchError(
                "unknown branch {!r}".format(classification.branch)
            )
    if vector:
        rows = _beta_gamma(sequences, vector, classifications, config)
        for i, segment_rows in zip(vector, rows):
            out[i] = segment_rows
    return out


#: The R kinds β and γ emit, in ``str`` order (:func:`_row_key`).
_KINDS = (KIND_BINARY, KIND_NOMINAL, KIND_OUTLIER, KIND_SYMBOL, KIND_VALIDITY)


def _beta_gamma(sequences, segments, classifications, config):
    """Branches β and γ for *segments* (ascending) of *sequences*, one
    R row per element, one list per segment.

    γ keeps every element, labelled validity or its data type. β splits
    off the validity elements, translates the functional ones to ranks
    (:func:`_ranks`), flags outliers per segment and labels the rest
    with the trend of the rank gradient, as ``numpy.gradient`` with unit
    spacing computes it, per segment. Each segment's rows are ordered as
    :func:`_row_key` sorts them: by ``t``, then kind, stable.
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
    order = np.lexsort((
        np.arange(len(index)), kind, sequences.times()[index], owner
    ))
    index, owner = index[order], owner[order]
    s_ids = np.fromiter((key[0] for key in sequences.keys), object,
                        len(sequences.keys))
    rows = list(zip(
        sequences.t[index].tolist(), s_ids[owner].tolist(),
        sequences.channels[sequences.b[index]].tolist(),
        np.array(_KINDS, dtype=object)[kind[order]].tolist(),
        value[order].tolist(), trend[order].tolist(),
    ))
    ends = np.cumsum(sequences.sizes[segments]).tolist()
    return [rows[end - size : end] for end, size in
            zip(ends, sequences.sizes[segments].tolist())]


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


def _row_key(row):
    return (row[0], str(row[1]), str(row[3]))


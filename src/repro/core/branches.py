"""Type-dependent processing branches α, β, γ (Sec. 4.2, lines 13-28).

All three branches homogenize a reduced signal sequence -- a
:class:`~repro.core.sequence.Sequence`, whose columns they split with
masks -- into the common output layout ``R_COLUMNS = (t, s_id, b_id,
kind, value, trend)``, and build those rows once, as their result:

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
    ClassifierConfig,
    all_numeric,
    numeric_mask,
    validity_mask,
)

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
    """Branch α: lines 14-19 of Algorithm 1."""
    config = config or BranchConfig()
    # typeSplit: peel off non-numeric elements (e.g. embedded validity
    # strings) as nominal side output.
    numeric = numeric_mask(sequence.v)
    labels = [str(v) for v in sequence.v[~numeric]]
    validity = config.classifier.validity_values
    out = _rows(sequence.take(~numeric), [
        KIND_VALIDITY if label in validity else KIND_NOMINAL
        for label in labels
    ], labels)
    numbers = sequence.take(numeric)
    if not len(numbers):
        return sorted(out, key=_row_key)
    values = numbers.v.astype(float)
    mask = np.asarray(config.outlier_detector.mask(values), dtype=bool)
    out += _rows(numbers.take(mask), KIND_OUTLIER, values[mask].tolist())
    clean = numbers.take(~mask)
    if not len(clean):
        return sorted(out, key=_row_key)
    smoothed = config.smoother.smooth(values[~mask])
    mean, std = float(smoothed.mean()), float(smoothed.std())
    variance = float(smoothed.var())
    max_error = config.swab_error_fraction * max(variance, 1e-12) * config.swab_buffer
    segments = swab(smoothed, max_error, buffer_size=config.swab_buffer)
    trend = TrendClassifier(
        steady_threshold=config.trend_fraction * max(std, 1e-12)
    )
    for seg in segments:
        level = float(smoothed[seg.start : seg.end + 1].mean())
        symbol = config.sax.symbol_for_level(level, mean, std)
        label = config.level_label("abcdefghijklmnopqrstuvwxyz".index(symbol))
        out.append((
            clean.t[seg.start],
            clean.s_id,
            clean.b[seg.start],
            KIND_SYMBOL,
            label,
            trend.classify_slope(seg.slope),
        ))
    out.sort(key=_row_key)
    return out


def process_beta(sequence, config=None):
    """Branch β: lines 20-25 of Algorithm 1."""
    config = config or BranchConfig()
    # functionSplit on z_aff.
    invalid = validity_mask(sequence.v, config.classifier)
    out = _rows(
        sequence.take(invalid), KIND_VALIDITY,
        [str(v) for v in sequence.v[invalid]],
    )
    functional = sequence.take(~invalid)
    if not len(functional):
        return sorted(out, key=_row_key)
    ranks, labels = _numeric_translation(functional.v, config)
    mask = np.asarray(config.outlier_detector.mask(ranks), dtype=bool)
    out += _rows(
        functional.take(mask), KIND_OUTLIER, functional.v[mask].tolist()
    )
    clean = ~mask
    if clean.any():
        trend = TrendClassifier(steady_threshold=config.trend_fraction)
        out += _rows(
            functional.take(clean), KIND_SYMBOL, labels[clean].tolist(),
            trend.classify_gradient(ranks[clean]),
        )
    out.sort(key=_row_key)
    return out


def process_gamma(sequence, data_type, config=None):
    """Branch γ: lines 26-28 -- no transformation, F/V split only."""
    config = config or BranchConfig()
    kind = KIND_BINARY if data_type == BINARY else KIND_NOMINAL
    out = _rows(sequence, [
        KIND_VALIDITY if invalid else kind
        for invalid in validity_mask(sequence.v, config.classifier).tolist()
    ], [str(v) for v in sequence.v])
    out.sort(key=_row_key)
    return out


def process_branch(sequence, classification, config=None):
    """Dispatch one classified sequence to its branch (line 13)."""
    if classification.branch == ALPHA:
        return process_alpha(sequence, config)
    if classification.branch == BETA:
        return process_beta(sequence, config)
    if classification.branch == GAMMA:
        return process_gamma(sequence, classification.data_type, config)
    raise BranchError("unknown branch {!r}".format(classification.branch))


def _numeric_translation(values, config):
    """Translate ordinal values to ranks; return (ranks, display labels)
    as a float64 and an object array.

    String labels are ranked by a matching configured vocabulary (so
    low < medium < high) or, failing that, by sorted order; numeric
    values rank as themselves.
    """
    labels = np.fromiter(map(str, values), object, len(values))
    if all_numeric(values):
        return values.astype(float), labels
    distinct = set(labels)
    order = None
    for vocabulary in config.classifier.ordinal_vocabularies:
        if distinct <= set(vocabulary):
            order = {label: i for i, label in enumerate(vocabulary)}
            break
    if order is None:
        order = {label: i for i, label in enumerate(sorted(distinct))}
    return np.fromiter(map(order.__getitem__, labels), float, len(labels)), labels


def _row_key(row):
    return (row[0], str(row[1]), str(row[3]))


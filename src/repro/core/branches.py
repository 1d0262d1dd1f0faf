"""Type-dependent processing branches α, β, γ (Sec. 4.2, lines 13-28).

All three branches homogenize a reduced signal sequence into the common
output layout ``R_COLUMNS = (t, s_id, b_id, kind, value, trend)``:

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
from operator import not_

import numpy as np

from repro.analysis.outliers import ZScoreDetector
from repro.analysis.sax import SaxEncoder
from repro.analysis.segmentation import swab
from repro.analysis.smoothing import MovingAverage
from repro.analysis.trend import STEADY, TrendClassifier
from repro.core.classification import (
    ALPHA,
    BETA,
    BINARY,
    GAMMA,
    ClassifierConfig,
    all_numeric,
    numeric_mask,
)
from repro.engine.columnar import compress_column

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


def process_alpha(rows, schema, config=None):
    """Branch α: lines 14-19 of Algorithm 1."""
    config = config or BranchConfig()
    t_i, v_i, s_i, b_i = _indices(schema)
    if not rows:
        return []
    # typeSplit: peel off non-numeric elements (e.g. embedded validity
    # strings) as nominal side output.
    column = [r[v_i] for r in rows]
    numeric = numeric_mask(column)
    numeric_rows = compress_column(rows, numeric)
    out = [
        (r[t_i], r[s_i], r[b_i], KIND_VALIDITY
         if str(r[v_i]) in config.classifier.validity_values
         else KIND_NOMINAL, str(r[v_i]), None)
        for r in compress_column(rows, map(not_, numeric))
    ]
    if not numeric_rows:
        return sorted(out, key=_row_key)
    values = np.array(compress_column(column, numeric), dtype=float)
    mask = np.asarray(config.outlier_detector.mask(values), dtype=bool)
    out.extend(
        (r[t_i], r[s_i], r[b_i], KIND_OUTLIER, number, None)
        for r, number in zip(
            compress_column(numeric_rows, mask.tolist()),
            values[mask].tolist(),
        )
    )
    clean_rows = compress_column(numeric_rows, (~mask).tolist())
    if not clean_rows:
        return sorted(out, key=_row_key)
    clean_values = values[~mask]
    smoothed = config.smoother.smooth(clean_values)
    mean, std = float(smoothed.mean()), float(smoothed.std())
    variance = float(smoothed.var())
    max_error = config.swab_error_fraction * max(variance, 1e-12) * config.swab_buffer
    segments = swab(smoothed, max_error, buffer_size=config.swab_buffer)
    trend = TrendClassifier(
        steady_threshold=config.trend_fraction * max(std, 1e-12)
    )
    for seg in segments:
        first = clean_rows[seg.start]
        level = float(smoothed[seg.start : seg.end + 1].mean())
        symbol = config.sax.symbol_for_level(level, mean, std)
        label = config.level_label("abcdefghijklmnopqrstuvwxyz".index(symbol))
        out.append(
            (
                first[t_i],
                first[s_i],
                first[b_i],
                KIND_SYMBOL,
                label,
                trend.classify_slope(seg.slope),
            )
        )
    out.sort(key=_row_key)
    return out


def process_beta(rows, schema, config=None):
    """Branch β: lines 20-25 of Algorithm 1."""
    config = config or BranchConfig()
    t_i, v_i, s_i, b_i = _indices(schema)
    if not rows:
        return []
    validity = config.classifier.validity_values
    # functionSplit on z_aff.
    functional = [r for r in rows if r[v_i] not in validity]
    validity_rows = [r for r in rows if r[v_i] in validity]
    out = [
        (r[t_i], r[s_i], r[b_i], KIND_VALIDITY, str(r[v_i]), None)
        for r in validity_rows
    ]
    if not functional:
        return sorted(out, key=_row_key)
    ranks, labels = _numeric_translation(
        [r[v_i] for r in functional], config
    )
    values = np.asarray(ranks, dtype=float)
    mask = config.outlier_detector.mask(values)
    outlier_rows = [r for r, m in zip(functional, mask) if m]
    clean = [(r, rank, label) for (r, rank, label), m in zip(
        zip(functional, ranks, labels), mask
    ) if not m]
    out.extend(
        (r[t_i], r[s_i], r[b_i], KIND_OUTLIER, r[v_i], None)
        for r in outlier_rows
    )
    if clean:
        clean_ranks = [rank for _r, rank, _label in clean]
        trend = TrendClassifier(steady_threshold=config.trend_fraction)
        trends = trend.classify_gradient(clean_ranks)
        for (row, _rank, label), trend_label in zip(clean, trends):
            out.append(
                (row[t_i], row[s_i], row[b_i], KIND_SYMBOL, label, trend_label)
            )
    out.sort(key=_row_key)
    return out


def process_gamma(rows, schema, data_type, config=None):
    """Branch γ: lines 26-28 -- no transformation, F/V split only."""
    config = config or BranchConfig()
    t_i, v_i, s_i, b_i = _indices(schema)
    validity = config.classifier.validity_values
    kind = KIND_BINARY if data_type == BINARY else KIND_NOMINAL
    out = []
    for r in rows:
        if r[v_i] in validity:
            out.append((r[t_i], r[s_i], r[b_i], KIND_VALIDITY, str(r[v_i]), None))
        else:
            out.append((r[t_i], r[s_i], r[b_i], kind, str(r[v_i]), None))
    out.sort(key=_row_key)
    return out


def process_branch(rows, schema, classification, config=None):
    """Dispatch one classified sequence to its branch (line 13)."""
    if classification.branch == ALPHA:
        return process_alpha(rows, schema, config)
    if classification.branch == BETA:
        return process_beta(rows, schema, config)
    if classification.branch == GAMMA:
        return process_gamma(rows, schema, classification.data_type, config)
    raise BranchError("unknown branch {!r}".format(classification.branch))


def _numeric_translation(values, config):
    """Translate ordinal values to ranks; return (ranks, display labels).

    String labels are ranked by a matching configured vocabulary (so
    low < medium < high) or, failing that, by sorted order; numeric
    values rank as themselves.
    """
    if all_numeric(values):
        return [float(v) for v in values], [str(v) for v in values]
    labels = [str(v) for v in values]
    distinct = set(labels)
    order = None
    for vocabulary in config.classifier.ordinal_vocabularies:
        if distinct <= set(vocabulary):
            order = {label: i for i, label in enumerate(vocabulary)}
            break
    if order is None:
        order = {label: i for i, label in enumerate(sorted(distinct))}
    return [float(order[label]) for label in labels], labels


def _indices(schema):
    return (
        schema.index_of("t"),
        schema.index_of("v"),
        schema.index_of("s_id"),
        schema.index_of("b_id"),
    )


def _row_key(row):
    return (row[0], str(row[1]), str(row[3]))


_ = (GAMMA, STEADY)  # names used in docs/tests

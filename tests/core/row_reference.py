"""The row implementations of Algorithm 1 lines 7-28, kept as oracles.

``repro.core`` runs lines 7-28 on typed sequences
(:mod:`repro.core.sequence`). The row code it replaced lives on here,
copied verbatim, so property tests can hold the typed stages to it
element for element and type for type. Only the seams are new: the
markers are row twins of the bundled ones (:func:`row_marker`), and
``OutsideQuantileRange`` counts a number by Table 3's test, the one
deliberate change.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, fields
from itertools import groupby, islice
from operator import itemgetter, lt, not_

import numpy as np

from repro.analysis.segmentation import swab
from repro.analysis.trend import STEADY, TrendClassifier
from repro.core import reduction
from repro.core.branches import (
    KIND_BINARY,
    KIND_NOMINAL,
    KIND_OUTLIER,
    KIND_SYMBOL,
    KIND_VALIDITY,
    BranchConfig,
)
from repro.core.classification import (
    ALPHA,
    BETA,
    BINARY,
    GAMMA,
    NUMERIC_TYPE,
    STRING_TYPE,
    ClassifierConfig,
    Criteria,
    _change_rate,
    _orderable,
    all_numeric,
    is_numeric_type,
    numeric_mask,
)
from repro.core.sequence import row_sequence
from repro.engine.columnar import compress_column


#: *rows* as a typed sequence, in the order given.
sequence_of = row_sequence


def value_order_key(value):
    return repr(value)


_timestamp = itemgetter(0)


def _order(rows, drop_exact_duplicates):
    """*rows* by ``(t, value_order_key(v))``; also how many were dropped.

    A sequence normally arrives with strictly increasing timestamps and
    is returned as it is. Otherwise it is ordered by ``t`` (stable), and
    only rows that share a timestamp are deduplicated -- equal rows
    share theirs, the first to arrive stays -- and have their values'
    keys computed and compared.
    """
    times = list(map(_timestamp, rows))
    if all(map(lt, times, islice(times, 1, None))):
        return rows, 0
    ordered = []
    dropped = 0
    for _t, tied in groupby(sorted(rows, key=_timestamp), key=_timestamp):
        tied = list(tied)
        if len(tied) > 1:
            if drop_exact_duplicates:
                unique = list(dict.fromkeys(tied))
                dropped += len(tied) - len(unique)
                tied = unique
            tied.sort(key=lambda row: value_order_key(row[1]))
        ordered.extend(tied)
    return ordered, dropped


def order_sequence(rows):
    """Sort one sequence's rows into the canonical order.

    Sorting on the timestamp alone is not a total order once transport
    corruption is in play: a gateway duplicate whose copy lost payload
    bytes yields two rows of one (s_id, b_id) at the same ``t`` with
    *different* values, and the repeat-removal markers would then depend
    on arrival order. The value's :func:`value_order_key` breaks such
    ties deterministically.
    """
    return list(_order(rows, False)[0])


def split_sequences(rows, by_channel, drop_exact_duplicates):
    """Lines 7-8: ``K_s`` rows to canonically ordered sequences.

    Returns ``(sequences, dropped)``. *sequences* maps ``(s_id, b_id)``
    to that channel's rows -- or, when *by_channel* is false, ``(s_id,
    None)`` to the rows of every channel carrying the signal type -- in
    :func:`order_sequence` order, keys sorted. With
    *drop_exact_duplicates*, rows equal to an earlier row (a gateway
    replaying a frame without jitter) are dropped and counted in
    *dropped*. Equal rows share their signal type, channel and
    timestamp, so each is found among the rows tied with it, and a
    windowed run that cuts ``K_s`` by time drops the same rows.
    """
    groups = defaultdict(list)
    if by_channel:
        for row in rows:
            groups[row[2], row[3]].append(row)
    else:
        for row in rows:
            groups[row[2], None].append(row)
    dropped = 0
    sequences = {}
    for key in sorted(groups):
        sequences[key], duplicates = _order(groups[key], drop_exact_duplicates)
        dropped += duplicates
    return sequences, dropped


def reduce_sequence(rows, functions, carries):
    """Lines 10-11: evaluate Eq. 1 and keep the rows whose flag is false.

    *rows* are canonically ordered; *functions* come from
    :func:`marker_functions`. *carries* maps a marker's position in
    *functions* to the ``prev`` it continues from (see
    :meth:`MarkerFunction.carry_after
    <repro.core.reduction.MarkerFunction.carry_after>`): pass an empty
    dict for a whole sequence, and the dict of the preceding chunk for a
    continuation. It is updated in place, so reducing a sequence chunk
    by chunk is element-for-element identical to reducing it at once.
    """
    if not functions:
        return list(rows)
    times = [row[0] for row in rows]
    values = [row[1] for row in rows]
    redundant = [False] * len(rows)
    for index, func in enumerate(functions):
        prev = carries.get(index)
        for i, flag in enumerate(func.flags(times, values, prev)):
            if flag:
                redundant[i] = True
        carries[index] = func.carry_after(times, values, prev)
    return [row for row, e in zip(rows, redundant) if not e]


def row_marker(marker):
    """The row twin of a bundled marker, with the same parameters."""
    return globals()[type(marker).__name__](**{
        f.name: getattr(marker, f.name) for f in fields(marker)
    })


class MarkerFunction:
    def carry_after(self, times, values, prev):
        if not times:
            return prev
        return (times[-1], values[-1])


@dataclass(frozen=True)
class UnchangedValue(MarkerFunction):
    """Marks elements repeating the previous value.

    This is the reduction the paper's evaluation applies: "Signal
    instances are often sent repeatedly without change of values. Thus,
    identical subsequent signal instances are removed".
    """

    def flags(self, times, values, prev):
        out = []
        prev_value = prev[1] if prev is not None else _SENTINEL
        for v in values:
            out.append(v == prev_value)
            prev_value = v
        return out


@dataclass(frozen=True)
class UnchangedWithinCycle(MarkerFunction):
    """Repeat-removal that *preserves cycle-time violations*.

    An element is redundant only if its value repeats AND the temporal
    gap to the previous element stays within ``tolerance`` times the
    expected cycle time -- "important state changes such as violations of
    cycle times need to be preserved" (Sec. 1).
    """

    cycle_time: float
    tolerance: float = 1.5

    def __post_init__(self):
        if self.cycle_time <= 0 or self.tolerance <= 0:
            raise reduction.ReductionError("cycle_time and tolerance must be positive")

    def flags(self, times, values, prev):
        out = []
        prev_t, prev_v = prev if prev is not None else (None, _SENTINEL)
        limit = self.cycle_time * self.tolerance
        for t, v in zip(times, values):
            gap_ok = prev_t is not None and (t - prev_t) <= limit
            out.append(v == prev_v and gap_ok)
            prev_t, prev_v = t, v
        return out


@dataclass(frozen=True)
class MinimumGap(MarkerFunction):
    """Downsampling: marks elements closer than ``min_gap`` to the last
    *kept* element (gap-based decimation)."""

    min_gap: float

    def __post_init__(self):
        if self.min_gap <= 0:
            raise reduction.ReductionError("min_gap must be positive")

    def flags(self, times, values, prev):
        out = []
        last_kept = prev[0] if prev is not None else None
        for t in times:
            if last_kept is not None and (t - last_kept) < self.min_gap:
                out.append(True)
            else:
                out.append(False)
                last_kept = t
        return out

    def carry_after(self, times, values, prev):
        """Carry the last element *this marker kept*, not the last raw
        one -- seeding the next chunk with a later (discarded) element
        would shrink gaps and over-reduce at window boundaries."""
        last_kept = prev[0] if prev is not None else None
        for t in times:
            if last_kept is None or (t - last_kept) >= self.min_gap:
                last_kept = t
        if last_kept is None:
            return prev
        return (last_kept, None)


@dataclass(frozen=True)
class ValueInSet(MarkerFunction):
    """Marks elements whose value is in a configured idle set."""

    values: frozenset

    def flags(self, times, values, prev):
        member = self.values
        return [v in member for v in values]


@dataclass(frozen=True)
class Predicate(MarkerFunction):
    """Row-wise marker from a picklable callable ``func(t, v) -> bool``."""

    func: object

    def flags(self, times, values, prev):
        f = self.func
        return [bool(f(t, v)) for t, v in zip(times, values)]


@dataclass(frozen=True)
class OutsideQuantileRange(MarkerFunction):
    """Aggregation marker: drop numeric elements outside a quantile band.

    Demonstrates ``f`` as an aggregation operation: the band is computed
    over the whole sequence first (a distributable aggregation), then
    applied row-wise. "The whole sequence" is the rows one ``flags`` call
    receives: all of them in a whole-trace run, one window's chunk in a
    windowed run -- the one bundled marker whose decisions no carry can
    make independent of window boundaries.
    """

    lower: float = 0.0
    upper: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.lower < self.upper <= 1.0:
            raise reduction.ReductionError("need 0 <= lower < upper <= 1")

    def flags(self, times, values, prev):
        # Table 3's numeric test, where the row code tested
        # isinstance(v, (int, float)) and so counted booleans.
        numeric = [v for v in values if is_numeric_type(type(v))]
        if not numeric:
            return [False] * len(values)
        lo = float(np.quantile(numeric, self.lower))
        hi = float(np.quantile(numeric, self.upper))
        out = []
        for v in values:
            if is_numeric_type(type(v)):
                out.append(v < lo or v > hi)
            else:
                out.append(False)
        return out


_SENTINEL = object()


def compute_criteria(times, values, config=None):
    """Compute ``Z`` for a time-ordered sequence of (t, v)."""
    config = config or ClassifierConfig()
    functional = [v for v in values if v not in config.validity_values]
    basis = functional if functional else list(values)
    z_type = NUMERIC_TYPE if all_numeric(basis) else STRING_TYPE
    z_num = len(set(basis))
    z_rate = _change_rate(times, config)
    if z_type == NUMERIC_TYPE:
        z_val = True
    else:
        z_val = _orderable(set(map(str, basis)), config)
    return Criteria(z_type, z_rate, z_num, z_val)


def classify_gradient(self, values):
    """``TrendClassifier.classify_gradient`` of *self*, the loop."""
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        return []
    if x.size == 1:
        return [STEADY]
    grad = np.gradient(x)
    return [self.classify_slope(g) for g in grad]


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
        trends = classify_gradient(trend, clean_ranks)
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



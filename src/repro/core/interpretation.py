"""Information interpretation (paper Sec. 3.2, Algorithm 1 lines 4-6).

The byte-to-signal mapping is made row-wise distributable by joining the
preselected trace ``K_pre`` with the translation tuples ``U_comb`` on
``(m_id, b_id)`` (line 4), then applying

* ``u_1 : (l, u_info) -> l_rel`` -- relevant-byte extraction (line 5) and
* ``u_2 : (l_rel, m_info, u_info) -> (t, (v, s_id))`` -- evaluation
  (line 6)

per row. The result is the signal-instance sequence ``K_s`` with columns
``(t, v, s_id, b_id)``. Rows whose signal is absent in the instance
(presence-conditional SOME/IP sections) are dropped.

That is the *definition*, and :func:`join_rules`,
:func:`extract_relevant_bytes` and :func:`evaluate_signals` run it as
written for a catalog that is already an engine table: the named
reference the tests compare against. A
:class:`~repro.core.rules.RuleCatalog` runs as one task per partition,
:class:`_RuleKernels`, that produces the same ``K_s`` rows in the same
order per *rule* instead of per row: ``K_pre`` is grouped by
``(b_id, m_id)``, and each rule of a key decodes all of the key's
payloads at once, straight out of the packed payload plane. These two
are the only spellings of lines 4-6, and the argument picks one.

Truncated payloads (shorter than a rule's relevant bytes) surface as
:class:`~repro.protocols.signalcodec.ShortPayloadError` by default.
``on_short`` selects the lossy-trace alternative: ``"skip"`` drops the
affected rows, ``"keep"`` retains them with ``v`` set to the
:data:`~repro.core.rules.TRUNCATED` sentinel so callers can count them
before dropping. All three modes behave identically in both spellings
and on every executor.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from repro.core.model import K_S_COLUMNS
from repro.core.rules import ABSENT, TRUNCATED
from repro.engine.columnar import (
    BytesColumn,
    ColumnarPartition,
    DictColumn,
    code_array,
)
from repro.engine.expressions import apply, col
from repro.protocols.signalcodec import ShortPayloadError, payload_words

_ON_SHORT_MODES = ("raise", "skip", "keep")


def _check_on_short(on_short):
    if on_short not in _ON_SHORT_MODES:
        raise ValueError(
            "on_short must be one of {}, got {!r}".format(
                "/".join(_ON_SHORT_MODES), on_short
            )
        )


@dataclass(frozen=True)
class _U1:
    """``u_1``: extract the relevant payload bytes of one row.

    With ``on_short`` other than ``"raise"``, truncated payloads map to
    the :data:`TRUNCATED` sentinel instead of raising; downstream
    filters decide whether the marker rows are counted or dropped.
    """

    on_short: str = "raise"

    def __call__(self, payload, rule):
        if self.on_short == "raise":
            return rule.extract_relevant(payload)
        try:
            return rule.extract_relevant(payload)
        except ShortPayloadError:
            return TRUNCATED


@dataclass(frozen=True)
class _U2:
    """``u_2``: evaluate relevant bytes to the physical signal value.

    ``m_info`` is accepted for protocol-specific evaluation; the bundled
    rules are self-contained, but data-dependent rules (e.g. scaling
    switched by a header field) can inspect it.
    """

    def __call__(self, l_rel, m_info, rule):
        if l_rel is TRUNCATED:
            return TRUNCATED
        return rule.evaluate(l_rel, m_info)


def join_rules(k_pre, catalog_table):
    """Line 4: ``K_join = K_pre ⋈ U_comb`` on (b_id, m_id).

    *catalog_table* must have the ``U_REL_COLUMNS`` layout (built by
    :meth:`RuleCatalog.to_table`). Every trace row is replicated once per
    signal to extract from it.

    Physically this is the engine's broadcast join: the catalog always
    fits in memory, so it becomes one hash index probed per trace row.
    """
    missing = [c for c in ("b_id", "m_id") if c not in catalog_table.schema]
    if missing:
        raise ValueError(
            "catalog table lacks join columns {}".format(missing)
        )
    return k_pre.join(catalog_table, on=["b_id", "m_id"])


def extract_relevant_bytes(k_join, on_short="raise"):
    """Line 5: ``K_join2 = F_u1(K_join)`` -- add the ``l_rel`` column."""
    return k_join.with_column(
        "l_rel", apply(_U1(on_short=on_short), "l", "u_info")
    )


@dataclass(frozen=True)
class _NotTruncated:
    """Picklable filter body: keep rows whose value is not TRUNCATED."""

    def __call__(self, v):
        return v is not TRUNCATED

    def batch_call(self, values):
        return [v is not TRUNCATED for v in values]


@dataclass(frozen=True)
class _IsTruncated:
    """Picklable filter body: keep only TRUNCATED marker rows."""

    def __call__(self, v):
        return v is TRUNCATED

    def batch_call(self, values):
        return [v is TRUNCATED for v in values]


def evaluate_signals(k_join2, on_short="raise"):
    """Line 6: ``K_s = F_u2(K_join2)`` -- signal instances per row."""
    with_value = k_join2.with_column(
        "v", apply(_U2(), "l_rel", "m_info", "u_info")
    )
    present = with_value.filter(col("v").is_not_null() if ABSENT is None
                                else col("v") != ABSENT)
    if on_short == "skip":
        present = present.filter(apply(_NotTruncated(), "v"))
    return present.select(*K_S_COLUMNS)


def _payload_plane(column):
    """``(bytes, starts, lengths)`` of a payload column.

    The bytes are the column's payloads back to back plus the eight pad
    bytes :func:`payload_words` needs. A packed plane contributes the
    byte range its offsets cover as it lies -- no cell is sliced out.
    """
    if isinstance(column, BytesColumn) and column.decode is bytes:
        offsets = np.asarray(column.offsets).astype(np.intp)
        data = column.blob[offsets[0] : offsets[-1]]
        starts, lengths = offsets[:-1] - offsets[0], np.diff(offsets)
    else:
        cells = list(column)
        data = b"".join(cells)
        lengths = np.fromiter(map(len, cells), np.intp, len(cells))
        starts = np.cumsum(lengths) - lengths
    return b"".join((data, bytes(8))), starts, lengths


def _cells(column):
    """*column* as an array whose ``take`` + ``tolist`` returns its cells."""
    if isinstance(column, (array, memoryview)):
        return np.asarray(column)
    cells = np.empty(len(column), dtype=object)
    cells[:] = column
    return cells


class _RuleKernels:
    """Lines 4-6 as one task per partition, evaluated per rule.

    The partition's ``K_pre`` rows are grouped by ``(b_id, m_id)``; each
    rule of a key then decodes all of the key's payloads in one
    :meth:`~repro.core.rules.InterpretationRule.compile_vector_decoder`
    call over words read directly from the payload plane. A payload too
    short for a rule is found by a length mask and handled per
    ``on_short`` exactly as :class:`_U1` does; a rule without a vector
    kernel (:attr:`scalar_rules` says which, and why) runs its compiled
    scalar closures over the rows of its key only, and is the one place
    an ``m_info`` cell is read. Every value lands in the slot its
    ``K_join`` row has in :func:`join_rules` order, so the ``K_s``
    columns of the output (:attr:`COLUMNS`) equal
    :func:`evaluate_signals`' row for row.

    ``batch_call`` is the columnar form the engine's narrow task calls;
    calling the object runs it over a row list.
    """

    def __init__(self, catalog, on_short="raise"):
        self.on_short = on_short
        by_key = {}
        for u in catalog:
            by_key.setdefault((u.channel_id, u.message_id), []).append(u)
        self._codes = {key: code for code, key in enumerate(by_key)}
        #: reason -> the (b_id, m_id) of each rule that runs scalar.
        self.scalar_rules = {}
        # Per key, per rule in catalog order: (rule, last relevant byte,
        # vector kernel), or (rule, None, scalar closures).
        self._plans = []
        widest = max(map(len, by_key.values()), default=0)
        # s_id and b_id leave as DictColumns over the sorted distinct ids.
        self._signal_values = tuple(sorted({u.signal_id for u in catalog}))
        self._channel_values = tuple(sorted({u.channel_id for u in catalog}))
        self._signal_codes = np.zeros((len(by_key), widest), dtype=np.intp)
        self._channel_codes = np.array([
            self._channel_values.index(b_id) for b_id, _m_id in by_key
        ], dtype=np.intp)
        rank = {pair: i for i, pair in enumerate(sorted(
            {(u.signal_id, u.channel_id) for u in catalog}
        ))}
        self._sequences = np.zeros((len(by_key), widest), dtype=np.intp)
        for code, (key, tuples) in enumerate(by_key.items()):
            plan = []
            for ordinal, u in enumerate(tuples):
                self._signal_codes[code, ordinal] = \
                    self._signal_values.index(u.signal_id)
                self._sequences[code, ordinal] = rank[
                    u.signal_id, u.channel_id
                ]
                rule = u.rule
                kernel, reason = rule.compile_vector_decoder()
                if kernel is not None:
                    plan.append((rule, rule.encoding.byte_span()[1], kernel))
                    continue
                self.scalar_rules.setdefault(reason, []).append(key)
                plan.append((rule, None, (
                    rule.compile_extractor(), rule.compile_evaluator()
                )))
            self._plans.append(plan)
        # Rules per key; a row of no key (code -1) reads the trailing 0.
        self._rule_counts = np.array(
            [len(plan) for plan in self._plans] + [0], dtype=np.intp
        )

    def __call__(self, rows):
        partition = ColumnarPartition.from_rows(rows, 5)
        return self.batch_call(partition).to_rows()

    #: Output layout: ``K_s`` and each row's sequence code -- the
    #: position of its ``(s_id, b_id)`` among the catalog's, sorted --
    #: which lines 7-8 group by.
    COLUMNS = K_S_COLUMNS + ("seq",)

    def batch_call(self, partition):
        t, payloads, b_ids, m_ids, _m_info = partition.columns
        n = len(partition)
        codes = np.fromiter(
            map(self._codes.get, zip(b_ids, m_ids), repeat(-1)), np.intp, n
        )
        # K_join order: row-major, a row's rules in catalog order. Slot
        # first_slot[row] + ordinal is where that K_join row's value goes.
        per_row = self._rule_counts[codes]
        first_slot = np.cumsum(per_row) - per_row
        total = int(per_row.sum())
        values = np.empty(total, dtype=object)
        keep = np.ones(total, dtype=bool)
        data, starts, lengths = _payload_plane(payloads)
        blob = np.frombuffer(data, dtype=np.uint8)

        def payload(row):
            return data[starts[row] : starts[row] + lengths[row]]

        on_short = self.on_short
        failure = None  # (row, ordinal, rule) of the first short K_join row
        order = np.argsort(codes, kind="stable")
        bounds = np.searchsorted(
            codes[order], np.arange(len(self._plans) + 1)
        )
        for code in np.flatnonzero(np.diff(bounds)).tolist():
            rows = order[bounds[code] : bounds[code + 1]]
            key_starts, key_lengths = starts[rows], lengths[rows]
            shortest = int(key_lengths.min())
            slots = first_slot[rows]
            words = {}  # (byte order, base) -> this key's payload words
            for ordinal, (rule, last, kernel) in enumerate(self._plans[code]):
                at = slots + ordinal
                short = None
                if last is None:
                    out, short = self._scalar_rule(
                        rule, kernel, rows, payload, partition
                    )
                    values[at[: len(out)]] = out
                    keep[at[[
                        k for k, v in enumerate(out)
                        if v is ABSENT
                        or (v is TRUNCATED and on_short == "skip")
                    ]]] = False
                elif shortest > last:
                    word_dtype, base, decode = kernel
                    if (word_dtype, base) not in words:
                        words[word_dtype, base] = payload_words(
                            blob, key_starts, base, word_dtype
                        )
                    values[at] = decode(words[word_dtype, base])
                elif on_short == "raise":
                    short = int(rows[key_lengths <= last][0])
                else:
                    word_dtype, base, decode = kernel
                    fits = key_lengths > last
                    values[at[fits]] = decode(payload_words(
                        blob, key_starts[fits], base, word_dtype
                    ))
                    if on_short == "keep":
                        values[at[~fits]] = TRUNCATED
                    else:
                        keep[at[~fits]] = False
                if short is not None and (
                    failure is None or (short, ordinal) < failure[:2]
                ):
                    failure = (short, ordinal, rule)
        if failure is not None:
            row, _ordinal, rule = failure
            # Raises: the row form words the error for every rule kind.
            rule.extract_relevant(payload(row))
        row_of = np.repeat(np.arange(n), per_row)
        ordinal_of = np.arange(total) - first_slot[row_of]
        key_of = codes[row_of]
        columns = [
            _cells(t)[row_of],
            values,
            self._signal_codes[key_of, ordinal_of],
            self._channel_codes[key_of],
            self._sequences[key_of, ordinal_of],
        ]
        if not keep.all():
            columns = [column[keep] for column in columns]
        times, values, signals, channels, sequences = columns
        return ColumnarPartition([
            array("d", times.tobytes()) if times.dtype == np.float64
            else times.tolist(),
            values.tolist(),
            DictColumn(code_array(signals, len(self._signal_values)),
                       self._signal_values),
            DictColumn(code_array(channels, len(self._channel_values)),
                       self._channel_values),
            sequences,
        ], len(times))

    def _scalar_rule(self, rule, closures, rows, payload, partition):
        """One scalar rule over its key's rows: ``(values, short row)``.

        Under ``on_short="raise"`` evaluation stops at the first
        truncated payload and reports its row. The ``m_info`` column is
        indexed -- a packed cell decoded -- for a rule with
        ``required_info`` only, at the rows of its key.
        """
        extract, evaluate = closures
        reads_info = bool(rule.required_info)
        m_infos = partition.columns[4]
        out = []
        for i in rows.tolist():
            try:
                l_rel = extract(payload(i))
            except ShortPayloadError:
                if self.on_short == "raise":
                    return out, i
                out.append(TRUNCATED)
                continue
            out.append(evaluate(l_rel, m_infos[i] if reads_info else None))
        return out, None


def _interpret(k_pre, catalog, on_short, kernels=None):
    """:func:`interpret`, also returning the task it ran (or None):
    *kernels* when given, else the one it built."""
    _check_on_short(on_short)
    if hasattr(catalog, "to_table"):
        if kernels is None:
            kernels = _RuleKernels(catalog, on_short)
        return k_pre.map_partitions(kernels, list(kernels.COLUMNS)), kernels
    k_join = join_rules(k_pre, catalog)
    k_join2 = extract_relevant_bytes(k_join, on_short=on_short)
    return evaluate_signals(k_join2, on_short=on_short), None


def interpret(k_pre, catalog, on_short="raise"):
    """Lines 4-6 composed: preselected trace + catalog -> ``K_s``.

    A :class:`~repro.core.rules.RuleCatalog` runs as
    :class:`_RuleKernels`; a catalog already loaded as an engine table
    (:meth:`~repro.core.rules.RuleCatalog.to_table`) runs the join plan,
    the paper's definition. *on_short* selects truncated-payload
    handling: ``"raise"`` (default), ``"skip"`` (drop affected rows) or
    ``"keep"`` (retain them with ``v = TRUNCATED``).
    """
    return _interpret(k_pre, catalog, on_short)[0].select(*K_S_COLUMNS)


def _tolerance(config):
    """``on_short`` of lines 4-6 under *config*'s policy: both lossy
    modes interpret tolerantly so truncated rows can be counted; "skip"
    then drops the markers, "keep" lets them flow into reduction (they
    classify as nominal TRUNCATED evidence)."""
    _check_on_short(config.short_payload)
    return "raise" if config.short_payload == "raise" else "keep"


def compile_under_policy(config):
    """The lines 4-6 task :func:`interpret_under_policy` runs for
    *config*, built once for many calls (a stream session's
    windows)."""
    return _RuleKernels(config.catalog, _tolerance(config))


def interpret_under_policy(k_pre, config, kernels=None):
    """Lines 4-6 under *config*'s ``short_payload`` policy.

    The one place the policy is spelled out, for whole-trace and
    windowed runs alike; *kernels* is :func:`compile_under_policy`'s
    task for the same config, when the caller keeps one. Returns
    ``(k_s, counts)``: the cached ``K_s`` -- with
    :attr:`_RuleKernels.COLUMNS` for a RuleCatalog -- and the
    stage's counter increments by counter name --
    ``short_payload_skipped`` under ``"skip"``, ``short_payload_kept``
    under ``"keep"``, neither under ``"raise"`` (where a truncated
    payload aborts with :class:`ShortPayloadError`), and per reason the
    ``scalar_rules.<reason>`` / ``scalar_rows.<reason>`` (``K_join``
    rows) that :class:`_RuleKernels` ran without a vector kernel.
    """
    k_s, kernels = _interpret(
        k_pre, config.catalog, _tolerance(config), kernels
    )
    mode = config.short_payload
    k_s = k_s.cache()
    counts = {}
    if kernels is not None and kernels.scalar_rules:
        rows_of = Counter(k_pre.select("b_id", "m_id").collect())
        for reason, keys in kernels.scalar_rules.items():
            counts["scalar_rules." + reason] = len(keys)
            counts["scalar_rows." + reason] = sum(
                rows_of[key] for key in keys
            )
    if mode == "raise":
        return k_s, counts
    truncated = k_s.filter(apply(_IsTruncated(), "v")).count()
    if mode == "keep":
        counts["short_payload_kept"] = truncated
        return k_s, counts
    if truncated:
        k_s = k_s.filter(apply(_NotTruncated(), "v")).cache()
    counts["short_payload_skipped"] = truncated
    return k_s, counts

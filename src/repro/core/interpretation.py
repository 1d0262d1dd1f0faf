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
order in one decode pass over the partition's ``K_join`` slots, from a
rule table compiled once per catalog. These two are the only spellings
of lines 4-6, and the argument picks one.

A payload shorter than a rule's relevant bytes raises a
:class:`~repro.protocols.signalcodec.ShortPayloadError` naming its
frame; ``on_short="skip"`` drops its rows instead, ``"keep"`` keeps them
with ``v`` the :data:`~repro.core.rules.TRUNCATED` sentinel, the same in
both spellings and at every partition count.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.core.model import K_S_COLUMNS
from repro.core.preselection import key_index
from repro.core.rules import ABSENT, TRUNCATED, per_catalog
from repro.engine.columnar import (
    OBJECT,
    BytesColumn,
    ColumnarPartition,
    DictColumn,
    ValueColumn,
    code_array,
)
from repro.engine.expressions import apply, col
from repro.protocols.signalcodec import ShortPayloadError, VectorTable

_ON_SHORT_MODES = ("raise", "skip", "keep")


def _check_on_short(on_short):
    if on_short not in _ON_SHORT_MODES:
        raise ValueError(
            "on_short must be one of {}, got {!r}".format(
                "/".join(_ON_SHORT_MODES), on_short
            )
        )


def _in_frame(exc, t, b_id, m_id):
    """*exc*, a :class:`ShortPayloadError`, reworded to name the frame
    whose payload it is about."""
    return ShortPayloadError(
        "frame t={!r} b_id {!r} m_id {}: {}".format(t, b_id, m_id, exc)
    )


@dataclass(frozen=True)
class _U1:
    """``u_1``: extract the relevant payload bytes of one row. A
    truncated payload raises a :class:`ShortPayloadError` naming the
    row's frame, or maps to the :data:`TRUNCATED` sentinel where
    ``on_short`` is not ``"raise"``: downstream filters count or drop
    the marker rows."""

    on_short: str = "raise"

    def __call__(self, payload, rule, t, b_id, m_id):
        try:
            return rule.extract_relevant(payload)
        except ShortPayloadError as exc:
            if self.on_short == "raise":
                raise _in_frame(exc, t, b_id, m_id) from None
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
        "l_rel",
        apply(_U1(on_short=on_short), "l", "u_info", "t", "b_id", "m_id"),
    )


@dataclass(frozen=True)
class _Truncated:
    """Picklable filter body: keep the TRUNCATED marker rows, or with
    ``marked=False`` all other rows."""

    marked: bool = True

    def __call__(self, v):
        return (v is TRUNCATED) is self.marked

    def batch_call(self, values):
        if not isinstance(values, ValueColumn):
            return [(v is TRUNCATED) is self.marked for v in values]
        # A marker is an object slot: the kind plane finds the few.
        slots = np.flatnonzero(values.kinds == OBJECT)
        marked = np.zeros(len(values), dtype=bool)
        marked[slots] = [v is TRUNCATED for v in values.gather(slots)]
        return (marked == self.marked).tolist()


def evaluate_signals(k_join2, on_short="raise"):
    """Line 6: ``K_s = F_u2(K_join2)`` -- signal instances per row."""
    with_value = k_join2.with_column(
        "v", apply(_U2(), "l_rel", "m_info", "u_info")
    )
    present = with_value.filter(col("v").is_not_null() if ABSENT is None
                                else col("v") != ABSENT)
    if on_short == "skip":
        present = present.filter(apply(_Truncated(marked=False), "v"))
    return present.select(*K_S_COLUMNS)


def _payload_plane(column):
    """``(bytes, starts, lengths)`` of a payload column: its payloads
    back to back -- a packed plane's byte range as it lies -- plus the
    eight pad bytes :meth:`VectorTable.decode` needs."""
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


class _RuleTable:
    """A catalog's lines 4-6, compiled once per catalog object: its
    rules numbered key by key, and per rule its output codes, last
    relevant byte and row in :attr:`decoder` -- or -1 and closures in
    :attr:`scalar` for a rule without a vector decode
    (:attr:`scalar_rules` says which, and why)."""

    def __init__(self, catalog):
        self.keys = key_index(catalog)
        by_key = {key: [] for key in self.keys.codes}
        for u in catalog:
            by_key[u.channel_id, u.message_id].append(u)
        tuples = [u for rules in by_key.values() for u in rules]
        # Rules per key; a row of no key (code -1) reads the trailing 0.
        self.rule_counts = np.array(
            [len(rules) for rules in by_key.values()] + [0], dtype=np.intp
        )
        self.first_rule = np.cumsum(self.rule_counts) - self.rule_counts
        self.rules = [u.rule for u in tuples]
        # s_id and b_id leave as DictColumns over the sorted distinct ids;
        # a sequence code is the rank of its (s_id, b_id).
        ids = [(u.signal_id, u.channel_id) for u in tuples]
        self.signal_values, self.signals = _ranked([s for s, _b in ids])
        self.channel_values, self.channels = _ranked([b for _s, b in ids])
        self.sequences = _ranked(ids)[1]
        #: reason -> the (b_id, m_id) of each rule that runs scalar.
        self.scalar_rules, self.scalar = {}, {}
        self.decoder_rows = np.full(len(tuples), -1, dtype=np.intp)
        self.last = np.full(len(tuples), -1, dtype=np.intp)
        decodes = []
        for number, u in enumerate(tuples):
            decode, reason = u.rule.vector_decode()
            if decode is not None:
                self.decoder_rows[number] = len(decodes)
                self.last[number] = u.rule.encoding.byte_span()[1]
                decodes.append(decode)
                continue
            self.scalar_rules.setdefault(reason, []).append(
                (u.channel_id, u.message_id)
            )
            self.scalar[number] = (
                u.rule.compile_extractor(), u.rule.compile_evaluator()
            )
        self.decoder = VectorTable(decodes)


def _ranked(values):
    """The sorted distinct *values*, and each value's rank among them."""
    distinct = tuple(sorted(set(values)))
    rank = {value: code for code, value in enumerate(distinct)}
    return distinct, np.array([rank[v] for v in values], dtype=np.intp)


_rule_table = per_catalog(_RuleTable)


class _RuleKernels:
    """Lines 4-6 as one task per partition: one decode pass over every
    ``K_join`` slot.

    The catalog's :class:`~repro.core.preselection.KeyIndex` gives each
    ``K_pre`` row its key; ``np.repeat`` expands the rows into their
    ``K_join`` slots in :func:`join_rules` order, each a row and a rule
    of the :class:`_RuleTable`. The slots of vector rules decode in one
    :meth:`~repro.protocols.signalcodec.VectorTable.decode` over the
    packed payload plane; a payload too short for a rule is found by a
    length mask and handled per ``on_short`` as :class:`_U1` does. A
    rule without a vector decode runs its scalar closures over its
    slots -- the one loop left, and the one place an ``m_info`` cell is
    read. The ``K_s`` columns of the output (:attr:`COLUMNS`) equal
    :func:`evaluate_signals`' row for row. ``batch_call`` is the
    columnar form the engine's narrow task calls; calling the object
    runs it over a row list.
    """

    def __init__(self, catalog, on_short="raise"):
        self.on_short = on_short
        self._table = _rule_table(catalog)
        self.scalar_rules = self._table.scalar_rules

    def __call__(self, rows):
        partition = ColumnarPartition.from_rows(rows, 5)
        return self.batch_call(partition).to_rows()

    #: Output layout: ``K_s`` and each row's sequence code -- the
    #: position of its ``(s_id, b_id)`` among the catalog's, sorted --
    #: which lines 7-8 group by.
    COLUMNS = K_S_COLUMNS + ("seq",)

    def batch_call(self, partition):
        table, on_short = self._table, self.on_short
        t, payloads, b_ids, m_ids, _m_info = partition.columns
        codes = table.keys.lookup(b_ids, m_ids)
        per_row = table.rule_counts[codes]
        total = int(per_row.sum())
        row_of = np.repeat(np.arange(len(partition)), per_row)
        # Slot s holds rule first_rule[key] + (s - the row's first slot).
        rule_of = np.arange(total) + np.repeat(
            table.first_rule[codes] - (np.cumsum(per_row) - per_row), per_row
        )
        data, starts, lengths = _payload_plane(payloads)
        decoder_rows = table.decoder_rows[rule_of]
        short = lengths[row_of] <= table.last[rule_of]
        fits = np.flatnonzero(~short & (decoder_rows >= 0))
        decoded = table.decoder.decode(
            np.frombuffer(data, dtype=np.uint8), starts[row_of[fits]],
            decoder_rows[fits],
        )
        # Every other slot is an object; a short one reads objects[0].
        x, kinds = np.zeros(total), np.full(total, OBJECT, dtype=np.uint8)
        x[fits], kinds[fits] = decoded.x, decoded.kinds
        objects = [TRUNCATED]
        dropped = np.zeros(total, dtype=bool)
        short = np.flatnonzero(short)
        failure = int(short[0]) if len(short) and on_short == "raise" \
            else None  # the first short K_join slot
        if on_short == "skip":
            dropped[short] = True

        def payload(row):
            return data[starts[row] : starts[row] + lengths[row]]

        if table.scalar:
            slots = np.flatnonzero(decoder_rows < 0)
            slots = slots[np.argsort(rule_of[slots], kind="stable")]
            bounds = np.flatnonzero(np.diff(rule_of[slots])) + 1
            for mine in np.split(slots, bounds) if len(slots) else ():
                out = self._scalar_rule(
                    int(rule_of[mine[0]]), row_of[mine], payload, partition
                )
                x[mine[: len(out)]] = np.arange(len(out)) + len(objects)
                objects += out
                dropped[mine[: len(out)]] = [
                    v is ABSENT or (v is TRUNCATED and on_short == "skip")
                    for v in out
                ]
                if len(out) < len(mine) and (
                    failure is None or mine[len(out)] < failure
                ):
                    failure = int(mine[len(out)])
        if failure is not None:
            row = int(row_of[failure])
            try:
                table.rules[rule_of[failure]].extract_relevant(payload(row))
            except ShortPayloadError as exc:
                raise _in_frame(exc, t[row], b_ids[row], m_ids[row]) from None
        values = ValueColumn(x, kinds, decoded.labels, tuple(objects))
        if dropped.any():
            kept = np.flatnonzero(~dropped)
            row_of, rule_of = row_of[kept], rule_of[kept]
            values = values.gather(kept)
        times = _cells(t)[row_of]
        return ColumnarPartition([
            array("d", times.tobytes()) if times.dtype == np.float64
            else times.tolist(),
            values,
            DictColumn(code_array(table.signals[rule_of],
                                  len(table.signal_values)),
                       table.signal_values),
            DictColumn(code_array(table.channels[rule_of],
                                  len(table.channel_values)),
                       table.channel_values),
            table.sequences[rule_of],
        ], len(values))

    def _scalar_rule(self, number, rows, payload, partition):
        """Scalar rule *number* over *rows*: their values, up to the
        first truncated payload under ``on_short="raise"``. ``m_info``
        is indexed -- a cell decoded -- for ``required_info`` only."""
        extract, evaluate = self._table.scalar[number]
        reads_info = bool(self._table.rules[number].required_info)
        m_infos = partition.columns[4]
        out = []
        for i in rows.tolist():
            try:
                l_rel = extract(payload(i))
            except ShortPayloadError:
                if self.on_short == "raise":
                    break
                out.append(TRUNCATED)
                continue
            out.append(evaluate(l_rel, m_infos[i] if reads_info else None))
        return out


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
    task for the same config, when the caller keeps one. Returns the
    cached ``K_s`` (:attr:`_RuleKernels.COLUMNS` for a RuleCatalog)
    and the stage's counter increments by name: ``short_payload_skipped``
    under ``"skip"``, ``short_payload_kept`` under ``"keep"`` (under
    ``"raise"`` a truncated payload aborts), and per reason the
    ``scalar_rules.<reason>`` / ``scalar_rows.<reason>`` (``K_join``
    rows) that :class:`_RuleKernels` ran without a vector decode.
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
    truncated = k_s.filter(apply(_Truncated(), "v")).count()
    if mode == "keep":
        counts["short_payload_kept"] = truncated
        return k_s, counts
    if truncated:
        k_s = k_s.filter(apply(_Truncated(marked=False), "v")).cache()
    counts["short_payload_skipped"] = truncated
    return k_s, counts

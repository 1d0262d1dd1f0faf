"""Algorithm 1 lines 7-29 on one segmented column set -- the only copy.

Every entry point that runs Algorithm 1 past interpretation composes
the functions of this module: :meth:`PreprocessingPipeline.run
<repro.core.pipeline.PreprocessingPipeline.run>` splits the cached
``K_s`` into one :class:`Sequences` set and runs each later stage once
over all of its segments, :class:`IncrementalRunner
<repro.core.incremental.IncrementalRunner>` splits each window's ``K_s``
and reduces all of its chunks in one call with the carry of the chunks
before them, and the public engine wrappers
:func:`~repro.core.splitting.equality_split`,
:func:`~repro.core.reduction.reduce_signal` and
:func:`~repro.core.extension.apply_extensions` run them on one signal
type's table. Whole-trace and windowed results are therefore equal
because they are computed by the same statements, not because a
property test holds two copies together.

A *sequence* is one signal type's instances (normally of one channel).
A run holds all of them as the segments of one :class:`Sequences` set
of typed planes; a :class:`Sequence` is one segment as object columns,
the form single-sequence callers and the row-reference oracles take.
Rows exist only as what the stages return: the R rows of a branch and
the W rows of an extension rule. The stages, in order:

1. :func:`split_sequences` -- ``K_s`` columns to the per-signal
   (per-channel) segments in the canonical order ``(t,
   value_order_key(v))``, without exact duplicates (lines 7-8);
2. :func:`equality_groups` -- the gateway equality check ``e`` over one
   signal type's channels (line 9);
3. :func:`reduce_segments` -- Eq. 1 with an explicit per-marker carry,
   one pass per distinct marker (lines 10-11);
4. :func:`derive_extensions` -- the W rows of one reduced sequence
   (line 12);
5. :func:`process_segments` -- Table 3 and the branches over every
   segment (lines 13-28);
6. :func:`merge_sequences` -- ``merge_results`` over all sequences'
   output rows (line 29).
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from repro.core.branches import R_COLUMNS, branch_segments
from repro.core.classification import classify, classify_segments
from repro.core.model import K_S_COLUMNS, LABEL, NUMBER, OBJECT, W_COLUMNS
from repro.core.representation import merge_results
from repro.engine import columnar
from repro.engine.columnar import ColumnarPartition, DictColumn, ValueColumn
from repro.engine.schema import Schema

#: Layout of the rows extension rules take.
K_S_SCHEMA = Schema.of(*K_S_COLUMNS)


def value_order_key(value):
    """Canonical tiebreak for elements sharing a timestamp.

    ``repr`` yields a deterministic, comparable string across the
    mixed value types a sequence can hold (floats, labels, the
    TRUNCATED sentinel).
    """
    return repr(value)


def objects(values):
    """*values* as an object array holding the very objects given."""
    return np.fromiter(values, dtype=object, count=len(values))


def column_objects(column):
    """An engine column as an array of the cells it yields: float64 for
    a packed ``d`` column, objects otherwise."""
    if isinstance(column, ValueColumn):
        return column.cells()
    if isinstance(column, DictColumn):
        return objects(column.values)[np.asarray(column.codes, np.intp)]
    if isinstance(column, (array, memoryview)):
        cells = np.asarray(column)
        return cells if cells.dtype == np.float64 else cells.astype(object)
    return objects(column)


@dataclass(frozen=True, eq=False)
class Sequence:
    """One sequence as columns: timestamps ``t``, values ``v`` and
    channels ``b``; every element is an instance of signal type
    ``s_id``. ``v`` and ``b`` hold the objects the decoder produced;
    ``t`` is float64 when every timestamp is a float, else their
    objects too."""

    s_id: object
    t: np.ndarray
    v: np.ndarray
    b: np.ndarray

    def __len__(self):
        return len(self.t)

    def take(self, index):
        """The elements a boolean mask or a position array selects."""
        return Sequence(self.s_id, self.t[index], self.v[index], self.b[index])

    def rows(self):
        """The elements as ``K_s``-layout rows."""
        return list(zip(
            self.t.tolist(), self.v.tolist(), repeat(self.s_id),
            self.b.tolist(),
        ))

    def as_set(self):
        """This sequence as the one segment of a :class:`Sequences`."""
        return Sequences.build(
            [(self.s_id, None)], [0, len(self)], self.t, self.v, self.b
        )


class Sequences:
    """One segmented, typed column set: every sequence of a run.

    Segment ``i`` is the sequence of ``keys[i]`` (an ``(s_id, b_id)``
    pair), the elements ``offsets[i]:offsets[i + 1]`` of the planes:

    * ``t`` -- the timestamps, float64 (objects if one is no float);
    * ``column`` -- the values as a typed
      :class:`~repro.engine.columnar.ValueColumn`, which a windowed run
      keeps between windows;
    * ``v`` -- the same values as objects, which rows are built from:
      the decoder's, or the cells of ``column``, made on first read;
    * ``x`` -- the values of :data:`NUMBER` segments as float64;
    * ``c`` -- the values of :data:`LABEL` segments as codes into
      :attr:`labels`;
    * ``b`` -- each element's code into :attr:`channels`.

    ``kinds[i]`` is the kind of segment ``i``'s values, one per signal
    type: the stages compute on ``x`` and ``c``, and on ``v`` only for
    :data:`OBJECT` segments (mixed types, NaN, ``bool``, TRUNCATED). It
    iterates over its keys; :meth:`items` pairs each with its segment.
    """

    def __init__(self, keys, offsets, t, v, b, channels, kinds, x, c,
                 labels, column):
        self.keys, self.offsets = list(keys), np.asarray(offsets, np.intp)
        self.t, self._v, self.b, self.channels = t, v, b, channels
        self.column = column
        self.kinds = np.asarray(kinds, np.int8)
        self.x, self.c, self.labels = x, c, labels
        self.sizes = self.offsets[1:] - self.offsets[:-1]
        #: Per element, its segment and its kind.
        self.segment = np.repeat(np.arange(len(self.keys)), self.sizes)
        self.kind = self.kinds[self.segment]

    @classmethod
    def build(cls, keys, offsets, t, v, b=None):
        """The set whose segment ``i`` is ``keys[i]``'s elements
        ``offsets[i]:offsets[i + 1]`` of the columns *t*, *v* (a
        :class:`~repro.engine.columnar.ValueColumn` or objects) and *b*
        (objects; without it each element's channel is its key's). Each
        signal type's values -- its segments are adjacent -- get the
        narrowest kind that holds them exactly, read off *v*'s kinds."""
        offsets = np.asarray(offsets, np.intp)
        values = None if isinstance(v, ValueColumn) else v
        v = ValueColumn.from_values(v).typed()
        n = len(v)
        x, c = np.full(n, np.nan), np.full(n, -1, np.intp)
        kinds = np.full(len(keys), OBJECT, np.int8)
        labels = objects(())
        if n:
            # One kind per signal type, over its (adjacent) segments.
            firsts = [i for i, key in enumerate(keys)
                      if not i or key[0] != keys[i - 1][0]]
            lo = np.append(offsets[firsts], n)
            sizes = np.diff(lo)
            signal = np.repeat(np.arange(len(firsts)), sizes)
            kind = np.full(len(firsts), OBJECT, np.int8)
            kind[np.bincount(signal, v.kinds == columnar.LABEL, len(firsts))
                 == sizes] = LABEL
            kind[np.bincount(signal, v.kinds <= columnar.INT, len(firsts))
                 == sizes] = NUMBER
            numbers = np.flatnonzero(kind[signal] == NUMBER)
            x[numbers] = v.x[numbers]
            # NaN and ints beyond 2**53 are no float64 numbers: objects.
            kind[signal[numbers[~(np.abs(x[numbers]) < 2.0 ** 53)]]] = OBJECT
            kinds = np.repeat(kind, np.diff(firsts + [len(keys)]))
            element = kind[signal]
            x[element != NUMBER] = np.nan
            strs = element == LABEL
            order = np.argsort(objects(v.labels))
            labels = objects(v.labels)[order]
            c[strs] = np.argsort(order)[v.x[strs].astype(np.intp)]
        if t.dtype == object and set(map(type, t)) <= {float}:
            t = t.astype(float)
        if b is None:
            channels = list({key[1]: None for key in keys})
            code_of = {channel: i for i, channel in enumerate(channels)}
            b = np.repeat(np.array(
                [code_of[key[1]] for key in keys], np.intp
            ), offsets[1:] - offsets[:-1])
        else:
            channels = list({channel: None for channel in b})
            code_of = {channel: i for i, channel in enumerate(channels)}
            b = np.fromiter(map(code_of.__getitem__, b), np.intp, n)
        return cls(keys, offsets, t, values, b, objects(channels), kinds, x,
                   c, labels, v)

    @property
    def v(self):
        if self._v is None:
            self._v = self.column.cells()
        return self._v

    def values_at(self, index):
        """The values at the positions (or the slice) *index*, as
        objects; read off ``column`` where :attr:`v` has not been made."""
        if self._v is None:
            return self.column[index].cells()
        return self._v[index]

    def __len__(self):
        return len(self.keys)

    def __iter__(self):
        return iter(self.keys)

    def sequence(self, i):
        """Segment *i* as a :class:`Sequence` of views."""
        lo, hi = self.offsets[i], self.offsets[i + 1]
        return Sequence(self.keys[i][0], self.t[lo:hi],
                        self.values_at(slice(lo, hi)),
                        self.channels[self.b[lo:hi]])

    def values(self):
        """Every segment as a :class:`Sequence`, in order."""
        b = self.channels[self.b]
        return [
            Sequence(key[0], self.t[lo:hi], self.v[lo:hi], b[lo:hi])
            for key, lo, hi in zip(self.keys, self.offsets[:-1].tolist(),
                                   self.offsets[1:].tolist())
        ]

    def items(self):
        """``(key, segment as a Sequence)`` pairs, in order."""
        return list(zip(self.keys, self.values()))

    # -- planes ----------------------------------------------------------------
    def times(self):
        """The timestamps as float64."""
        return self.t if self.t.dtype != object else self.t.astype(float)

    def text(self, index):
        """``str`` of the values at the positions *index*, as objects."""
        if len(index) and (self.kind[index] == LABEL).all():
            return self.labels[self.c[index]]
        return objects(list(map(str, self.values_at(index).tolist())))

    def positions(self, segments):
        """The element positions of *segments*, one after another."""
        sizes = self.sizes[segments]
        ends = np.cumsum(sizes)
        return np.repeat(self.offsets[segments] - ends + sizes, sizes) \
            + np.arange(ends[-1] if len(ends) else 0)

    def isin(self, vocabulary):
        """Per element, whether its value is in *vocabulary* (a set)."""
        member = np.fromiter(
            map(vocabulary.__contains__, self.labels), bool, len(self.labels)
        )
        out = self.kind == LABEL
        out[out] = member[self.c[out]]
        # A number is in a vocabulary of labels only by a non-label word.
        asked = np.flatnonzero((self.kind == OBJECT) | (
            self.kind == NUMBER
        ) & any(not isinstance(word, str) for word in vocabulary))
        if len(asked):
            out[asked] = np.fromiter(map(
                vocabulary.__contains__, self.values_at(asked).tolist()
            ), bool, len(asked))
        return out

    def repeats(self):
        """Per element, whether it equals its predecessor in its segment
        (False for a segment's first element)."""
        same = np.zeros(len(self.t), dtype=bool)
        for kind, plane in ((NUMBER, "x"), (LABEL, "c"), (OBJECT, "v")):
            if (self.kinds == kind).all():
                plane = getattr(self, plane)
                same[1:] = plane[1:] == plane[:-1]
                break
            at = np.flatnonzero(self.kind[1:] == kind) + 1
            if len(at):
                plane = getattr(self, plane)
                same[at] = plane[at] == plane[at - 1]
        same[self.offsets[:-1][self.sizes > 0]] = False
        return same

    # -- new sets ----------------------------------------------------------------
    def gather(self, keys, sizes, index, kinds):
        """The set of *keys* whose segments, *sizes* long, are the
        elements at the positions *index*; *kinds* per segment."""
        return Sequences(
            keys, np.concatenate(([0], np.cumsum(sizes))), self.t[index],
            None if self._v is None else self._v[index], self.b[index],
            self.channels, kinds,
            self.x[index], self.c[index], self.labels,
            self.column.gather(index),
        )

    def take(self, keep):
        """The elements a boolean mask *keeps*, segments unchanged."""
        kept = np.concatenate(([0], np.cumsum(keep)))[self.offsets]
        return self.gather(
            self.keys, np.diff(kept), np.flatnonzero(keep), self.kinds
        )

    def select(self, segments, keys):
        """Segments in the order given: ``segments[j]`` under
        ``keys[j]``, or an empty one where it is None."""
        chosen = np.array([-1 if s is None else s for s in segments], np.intp)
        real = chosen >= 0
        sizes = np.zeros(len(chosen), np.intp)
        sizes[real] = self.sizes[chosen[real]]
        kinds = np.full(len(chosen), NUMBER, np.int8)
        kinds[real] = self.kinds[chosen[real]]
        return self.gather(keys, sizes, self.positions(chosen[real]), kinds)


def table_columns(table):
    """``(t, v, s_id, b_id, seq)`` of a ``K_s`` table as arrays (``v``
    the rule kernels' value planes), no row landed. ``seq`` codes each
    element's ``(s_id, b_id)`` by rank. The rule kernels emit it as a
    fifth column; for a table without one (the join plan's, an engine
    wrapper's) it is computed here."""
    width = len(table.schema)
    parts = [
        (p if isinstance(p, ColumnarPartition)
         else ColumnarPartition.from_rows(p, width)).columns
        for p in table.context.executor.execute(table.plan, as_rows=False)
    ]

    def joined(i):
        return np.concatenate(
            [np.empty(0, object)] * (not parts)
            + [column_objects(p[i]) for p in parts]
        )

    t, s_ids, b_ids = map(joined, (0, 2, 3))
    # Any other table's values stay the objects it holds.
    typed = [p[1] for p in parts if isinstance(p[1], ValueColumn)]
    v = ValueColumn.concat(typed) if typed and \
        sum(map(len, typed)) == len(t) else joined(1)
    if width == len(K_S_COLUMNS):
        return t, v, s_ids, b_ids, pair_codes(s_ids, b_ids)
    seq = np.concatenate(
        [np.empty(0, np.intp)] + [np.asarray(p[4], np.intp) for p in parts]
    )
    return t, v, s_ids, b_ids, seq


def row_columns(rows):
    """``K_s``-layout *rows* as :func:`table_columns` returns a table."""
    t, v, s_ids, b_ids = map(objects, zip(*rows))
    return t, v, s_ids, b_ids, pair_codes(s_ids, b_ids)


def row_sequence(rows):
    """``K_s``-layout *rows* of one sequence, taken in the order given."""
    if not rows:
        return empty_sequence(None)
    t, v, s_ids, b_ids = map(objects, zip(*rows))
    return Sequence(s_ids[0], t, v, b_ids)


def _codes(values):
    """Each of *values* as its position among the sorted distinct ones."""
    code = {key: i for i, key in enumerate(sorted(set(values)))}
    return np.fromiter(map(code.__getitem__, values), np.intp, len(values))


def pair_codes(s_ids, b_ids):
    """Sequence codes of elements: ``(s_id, b_id)`` ranked."""
    return _codes(s_ids) * len(set(b_ids)) + _codes(b_ids)


def _order(t, v, b, tied, drop_exact_duplicates):
    """Positions of (code, t)-sorted elements in canonical order; also
    how many were dropped.

    *tied* marks each element whose successor has the same sequence and
    timestamp. Only such runs are deduplicated -- equal elements share
    their timestamp, the first to arrive stays -- and have their
    values' keys computed and compared.
    """
    edges = np.flatnonzero(np.diff(np.concatenate(([0], tied, [0]))))
    positions = []
    dropped = 0
    end = 0
    for start, stop in zip(edges[0::2].tolist(), (edges[1::2] + 1).tolist()):
        positions.append(range(end, start))
        run = range(start, stop)
        if drop_exact_duplicates:
            first = {}
            for i, element in zip(run, zip(
                t[start:stop].tolist(), v[start:stop].tolist(),
                b[start:stop].tolist(),
            )):
                first.setdefault(element, i)
            dropped += len(run) - len(first)
            run = first.values()
        positions.append(sorted(run, key=lambda i: value_order_key(v[i])))
        end = stop
    positions.append(range(end, len(t)))
    return np.fromiter(chain.from_iterable(positions), np.intp), dropped


def split_sequences(columns, by_channel, drop_exact_duplicates):
    """Lines 7-8: ``K_s`` columns to one :class:`Sequences` set.

    *columns* are ``(t, v, s_id, b_id, seq)`` as :func:`table_columns`
    returns them. Returns ``(sequences, dropped)``. *sequences* has one
    segment per ``(s_id, b_id)`` -- or, when *by_channel* is false, per
    ``(s_id, None)``, holding the elements of every channel carrying the
    signal type -- ordered by ``(t, value_order_key(v))``, keys sorted.
    One stable ``lexsort`` groups the elements by code and orders each
    group by ``t`` (as float64), so elements that share neither keep
    their arrival order. With *drop_exact_duplicates*, an element equal
    to an earlier one (a gateway replaying a frame without jitter) is
    dropped and counted in *dropped*. Equal elements share their signal
    type, channel and timestamp, so each is found among the elements
    tied with it, and a windowed run that cuts ``K_s`` by time drops the
    same ones.
    """
    t, v, s_ids, b_ids, codes = columns
    times = t.astype(float)
    if not by_channel and len(t):
        # One code per signal type: the rank of each code's signal.
        _distinct, first, codes = np.unique(
            codes, return_index=True, return_inverse=True
        )
        codes = _codes(s_ids[first])[codes]
    order = np.lexsort((times, codes))
    codes, times = codes[order], times[order]
    tied = (codes[1:] == codes[:-1]) & (times[1:] == times[:-1])
    dropped = 0
    if tied.any():
        index, dropped = _order(
            t[order], v[order], b_ids[order], tied.view(np.int8),
            drop_exact_duplicates,
        )
        order, codes = order[index], codes[index]
    heads = np.flatnonzero(np.diff(codes, prepend=-1)) if len(t) else []
    keys = list(zip(s_ids[order[heads]].tolist(), (
        b_ids[order[heads]].tolist() if by_channel else [None] * len(heads)
    )))
    return Sequences.build(
        keys, np.append(heads, len(order)), t[order], v[order],
        None if by_channel else b_ids[order],
    ), dropped


def empty_sequence(s_id):
    """The sequence of a signal type without instances."""
    return Sequence(s_id, objects(()), objects(()), objects(()))


def sequences_table(context, sequences):
    """The segments of *sequences*, one after another, as a ``K_s``
    table whose rows land only when it is collected."""
    return context.table_from_columnar(list(K_S_COLUMNS), [
        ColumnarPartition([
            seq.t.tolist(), seq.v.tolist(), [seq.s_id] * len(seq),
            seq.b.tolist(),
        ], len(seq))
        for seq in sequences.values()
    ])


def order_rows(rows):
    """``K_s``-layout *rows* of one signal type as one :class:`Sequence`
    in canonical order, duplicates kept: the engine wrappers' entry."""
    if not rows:
        return empty_sequence(None)
    [sequence] = split_sequences(
        row_columns(rows), by_channel=False, drop_exact_duplicates=False,
    )[0].values()
    return sequence


@dataclass(frozen=True)
class ChannelGroup:
    """One equivalence group found by ``e`` for a signal type."""

    signal_id: str
    representative: str  # b_id processed
    corresponding: tuple  # b_ids whose results are shared

    def all_channels(self):
        return (self.representative,) + self.corresponding


def equality_groups(signal_id, sequences):
    """Line 9: the equality check ``e`` over one signal type's channels.

    *sequences* maps each ``b_id`` to its sequence as
    :func:`split_sequences` returns it; a lone channel's is not read.
    Channels whose value sequences are equal (as lists are: ``1 == 1.0
    == True``) form one :class:`ChannelGroup`; its representative is the
    channel with the most instances (ties by name), so the groups come
    out longest representative first. Because the sequences are in
    canonical order, two channels recording the same values are found
    corresponding however each recorder ordered a tied timestamp.
    """
    if len(sequences) == 1:
        return [ChannelGroup(signal_id, next(iter(sequences)), ())]
    values = {b_id: seq.v.tolist() for b_id, seq in sequences.items()}
    channels = sorted(values, key=lambda b: (-len(values[b]), str(b)))
    groups = []
    assigned = set()
    for channel in channels:
        if channel in assigned:
            continue
        corresponding = [
            other
            for other in channels
            if other != channel
            and other not in assigned
            and values[other] == values[channel]
        ]
        assigned.add(channel)
        assigned.update(corresponding)
        groups.append(
            ChannelGroup(
                signal_id, channel, tuple(sorted(map(str, corresponding)))
            )
        )
    return groups


def marker_functions(constraints):
    """Line 10: the ``f ∈ F`` of the constraints joined to a sequence."""
    return tuple(f for c in constraints for f in c.functions)


def reduce_segments(sequences, functions, carries=None):
    """Lines 10-11 over every segment: evaluate Eq. 1 and keep the
    elements whose flag is false.

    *functions[i]* is segment ``i``'s marker tuple
    (:func:`marker_functions`). Each distinct marker runs once over all
    the segments it applies to: through
    :meth:`~repro.core.reduction.MarkerFunction.from_predecessor` when
    it decides from each element's predecessor -- element -1 of a
    segment is its carry -- else through ``flags`` per segment.
    *carries*, when given, holds per segment the dict mapping a marker's
    position in its tuple to the ``prev`` it continues from (see
    :meth:`MarkerFunction.carry_after
    <repro.core.reduction.MarkerFunction.carry_after>`): empty for a
    whole sequence, that of the preceding chunk for a continuation. It
    is updated in place, so reducing a sequence chunk by chunk is
    element-for-element identical to reducing it at once. Without it
    every segment is whole and no carry is kept.
    """
    jobs = defaultdict(list)  # (hash, marker), or its id -> its uses
    for segment, markers in enumerate(functions):
        for index, func in enumerate(markers):
            try:
                key = (hash(func), func)
            except TypeError:  # unhashable (a field is): by identity
                key = id(func)
            jobs[key].append((func, segment, index))
    if not jobs:
        return sequences
    redundant = np.zeros(len(sequences.t), dtype=bool)
    offsets, sizes = sequences.offsets, sequences.sizes
    bounds = offsets.tolist()
    gaps = None
    for uses in jobs.values():
        func = uses[0][0]
        members = [(s, index) for _func, s, index in uses]
        prevs = [None if carries is None else carries[s].get(index)
                 for s, index in members]
        if func.from_predecessor is None:
            for (s, i), prev in zip(members, prevs):
                seq = sequences.sequence(s)
                redundant[bounds[s] : bounds[s + 1]] |= np.asarray(
                    func.flags(seq.t, seq.v, prev), dtype=bool
                )
                if carries is not None:
                    carries[s][i] = func.carry_after(seq.t, seq.v, prev)
            continue
        if gaps is None:
            # Each element's predecessor in its segment, for all at once.
            times = sequences.times()
            full = np.flatnonzero(sizes)
            gaps = np.full(len(times), np.nan)
            gaps[1:] = times[1:] - times[:-1]
            gaps[offsets[full]] = np.nan
            repeats = sequences.repeats()
            if carries is not None:
                firsts = dict(zip(full.tolist(),
                                  sequences.values_at(offsets[full])
                                  .tolist()))
                last = offsets[full + 1] - 1
                ends = dict(zip(full.tolist(), zip(
                    sequences.t[last].tolist(),
                    sequences.values_at(last).tolist(),
                )))
        one = len(members) == 1
        if one:
            s = members[0][0]
            index, starts = slice(bounds[s], bounds[s + 1]), [0]
        else:
            segments = np.array([s for s, _index in members], np.intp)
            index = sequences.positions(segments)
            starts = (np.cumsum(sizes[segments]) - sizes[segments]).tolist()
        gap, same = gaps[index], repeats[index]
        if carries is not None:
            gap, same = gap.copy(), same.copy()
            # Element -1 of each segment is its carry.
            for (s, i), prev, start in zip(members, prevs, starts):
                if prev is not None and s in firsts:
                    gap[start] = times[bounds[s]] - prev[0]
                    same[start] = bool(firsts[s] == prev[1])
                carries[s][i] = ends.get(s, prev)
        flags = func.from_predecessor(gap, same)
        if one:
            redundant[index] |= flags
        else:
            redundant[index[flags]] = True
    for carry in carries or ():
        if len(carry) > 1:  # in marker order, as one marker at a time
            ordered = sorted(carry.items())
            carry.clear()
            carry.update(ordered)
    return sequences.take(~redundant)


def reduce_sequence(sequence, functions, carries):
    """Lines 10-11 for one sequence: :func:`reduce_segments` over it as
    a one-segment set, with the carry dict *carries*."""
    if not functions:
        return sequence
    return reduce_segments(
        sequence.as_set(), [functions], [carries]
    ).sequence(0)


def derive_extensions(sequence, rules):
    """Line 12: the W rows of one reduced, ordered sequence.

    Extension rules take ``K_s``-layout rows, so a sequence with rules
    is landed once for them.
    """
    if not rules:
        return []
    rows = sequence.rows()
    out = []
    for rule in rules:
        out.extend(rule.derive(rows, K_S_SCHEMA))
    out.sort(key=lambda r: (r[0], r[2]))
    return out


def classify_sequence(sequence, classifier_config=None):
    """Table 3 for one ordered sequence."""
    return classify(sequence.t, sequence.v, classifier_config)


def process_segments(sequences, branch_config):
    """Lines 13-28 for every reduced segment: Table 3's classification
    of each and its branch's R rows, one list per segment."""
    classifications = classify_segments(sequences, branch_config.classifier)
    return classifications, branch_segments(
        sequences, classifications, branch_config
    )


def merge_sequences(context, result_rows, w_rows):
    """Line 29: ``R_out`` from all sequences' branch rows and W rows."""
    return merge_results(
        context,
        [context.table_from_rows(list(R_COLUMNS), result_rows)],
        [context.table_from_rows(list(W_COLUMNS), w_rows)],
    )

"""Algorithm 1 lines 7-29 on typed sequences -- the only copy.

Every entry point that runs Algorithm 1 past interpretation composes
the functions of this module: :meth:`PreprocessingPipeline.run
<repro.core.pipeline.PreprocessingPipeline.run>` splits the cached
``K_s`` and feeds each representative sequence with an empty carry,
:class:`IncrementalRunner <repro.core.incremental.IncrementalRunner>`
splits each window's ``K_s`` and feeds each chunk with the carry of the
chunks before it, and the public engine wrappers
:func:`~repro.core.splitting.equality_split`,
:func:`~repro.core.reduction.reduce_signal` and
:func:`~repro.core.extension.apply_extensions` run them on one signal
type's table. Whole-trace and windowed results are therefore equal
because they are computed by the same statements, not because a
property test holds two copies together.

A *sequence* is one signal type's instances (normally of one channel)
held as columns, a :class:`Sequence`: the timestamps, the values and
each element's channel as object arrays of the objects the decoder
produced. ``K_s`` reaches the stages as columns, and
rows exist only as what the stages return: the R rows of a branch and
the W rows of an extension rule. The stages, in order:

1. :func:`split_sequences` -- ``K_s`` columns to per-signal
   (per-channel) sequences in the canonical order ``(t,
   value_order_key(v))``, without exact duplicates (lines 7-8);
2. :func:`equality_groups` -- the gateway equality check ``e`` over one
   signal type's channels (line 9);
3. :func:`reduce_sequence` -- Eq. 1 with an explicit per-marker carry
   (lines 10-11);
4. :func:`derive_extensions` -- the W rows of the reduced sequence
   (line 12);
5. :func:`process_sequence` -- ``classify`` then ``process_branch``
   (lines 13-28);
6. :func:`merge_sequences` -- ``merge_results`` over all sequences'
   output rows (line 29).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from repro.core.branches import R_COLUMNS, process_branch
from repro.core.classification import classify
from repro.core.model import K_S_COLUMNS, W_COLUMNS
from repro.core.representation import merge_results
from repro.engine.columnar import ColumnarPartition, DictColumn
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
    """An engine column as an object array of the cells it yields."""
    if isinstance(column, DictColumn):
        return objects(column.values)[np.asarray(column.codes, np.intp)]
    if isinstance(column, (array, memoryview)):
        return np.asarray(column).astype(object)
    return objects(column)


@dataclass(frozen=True, eq=False)
class Sequence:
    """One sequence as columns: timestamps ``t``, values ``v`` and
    channels ``b``, each an object array holding the very objects the
    decoder produced; every element is an instance of signal type
    ``s_id``. A stage that computes on the timestamps takes a float64
    copy; rows carry the objects themselves."""

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


def table_columns(table):
    """``(t, v, s_id, b_id, seq)`` of a ``K_s`` table as arrays, no row
    landed. ``seq`` codes each element's ``(s_id, b_id)`` by rank. The
    rule kernels emit it as a fifth column; for a table without one (the
    join plan's, an engine wrapper's) it is computed here.
    """
    width = len(table.schema)
    parts = [
        (p if isinstance(p, ColumnarPartition)
         else ColumnarPartition.from_rows(p, width)).columns
        for p in table.context.executor.execute(table.plan, as_rows=False)
    ]
    t, v, s_ids, b_ids = (
        np.concatenate(
            [np.empty(0, object)] + [column_objects(p[i]) for p in parts]
        )
        for i in range(len(K_S_COLUMNS))
    )
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
    """Lines 7-8: ``K_s`` columns to canonically ordered sequences.

    *columns* are ``(t, v, s_id, b_id, seq)`` as :func:`table_columns`
    returns them. Returns ``(sequences, dropped)``. *sequences* maps
    ``(s_id, b_id)`` to that channel's :class:`Sequence` -- or, when
    *by_channel* is false, ``(s_id, None)`` to the elements of every
    channel carrying the signal type -- ordered by ``(t,
    value_order_key(v))``, keys sorted. One stable ``lexsort`` groups
    the elements by code and orders each group by ``t`` (as float64), so
    elements that share neither keep their arrival order. With
    *drop_exact_duplicates*, an element equal to an earlier one (a
    gateway replaying a frame without jitter) is dropped and counted in
    *dropped*. Equal elements share their signal type, channel and
    timestamp, so each is found among the elements tied with it, and a
    windowed run that cuts ``K_s`` by time drops the same ones.
    """
    t, v, s_ids, b_ids, codes = columns
    if not len(t):
        return {}, 0
    times = t.astype(float)
    if not by_channel:
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
    t, v, s_ids, b_ids = (column[order] for column in columns[:4])
    bounds = (np.flatnonzero(codes[1:] != codes[:-1]) + 1).tolist()
    sequences = {}
    for start, stop in zip([0] + bounds, bounds + [len(t)]):
        key = (s_ids[start], b_ids[start] if by_channel else None)
        sequences[key] = Sequence(
            key[0], t[start:stop], v[start:stop], b_ids[start:stop]
        )
    return sequences, dropped


def empty_sequence(s_id):
    """The sequence of a signal type without instances."""
    return Sequence(s_id, objects(()), objects(()), objects(()))


def sequences_table(context, sequences):
    """*sequences*, one after another, as a ``K_s`` table whose rows land
    only when it is collected."""
    return context.table_from_columnar(list(K_S_COLUMNS), [
        ColumnarPartition([
            seq.t.tolist(), seq.v.tolist(), [seq.s_id] * len(seq),
            seq.b.tolist(),
        ], len(seq))
        for seq in sequences
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
    :func:`split_sequences` returns it. Channels whose value sequences
    are equal (as lists are: ``1 == 1.0 == True``) form one
    :class:`ChannelGroup`; its representative is the channel with the
    most instances (ties by name), so the groups come out longest
    representative first. Because the sequences are in canonical
    order, two channels recording the same values are found
    corresponding however each recorder ordered a tied timestamp.
    """
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


def reduce_sequence(sequence, functions, carries):
    """Lines 10-11: evaluate Eq. 1 and keep the elements whose flag is
    false.

    *sequence* is canonically ordered; *functions* come from
    :func:`marker_functions`. *carries* maps a marker's position in
    *functions* to the ``prev`` it continues from (see
    :meth:`MarkerFunction.carry_after
    <repro.core.reduction.MarkerFunction.carry_after>`): pass an empty
    dict for a whole sequence, and the dict of the preceding chunk for a
    continuation. It is updated in place, so reducing a sequence chunk
    by chunk is element-for-element identical to reducing it at once.
    """
    if not functions:
        return sequence
    times, values = sequence.t, sequence.v
    redundant = np.zeros(len(times), dtype=bool)
    for index, func in enumerate(functions):
        prev = carries.get(index)
        redundant |= np.asarray(func.flags(times, values, prev), dtype=bool)
        carries[index] = func.carry_after(times, values, prev)
    return sequence.take(~redundant)


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


def process_sequence(sequence, branch_config):
    """Lines 13-28: classify a reduced sequence and run its branch.

    Returns ``(classification, R rows)``.
    """
    classification = classify_sequence(sequence, branch_config.classifier)
    return classification, process_branch(
        sequence, classification, branch_config
    )


def merge_sequences(context, result_rows, w_rows):
    """Line 29: ``R_out`` from all sequences' branch rows and W rows."""
    return merge_results(
        context,
        [context.table_from_rows(list(R_COLUMNS), result_rows)],
        [context.table_from_rows(list(W_COLUMNS), w_rows)],
    )

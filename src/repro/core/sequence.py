"""Algorithm 1 lines 7-29 on driver-side sequences -- the only copy.

Every entry point that runs Algorithm 1 past interpretation composes
the functions of this module: :meth:`PreprocessingPipeline.run
<repro.core.pipeline.PreprocessingPipeline.run>` splits the collected
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

A *sequence* is a list of ``K_s``-layout rows ``(t, v, s_id, b_id)`` of
one signal type (normally of one channel). The stages, in order:

1. :func:`split_sequences` -- ``K_s`` rows to per-signal (per-channel)
   sequences in the canonical order of :func:`order_sequence`,
   ``(t, value_order_key(v))``, without exact duplicates (lines 7-8);
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

from collections import defaultdict
from dataclasses import dataclass
from itertools import groupby, islice
from operator import itemgetter, lt

from repro.core.branches import R_COLUMNS, process_branch
from repro.core.classification import classify
from repro.core.model import K_S_COLUMNS, W_COLUMNS
from repro.core.representation import merge_results
from repro.engine.schema import Schema

#: Layout of the rows every stage below takes.
K_S_SCHEMA = Schema.of(*K_S_COLUMNS)


def value_order_key(value):
    """Canonical tiebreak for rows sharing a timestamp.

    ``repr`` yields a deterministic, comparable string across the
    mixed value types a sequence can hold (floats, labels, the
    TRUNCATED sentinel).
    """
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
    are equal form one :class:`ChannelGroup`; its representative is the
    channel with the most instances (ties by name), so the groups come
    out longest representative first. Because the sequences are in
    canonical order, two channels recording the same values are found
    corresponding however each recorder ordered a tied timestamp.
    """
    values = {
        b_id: [row[1] for row in rows] for b_id, rows in sequences.items()
    }
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


def derive_extensions(rows, rules):
    """Line 12: the W rows of one reduced, ordered sequence."""
    out = []
    for rule in rules:
        out.extend(rule.derive(rows, K_S_SCHEMA))
    out.sort(key=lambda r: (r[0], r[2]))
    return out


def classify_sequence(rows, classifier_config=None):
    """Table 3 for one ordered sequence."""
    return classify(
        [row[0] for row in rows], [row[1] for row in rows], classifier_config
    )


def process_sequence(rows, branch_config):
    """Lines 13-28: classify a reduced sequence and run its branch.

    Returns ``(classification, R rows)``.
    """
    classification = classify_sequence(rows, branch_config.classifier)
    return classification, process_branch(
        rows, K_S_SCHEMA, classification, branch_config
    )


def merge_sequences(context, result_rows, w_rows):
    """Line 29: ``R_out`` from all sequences' branch rows and W rows."""
    return merge_results(
        context,
        [context.table_from_rows(list(R_COLUMNS), result_rows)],
        [context.table_from_rows(list(W_COLUMNS), w_rows)],
    )

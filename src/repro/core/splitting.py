"""Signal splitting and gateway deduplication (Sec. 4.1, lines 7-9).

``K_s`` is split per remaining signal type Σ*, and per type the equality
check ``e`` exploits gateway routing: "by exploiting that identical
signal instances are routed on multiple channels computational cost is
reduced by processing signal instances for one channel only and using
the result for corresponding signal instances."

``e`` compares the per-channel value sequences of one signal type. The
channel with the most instances becomes the representative ``K_sep``;
channels with an identical value sequence are recorded as corresponding
``K_scor`` (processed for free); channels whose sequence differs (frame
loss, different sampling) become their own representatives.

The split and ``e`` that Algorithm 1 runs are stages of
:mod:`repro.core.sequence`, which holds lines 7-29 once for whole-trace
and windowed runs. This module is their engine-table surface:
:func:`split_signal_types` hands out per-signal tables (storage,
profiling) and :func:`equality_split` applies the shared predicate to
one signal type's table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.model import K_S_COLUMNS
from repro.core.sequence import equality_groups, split_sequences, table_columns


@dataclass
class SplitResult:
    """Outcome of splitting + dedup for one signal type.

    ``k_sep`` is the representative sequence (engine table, K_s layout
    restricted to one channel); ``groups`` document which channels the
    representative stands for; ``extra`` holds additional representative
    tables for non-corresponding channels.
    """

    signal_id: str
    k_sep: object
    groups: list = field(default_factory=list)
    extra: list = field(default_factory=list)  # (ChannelGroup, table)

    def tables(self):
        """All (group, table) pairs that must be processed."""
        head_group = self.groups[0] if self.groups else None
        return [(head_group, self.k_sep)] + list(self.extra)


def split_signal_types(k_s, signal_ids=None):
    """Line 7-8: one table per signal type ``K_s^{s_id}``.

    One routed pass over ``K_s`` (a single shuffle stage, the engine's
    :meth:`~repro.engine.table.Table.split_by_key`) produces *every*
    per-signal table at once, replacing the previous
    one-filter-scan-per-signal fan-out -- a trace with S signal types
    was scanned S+1 times, now once. Each table is one partition of its
    signal type's rows in ``K_s`` order, whatever ``K_s``'s partition
    count, so a stored type is one section.

    Returns a dict s_id -> table. When *signal_ids* is None the ids are
    discovered from the data during the same pass.
    """
    keys = None if signal_ids is None else sorted(signal_ids)
    return k_s.split_by_key("s_id", keys=keys)


def equality_split(k_s_sid, signal_id):
    """Line 9: the equality check ``e`` for one signal type's table.

    An engine wrapper over :func:`~repro.core.sequence.split_sequences`
    and :func:`~repro.core.sequence.equality_groups`, the stages every
    pipeline run uses: the table's columns are split per channel and
    compared. Returns a :class:`SplitResult` whose ``k_sep`` covers the
    representative channel only, in canonical sequence order. The table
    is taken as given -- exact duplicates are the caller's to drop.
    """
    sequences, _dropped = split_sequences(
        table_columns(k_s_sid.select(*K_S_COLUMNS)),
        by_channel=True,
        drop_exact_duplicates=False,
    )
    channels = {b_id: seq for (_s_id, b_id), seq in sequences.items()}
    groups = equality_groups(signal_id, channels)
    if not groups:
        return SplitResult(signal_id, k_s_sid)
    context = k_s_sid.context
    tables = [
        (
            group,
            context.table_from_rows(
                list(K_S_COLUMNS), channels[group.representative].rows()
            ),
        )
        for group in groups
    ]
    return SplitResult(
        signal_id, tables[0][1], groups=groups, extra=tables[1:]
    )


def dedup_savings(result):
    """Fraction of channels whose processing is saved by ``e``.

    E.g. a signal routed on 3 identical channels yields 2/3 savings.
    """
    total = sum(len(g.all_channels()) for g in result.groups)
    if total == 0:
        return 0.0
    processed = len(result.groups)
    return 1.0 - processed / total

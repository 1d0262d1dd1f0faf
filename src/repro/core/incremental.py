"""Incremental (windowed) trace processing.

The fleets of Fig. 1 deliver traces continuously ("500 cars produce
1.5 TB per day"); a daily batch cannot hold a vehicle's full history in
memory. :class:`IncrementalRunner` applies the front of Algorithm 1
(preselection, interpretation, per-signal reduction -- lines 3-11) to
consecutive time windows of a trace. The type-dependent processing
(lines 13-28) runs once at ``finalize`` over the accumulated reduced
sequences, because classification criteria (Eq. 2) are sequence-level
statistics.

The runner is a driver, not an implementation: lines 7-29 -- the split
into ordered, duplicate-free sequences, Eq. 1, extensions,
classification, branches and the merge -- are the functions of
:mod:`repro.core.sequence` that :meth:`PreprocessingPipeline.run
<repro.core.pipeline.PreprocessingPipeline.run>` calls too. What this
module adds is the state between windows -- the reduced rows so far and
each marker function's explicit carry -- and its checkpoint payload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import groupby, repeat

import numpy as np

from repro.core.interpretation import (
    compile_under_policy,
    interpret_under_policy,
)
from repro.core.preselection import preselect
from repro.core.sequence import (
    Sequences,
    derive_extensions,
    marker_functions,
    merge_sequences,
    process_segments,
    reduce_segments,
    split_sequences,
    table_columns,
)
from repro.engine.columnar import ValueColumn


class IncrementalError(ValueError):
    """Raised for out-of-order windows or misuse."""


#: Schema tag of :meth:`IncrementalRunner.export_state` payloads.
STATE_FORMAT = "repro.incremental-state/1"


class ReducedRows:
    """One (signal, channel)'s reduced elements so far, as typed planes.

    :attr:`chunks` holds one ``(t, v)`` pair per
    :meth:`IncrementalRunner.process_window` call that reduced elements
    of the key (one per log record on a resumed stream session): ``t``
    the timestamps, float64 (objects where one is no float), and ``v``
    the values as a :class:`~repro.engine.columnar.ValueColumn`, so an
    int stays an int and a label a label without an object per value.
    ``len`` counts elements; ``K_s`` rows are built where they are
    read."""

    __slots__ = ("chunks",)

    def __init__(self, chunks=()):
        self.chunks = list(chunks)

    def __len__(self):
        return sum(len(t) for t, _v in self.chunks)

    def rows(self, s_id, b_id):
        """The elements as ``K_s``-layout rows of the key given."""
        return [
            row for t, v in self.chunks
            for row in zip(t.tolist(), v.tolist(), repeat(s_id), repeat(b_id))
        ]


@dataclass
class _SignalState:
    """Accumulated per-(signal, channel) reduction state; the only
    cross-window reduction state is :attr:`carries`."""

    reduced_rows: ReducedRows = field(default_factory=ReducedRows)
    #: Per-marker-function carry, keyed by position in the signal's
    #: function tuple -- each marker defines its own carry semantics
    #: (see :meth:`MarkerFunction.carry_after`).
    carries: dict = field(default_factory=dict)


@dataclass
class IncrementalRunner:
    """Windowed execution of a pipeline parameterization.

    Feed windows in time order with :meth:`process_window`; call
    :meth:`finalize` once at the end. Gateway-channel deduplication
    (``dedup_channels``) is not applied: the equality check ``e``
    compares whole raw per-channel sequences, which no window holds.
    Restrict the catalog to representative channels instead, as the
    evaluation does ("one channel per signal type is analyzed").
    """

    config: object  # PipelineConfig
    _states: dict = field(default_factory=dict)
    _last_window_end: float = None
    _finalized: bool = False
    #: Truncated-payload rows dropped so far (short_payload="skip").
    short_payload_skipped: int = 0
    #: TRUNCATED marker rows retained so far (short_payload="keep").
    short_payload_kept: int = 0
    #: Exact K_s duplicates dropped so far (drop_exact_duplicates).
    exact_duplicates_dropped: int = 0
    #: Lines 4-6 compiled for this config at the first window; every
    #: window runs the same task. Never part of the state payload.
    _kernels: object = field(default=None, repr=False, compare=False)

    def process_window(self, k_b_window):
        """Run lines 3-11 on a window's K_b table; returns row count.

        A "window" is any time-ordered set of frames: one window of
        :func:`split_into_windows`, or several consecutive ones in one
        table (a stream session hands over every window sealed in a
        commit interval at once). Reducing consecutive windows together
        or one by one gives the same state -- the windowed-equals-whole
        property of every marker that sees the past through its carry,
        all but an aggregation marker such as
        :class:`~repro.core.reduction.OutsideQuantileRange` -- so the
        caller may pick the batch that is cheapest.
        Windows must arrive in time order (their minimum timestamp must
        not precede the previous window's maximum). Timestamps *inside*
        a window may be unordered (clock-skewed recorders step
        backwards): every (signal, channel) chunk is put into the
        canonical sequence order before reduction, by the stage the
        whole-trace pipeline splits its sequences with.
        """
        if self._finalized:
            raise IncrementalError("runner already finalized")
        config = self.config
        if self._kernels is None:
            self._kernels = compile_under_policy(config)
        k_s, policy_counts = interpret_under_policy(
            preselect(k_b_window, config.catalog), config, self._kernels
        )
        self.short_payload_skipped += policy_counts.get(
            "short_payload_skipped", 0
        )
        self.short_payload_kept += policy_counts.get("short_payload_kept", 0)
        # Exact duplicates share their timestamp, so window assignment
        # puts every copy of a row into the same window: dropping them
        # per window equals dropping them over the whole trace.
        sequences, dropped = split_sequences(
            table_columns(k_s),
            by_channel=True,
            drop_exact_duplicates=config.drop_exact_duplicates,
        )
        if len(sequences):
            # Every sequence is in time order: the window's first and
            # last instants are among their ends.
            window_start = min(sequences.t[sequences.offsets[:-1]].tolist())
            if (
                self._last_window_end is not None
                and window_start < self._last_window_end
            ):
                raise IncrementalError(
                    "window starting at {} precedes previous end {}".format(
                        window_start, self._last_window_end
                    )
                )
            self._last_window_end = max(
                sequences.t[sequences.offsets[1:] - 1].tolist()
            )
        self.exact_duplicates_dropped += dropped
        states = [self._states.setdefault(key, _SignalState())
                  for key in sequences.keys]
        reduced = reduce_segments(sequences, [
            marker_functions(config.constraints.for_signal(s_id))
            for s_id, _b_id in sequences.keys
        ], [state.carries for state in states])
        bounds, v = reduced.offsets.tolist(), reduced.column
        for state, lo, hi in zip(states, bounds, bounds[1:]):
            if hi > lo:  # views of the window's planes
                column = ValueColumn(v.x[lo:hi], v.kinds[lo:hi], v.labels,
                                     v.objects)
                state.reduced_rows.chunks.append((reduced.t[lo:hi], column))
        return len(sequences.t)

    def finalize(self, context):
        """Run extensions, classification, branches and the merge over
        one set of every (signal, channel)'s reduced elements."""
        if self._finalized:
            raise IncrementalError("runner already finalized")
        self._finalized = True
        config = self.config
        # Each chunk was reduced in canonical order and windows come in
        # time order, so a key's chunks concatenate to its sequence: one
        # concatenation per plane.
        keys = [key for key, state in sorted(self._states.items())
                if state.reduced_rows]
        chunks = [chunk for key in keys
                  for chunk in self._states[key].reduced_rows.chunks]
        sizes = [len(self._states[key].reduced_rows) for key in keys]
        sequences = Sequences.build(
            keys, np.concatenate(([0], np.cumsum(sizes, dtype=np.intp))),
            np.concatenate([np.empty(0)] + [t for t, _v in chunks]),
            ValueColumn.concat([
                ValueColumn(np.empty(0), np.empty(0, np.uint8)),
                *(v for _t, v in chunks),
            ]),
        )
        w_rows = []
        for i, (s_id, _b_id) in enumerate(keys):
            rules = config.extensions.for_signal(s_id)
            if rules:  # a segment is landed for its rules only
                w_rows.extend(derive_extensions(sequences.sequence(i), rules))
        classifications, branch_rows = process_segments(
            sequences, config.branch_config
        )
        r_out = merge_sequences(
            context, [row for rows in branch_rows for row in rows], w_rows
        )
        return IncrementalResult(
            r_out=r_out.cache(),
            classifications=dict(zip(keys, classifications)),
        )

    def reduced_rows(self, signal_id, channel_id):
        """Accumulated reduced rows of one (signal, channel)."""
        state = self._states.get((signal_id, channel_id))
        return state.reduced_rows.rows(signal_id, channel_id) if state \
            else []

    # -- checkpoint/restore hooks (streaming ingest) ---------------------
    def export_state(self):
        """Snapshot of all cross-window progress.

        The payload captures everything :meth:`process_window` mutates
        -- accumulated reduced rows, per-marker carries, the in-order
        watermark and the lossy-trace counters -- so a fresh runner
        restored from it and fed the *remaining* windows produces
        byte-identical :meth:`finalize` output to an uninterrupted run.
        The config is deliberately not part of the payload (it lives in
        the stream/fleet catalog); the caller reattaches it on restore.
        """
        return {
            "format": STATE_FORMAT,
            "last_window_end": self._last_window_end,
            "finalized": self._finalized,
            "short_payload_skipped": self.short_payload_skipped,
            "short_payload_kept": self.short_payload_kept,
            "exact_duplicates_dropped": self.exact_duplicates_dropped,
            "states": {
                key: {
                    "reduced_rows": ReducedRows(state.reduced_rows.chunks),
                    "carries": dict(state.carries),
                }
                for key, state in self._states.items()
            },
        }

    @classmethod
    def from_state(cls, config, payload):
        """Rebuild a runner from an :meth:`export_state` payload.

        The payload comes from disk (stream and fleet checkpoints), so
        every field is checked: a missing or ill-typed one raises
        :class:`IncrementalError` naming it.
        """
        if not isinstance(payload, dict) or payload.get("format") != \
                STATE_FORMAT:
            raise IncrementalError(
                "not an incremental-state payload (format {!r})".format(
                    payload.get("format") if isinstance(payload, dict)
                    else type(payload).__name__
                )
            )
        runner = cls(config)
        runner._last_window_end = _state_field(
            payload, "last_window_end", (int, float, type(None))
        )
        runner._finalized = _state_field(payload, "finalized", bool)
        runner.short_payload_skipped = _state_field(
            payload, "short_payload_skipped", int
        )
        runner.short_payload_kept = _state_field(
            payload, "short_payload_kept", int
        )
        runner.exact_duplicates_dropped = _state_field(
            payload, "exact_duplicates_dropped", int
        )
        states = _state_field(payload, "states", dict)
        for key in states:
            if not isinstance(key, tuple) or len(key) != 2:
                raise IncrementalError(
                    "incremental-state key {!r} of 'states' is not an "
                    "(s_id, b_id) pair".format(key)
                )
            entry = _state_field(states, key, dict)
            runner._states[key] = _SignalState(
                reduced_rows=ReducedRows(_state_field(
                    entry, "reduced_rows", ReducedRows
                ).chunks),
                carries=dict(_state_field(entry, "carries", dict)),
            )
        return runner


def _state_field(payload, name, types):
    """``payload[name]`` once it is known to be there and of *types*."""
    if name not in payload:
        raise IncrementalError(
            "state payload lacks field {!r}".format(name)
        )
    if not isinstance(payload[name], types):
        raise IncrementalError(
            "state field {!r} has type {}".format(
                name, type(payload[name]).__name__
            )
        )
    return payload[name]


@dataclass
class IncrementalResult:
    """Finalized output of an incremental run."""

    r_out: object
    classifications: dict  # (s_id, b_id) -> Classification

    def state_representation(self, signal_order=None):
        from repro.core.representation import build_state_representation

        return build_state_representation(self.r_out, signal_order)


def window_index(t, origin, window_seconds):
    """The window timestamp *t* belongs to: window ``k`` covers
    ``[origin + k*W, origin + (k+1)*W)``. The one membership rule of
    :func:`split_into_windows` and the stream ``WindowAssembler``.

    The bounds are the sums as written, which the assembler seals at;
    where the division rounds *t* across one of them (``(4.1 - 4.0) /
    0.1`` is just under 1), one step moves it back."""
    index = math.floor((t - origin) / window_seconds)
    if t >= origin + (index + 1) * window_seconds:
        return index + 1
    if t < origin + index * window_seconds:
        return index - 1
    return index


def split_into_windows(records, window_seconds):
    """Partition byte records into time-ordered window-sized chunks.

    Records need not arrive time-ordered (lossy recorders step
    backwards): they are stable-sorted by timestamp first, so window
    membership is a pure function of each record's timestamp --
    :func:`window_index` relative to the earliest one -- and
    :meth:`IncrementalRunner.process_window`'s in-order-windows check
    holds for the produced sequence. Empty windows are not produced.
    """
    if not window_seconds > 0:
        raise IncrementalError("window_seconds must be positive")
    ordered = sorted(records, key=lambda r: (r[0],))
    if not ordered:
        return []
    origin = ordered[0][0]
    return [
        list(window)
        for _index, window in groupby(
            ordered, lambda r: window_index(r[0], origin, window_seconds)
        )
    ]

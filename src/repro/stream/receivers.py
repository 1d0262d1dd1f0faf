"""Frame sources, their event-time merge and the shared kill budget.

A :class:`FrameSource` holds one vehicle's frames as packed columns;
:func:`merge` puts the frames past the per-channel cursors into one
event-time delivery order, which the service slices straight into the
vehicle's session, each vehicle's grant taken from one
:class:`FrameBudget`.

:class:`ReplaySource` is the bundled transport: pre-recorded (or
simulated) byte records served per channel in timestamp order, with
cursor-based resume so a restarted service can replay exactly the
frames no checkpoint had covered. A ``.btrc`` or ``.ctrc`` recording
(:class:`~repro.tracefile.binlog.PackedRecords`) is served as the file's
columns: no record tuple is built and no ``m_info`` cell decoded on the
way to a window.
"""

from __future__ import annotations

import numpy as np

from repro.engine.columnar import (
    BytesColumn,
    ColumnarPartition,
    DictColumn,
    _build_column,
    code_array,
)
from repro.stream.assembler import FrameRejected
from repro.stream.errors import StreamError
from repro.tracefile.binlog import (
    BinaryTraceError,
    PackedRecords,
    _unpack_cell,
    pack_info,
)

#: The value types the ``.btrc`` info codec holds.
_INFO_TYPES = (bool, int, float, str)


class Frames:
    """Frames in delivery order: rows ``start:start + len(codes)`` of
    ``block``, K_b columns (a
    :class:`~repro.engine.columnar.ColumnarPartition`), and ``codes``,
    each frame's channel as a position in ``channels``. Slicing moves
    the bounds; no column is copied."""

    __slots__ = ("channels", "codes", "block", "start")

    def __init__(self, channels, codes, block, start=0):
        self.channels = channels
        self.codes = codes
        self.block = block
        self.start = start

    def __len__(self):
        return len(self.codes)

    def __getitem__(self, index):
        start, stop, _step = index.indices(len(self))
        return Frames(self.channels, self.codes[start:stop], self.block,
                      self.start + start)


def pack_records(records):
    """Byte-record tuples as one block of K_b columns, each ``m_info``
    packed with :func:`~repro.tracefile.binlog.pack_info`. A record
    whose ``m_info`` that codec cannot hold raises :class:`FrameRejected`
    carrying its position."""
    records = list(records)
    cells = []
    for position, (*_fields, m_info) in enumerate(records):
        try:
            if type(m_info) is not tuple or not all(
                type(entry) is tuple and len(entry) == 2
                and type(entry[0]) is str and type(entry[1]) in _INFO_TYPES
                for entry in m_info
            ):
                raise BinaryTraceError("it is not a tuple of (str, bool | "
                                       "int | float | str) pairs")
            cells.append(pack_info(m_info))
        except BinaryTraceError as exc:
            raise FrameRejected(position, "m_info {!r} cannot be packed: "
                                "{}".format(m_info, exc)) from None
    t, payloads, channels, m_ids, _infos = (
        list(column) for column in zip(*records)
    ) if records else ([], [], [], [], [])
    return ColumnarPartition([
        _build_column(t), _build_column(payloads), channels,
        _build_column(m_ids), BytesColumn.from_values(cells, _unpack_cell),
    ], len(records))


class FrameSource:
    """Transport abstraction: one vehicle's frames as packed columns.

    :meth:`channels` names the channels, sorted by ``str``;
    :meth:`recording` returns ``(block, codes)``: the frames as K_b
    columns and each frame's channel as a position in ``channels()``.
    Within one channel the block holds the frames in the order they are
    served -- time order for replays -- which is what makes per-channel
    cursors exact replay positions.
    """

    def channels(self):
        raise NotImplementedError

    def recording(self):
        raise NotImplementedError


class ReplaySource(FrameSource):
    """In-memory per-channel replay of a recorded journey.

    *records* is a :class:`~repro.tracefile.binlog.PackedRecords`, whose
    columns are served as they are (the channel column dictionary-coded),
    or any list of byte records, packed once here (:func:`pack_records`). A record whose ``m_info`` cannot be
    packed makes the source refuse delivery: :meth:`recording` raises a
    :class:`StreamError` naming its channel and frame.
    """

    def __init__(self, records):
        self._refusal = None
        if isinstance(records, PackedRecords):
            block = records.partition
        else:
            records = list(records)
            try:
                block = pack_records(records)
            except FrameRejected as exc:  # name its ordinal as cursors do
                t, _p, channel, *_rest = records[exc.position]
                ordinal = sum(r[2] == channel and (r[0], i) < (t, exc.position)
                              for i, r in enumerate(records))
                self._refusal = "channel {!r}, frame {}: {}".format(
                    channel, ordinal, exc)
                block = pack_records([])
        order = np.argsort(np.asarray(block.columns[0], np.float64),
                           kind="stable")
        if (order != np.arange(len(order))).any():
            block = block.gather(order)
        channels, coded = block.columns[2], None
        if isinstance(channels, DictColumn):
            # A trace file's coded column: rank its values, not its frames.
            coded = np.asarray(channels.codes, dtype=np.intp)
            present = np.bincount(coded, minlength=len(channels.values))
            names = dict.fromkeys(
                value for value, count in zip(channels.values, present)
                if count
            )
        else:
            names = dict.fromkeys(channels)
        self._channels = sorted(names, key=str)
        rank = {channel: code for code, channel in enumerate(self._channels)}
        if coded is None:
            self._codes = np.fromiter(map(rank.__getitem__, channels),
                                      np.intp, len(block))
        else:
            self._codes = np.array([rank.get(value, -1) for value in
                                    channels.values], dtype=np.intp)[coded]
        # A frame's channel is its b_id, so the codes code that column.
        columns = list(block.columns)
        columns[2] = DictColumn(code_array(self._codes, len(rank)),
                                tuple(self._channels))
        self._block = ColumnarPartition(columns, len(block))

    def channels(self):
        return list(self._channels)

    def recording(self):
        if self._refusal is not None:
            raise StreamError(self._refusal)
        return self._block, self._codes


def merge(source, cursor):
    """The frames of *source* past ``cursor(channel)`` per channel, as
    :class:`Frames` in delivery order.

    The order is ``(t, str(channel))``, stable within a channel; channels
    whose names tie keep ``source.channels()`` order. It is one stable
    ``lexsort`` over ``(t, channel rank)``, where a frame's ``t`` counts
    as the largest of its channel up to it, so a channel served out of
    time order is not reordered -- the order a k-way merge of the
    channels takes. Delivery order is thus a pure function of the
    recorded data and the cursors: kill-and-resume replays a
    multi-channel source exactly, and no channel can run ahead of
    another in event time and turn scheduling into late drops.
    """
    channels = tuple(source.channels())
    block, codes = source.recording()
    starts = np.array([cursor(channel) for channel in channels], np.intp)
    if (starts < 0).any():
        raise StreamError("cursor must not be negative")
    t = np.array(block.columns[0], np.float64)
    ordinal = np.empty(len(codes), np.intp)
    for code in range(len(channels)):
        mine = codes == code
        ordinal[mine] = np.arange(np.count_nonzero(mine))
        t[mine] = np.maximum.accumulate(t[mine])
    keep = np.flatnonzero(ordinal >= starts[codes])
    order = keep[np.lexsort((codes[keep], t[keep]))]
    if len(order) != len(codes) or (order != np.arange(len(order))).any():
        block = block.gather(order)
    return Frames(channels, codes[order], block)


class FrameBudget:
    """A shared, decrementing frame allowance (the mid-stream kill).

    ``take(n)`` grants up to *n* frames -- all of them until the budget
    is spent, then what is left, then none; the service stops each
    vehicle before a frame it was not granted, emulating a service
    killed part-way through the day's traffic.
    """

    def __init__(self, limit):
        if limit is not None and limit < 0:
            raise StreamError("frame budget must not be negative")
        self.limit = limit
        self.spent = 0

    def take(self, frames=1):
        """Spend up to *frames*; returns how many were granted."""
        if self.limit is not None:
            frames = min(frames, self.limit - self.spent)
        self.spent += frames
        return frames

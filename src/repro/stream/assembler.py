"""Online time-window assembly with a late-arrival grace period.

The batch pipeline cuts a finished trace with
:func:`~repro.core.incremental.split_into_windows`; a live stream never
finishes, so the same window membership -- a pure function of each
frame's timestamp relative to the first frame seen -- is applied
*online* here. A window seals once the event-time watermark (the
maximum timestamp observed so far) passes the window's end plus a
configurable grace period; sealing in index order preserves the
in-order-windows contract of
:meth:`~repro.core.incremental.IncrementalRunner.process_window`.
Frames that arrive for an already-sealed window are *late*: they are
counted and dropped, never silently reordered into the past.

Frames arrive and are buffered as packed columns: a chunk is a range of
rows of a :class:`~repro.engine.columnar.ColumnarPartition` in the K_b
layout, a window holds the positions of its frames in the blocks that
brought them, and a sealed window is handed over as one partition -- a
slice of one block where its frames are contiguous there.
"""

from __future__ import annotations

import math

from repro.core.incremental import _state_field, window_index
from repro.engine.columnar import ColumnarPartition
from repro.protocols.frames import BYTE_RECORD_COLUMNS
from repro.stream.errors import StreamError

#: Schema tag of :meth:`WindowAssembler.export_state` payloads.
ASSEMBLER_STATE_FORMAT = "repro.stream-assembler/1"


class FrameRejected(StreamError):
    """A frame no window can hold; :attr:`position` is its index in the
    chunk handed to :meth:`WindowAssembler.add_chunk`."""

    def __init__(self, position, message):
        super().__init__(message)
        self.position = position


class WindowAssembler:
    """Buckets frames into event-time windows and seals them in order.

    Window ``k`` covers ``[origin + k*W, origin + (k+1)*W)`` where
    ``origin`` is the timestamp of the first frame ever added. Indices
    may be negative (a frame older than the origin that arrives within
    the grace period is still assignable); the *floor* -- one past the
    highest sealed index -- only rises, and frames whose window lies
    below it are late drops.
    """

    def __init__(self, window_seconds, grace_seconds=0.0):
        if not window_seconds > 0:
            raise StreamError("window_seconds must be positive")
        if not grace_seconds >= 0:
            raise StreamError("grace_seconds must not be negative")
        self.window_seconds = float(window_seconds)
        self.grace_seconds = float(grace_seconds)
        self._origin = None
        self._watermark = None
        #: window index -> [(block, positions of its frames in it)], in
        #: arrival order
        self._pending = {}
        self._floor = None  # lowest assignable index; None = nothing sealed
        #: Seal time of the lowest pending window (derived, never saved).
        self._seal_at = math.inf
        self.late_dropped = 0

    # -- ingestion -------------------------------------------------------
    def window_index(self, t):
        """The window a timestamp belongs to (pure, origin-anchored)."""
        if self._origin is None:
            raise StreamError("no origin yet: add a frame first")
        return window_index(t, self._origin, self.window_seconds)

    def add(self, frame):
        """Buffer one frame tuple; :meth:`add_chunk` of a block of one."""
        return self.add_chunk(
            ColumnarPartition.from_rows([frame], len(BYTE_RECORD_COLUMNS))
        )

    def add_chunk(self, frames, start=0, stop=None):
        """Buffer rows ``start:stop`` of the block *frames* in arrival
        order; returns the windows sealed.

        Every frame is adjudicated exactly as if it had arrived alone --
        a window sealed by an earlier frame of the chunk is closed to a
        later one -- but sealable windows are looked for only once the
        watermark has reached the lowest pending window's seal time.

        The return value is a list of ``(window_index, block)`` pairs in
        strictly increasing index order, each block holding the window's
        frames in arrival order (the consumer sorts by timestamp; see
        ``IncrementalRunner.process_window``). A timestamp no window can
        hold (``nan``, ``inf``) raises :class:`FrameRejected` carrying
        the frame's position in the chunk; the frames before it stay
        buffered.
        """
        sealed = []
        pending = self._pending
        for position, t in enumerate(frames.columns[0][start:stop], start):
            origin = t if self._origin is None else self._origin
            try:
                index = window_index(t, origin, self.window_seconds)
            except (ValueError, OverflowError):
                raise FrameRejected(position - start, (
                    "timestamp {!r} is not a finite offset from the "
                    "stream origin".format(t)
                )) from None
            self._origin = origin
            if self._floor is not None and index < self._floor:
                self.late_dropped += 1
                continue
            parts = pending.get(index)
            if parts is None:
                parts = pending[index] = []
                self._seal_at = min(self._seal_at, self._seal_time(index))
            if parts and parts[-1][0] is frames:
                parts[-1][1].append(position)
            else:
                parts.append((frames, [position]))
            if self._watermark is None or t > self._watermark:
                self._watermark = t
            if self._watermark >= self._seal_at:
                sealed.extend(self._seal_ready())
        return sealed

    def _seal_time(self, index):
        """The watermark at which window *index* seals: its end + grace."""
        return (
            self._origin + (index + 1) * self.window_seconds
            + self.grace_seconds
        )

    def _seal_ready(self):
        sealed = []
        for index in sorted(self._pending):
            seal_at = self._seal_time(index)
            if self._watermark < seal_at:
                self._seal_at = seal_at
                break
            sealed.append((index, _window(self._pending.pop(index))))
            self._floor = index + 1
        else:
            self._seal_at = math.inf
        return sealed

    def flush(self):
        """Seal every pending window in index order (drain / shutdown)."""
        sealed = [
            (index, _window(self._pending.pop(index)))
            for index in sorted(self._pending)
        ]
        if sealed:
            self._floor = sealed[-1][0] + 1
            self._seal_at = math.inf
        return sealed

    # -- introspection ---------------------------------------------------
    @property
    def pending_windows(self):
        return len(self._pending)

    @property
    def pending_frames(self):
        return sum(len(positions) for parts in self._pending.values()
                   for _block, positions in parts)

    # -- checkpoint ------------------------------------------------------
    def export_state(self):
        """Snapshot of buffered frames (per window in index order, its
        blocks in arrival order) and sealing progress."""
        return {
            "format": ASSEMBLER_STATE_FORMAT,
            "window_seconds": self.window_seconds,
            "grace_seconds": self.grace_seconds,
            "origin": self._origin,
            "watermark": self._watermark,
            "floor": self._floor,
            "late_dropped": self.late_dropped,
            "pending": {
                index: [_take(*part) for part in parts]
                for index, parts in sorted(self._pending.items())
            },
        }

    @classmethod
    def from_state(cls, payload):
        """Rebuild an assembler from an :meth:`export_state` payload.

        The payload comes from disk: a missing or ill-typed field
        raises :class:`~repro.core.incremental.IncrementalError` naming
        it, as ``IncrementalRunner.from_state`` does.
        """
        if not isinstance(payload, dict) or payload.get("format") != \
                ASSEMBLER_STATE_FORMAT:
            raise StreamError("not a window-assembler state payload")
        number, instant = (int, float), (int, float, type(None))
        assembler = cls(
            _state_field(payload, "window_seconds", number),
            _state_field(payload, "grace_seconds", number),
        )
        assembler._origin = _state_field(payload, "origin", instant)
        assembler._watermark = _state_field(payload, "watermark", instant)
        assembler._floor = _state_field(payload, "floor", (int, type(None)))
        assembler.late_dropped = _state_field(payload, "late_dropped", int)
        pending = _state_field(payload, "pending", dict)
        for index in pending:
            if type(index) is not int:
                raise StreamError(
                    "pending window index {!r} is not an integer".format(
                        index
                    )
                )
            blocks = _state_field(pending, index, list)
            if not blocks or not all(map(_holds_byte_records, blocks)):
                raise StreamError(
                    "pending window {} holds frames that are not byte "
                    "records with a finite timestamp and a bytes "
                    "payload".format(index)
                )
            assembler._pending[index] = [
                (block, list(range(len(block)))) for block in blocks
            ]
        if pending:
            if assembler._origin is None or assembler._watermark is None:
                raise StreamError(
                    "pending windows without an origin and a watermark"
                )
            assembler._seal_at = assembler._seal_time(min(pending))
        return assembler


def _take(block, positions):
    """Rows *positions* (increasing) of *block*: a slice where they are
    contiguous, else a gather."""
    first = positions[0]
    if positions[-1] - first + 1 == len(positions):
        return block.slice(first, first + len(positions))
    return block.gather(positions)


def _window(parts):
    """One partition of a window's ``(block, positions)`` parts."""
    return ColumnarPartition.concat([_take(*part) for part in parts])


def _holds_byte_records(block):
    """A block of K_b columns, every ``t`` a finite number, every
    payload bytes."""
    return (
        isinstance(block, ColumnarPartition)
        and block.width == len(BYTE_RECORD_COLUMNS)
        and all(type(t) in (int, float) and math.isfinite(t)
                for t in block.columns[0])
        and all(type(payload) is bytes for payload in block.columns[1])
    )

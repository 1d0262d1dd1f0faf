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

A chunk is a range of rows of a K_b
:class:`~repro.engine.columnar.ColumnarPartition`, adjudicated by array
passes (:meth:`WindowAssembler.add_chunk`). A window holds its frames as
``(block, range(start, stop))`` parts of the blocks that brought them
(positions only for frames that arrived out of order), and a sealed
:class:`Window` keeps them: several windows contiguous in one block are
one slice of it (:func:`joined`).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.incremental import _state_field, window_index
from repro.engine.columnar import ColumnarPartition
from repro.protocols.frames import BYTE_RECORD_COLUMNS
from repro.stream.errors import StreamError

#: Schema tag of :meth:`WindowAssembler.export_state` payloads.
ASSEMBLER_STATE_FORMAT = "repro.stream-assembler/2"

_BIG = 1 << 62  # above every window index held (they are below 2**61)
_SCAN = 4096  # frames one pass looks at: a pass is cut at a late frame


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
        self._pending = {}  # window index -> its (block, positions) parts
        self._floor = None  # lowest assignable index; None = nothing sealed
        #: Derived, never saved: bounds on the pending windows -- at
        #: least the highest index, at most the lowest seal time.
        self._top, self._seal_at = -_BIG, math.inf
        self.late_dropped = 0

    # -- ingestion -------------------------------------------------------
    def window_index(self, t):
        """The window a timestamp belongs to (pure, origin-anchored)."""
        if self._origin is None:
            raise StreamError("no origin yet: add a frame first")
        return window_index(t, self._origin, self.window_seconds)

    def add(self, frame):
        """Buffer one frame tuple; :meth:`add_chunk` of a block of one."""
        return self.add_chunk(ColumnarPartition.from_rows(
            [frame], len(BYTE_RECORD_COLUMNS)))

    def add_chunk(self, frames, start=0, stop=None):
        """Buffer rows ``start:stop`` of the block *frames* in arrival
        order; returns the ``(window_index, Window)`` pairs sealed, in
        increasing index order, each window's frames in arrival order.

        Every frame is adjudicated as if it had arrived alone -- a
        window sealed by an earlier frame of the chunk is closed to a
        later one -- but by array passes: window indices (timestamps as
        float64, exact for ints up to 2**53), the watermark, the seals
        and the late drops; Python steps are per window and per seal. A
        timestamp no window can hold (``nan``, ``inf``, 2**61 windows
        from the origin) raises :class:`FrameRejected` carrying its
        position in the chunk; the frames before it stay buffered.
        """
        column = frames.columns[0]
        stop = len(frames) if stop is None else stop
        t = np.asarray(column[start:stop], np.float64)
        if not len(t):
            return []
        origin = column[start] if self._origin is None else self._origin
        width = self.window_seconds
        with np.errstate(invalid="ignore", over="ignore"):
            index = np.floor((t - origin) / width)
            bad = ~(np.abs(index) < 2.0 ** 61)
        good = int(bad.argmax()) if bad.any() else len(t)
        t, index = t[:good], index[:good].astype(np.int64)
        # The bounds are the sums window_index compares with.
        up = t >= origin + (index + 1) * width
        index += up
        index -= ~up & (t < origin + index * width)
        if good:
            self._origin = origin
        sealed, at = [], 0
        while at < good:
            at += self._adjudicate(frames, start + at, t[at : at + _SCAN],
                                   index[at : at + _SCAN], sealed)
        if good < stop - start:
            raise FrameRejected(good, "timestamp {!r} is not a finite offset "
                                "from the stream origin".format(
                                    column[start + good]))
        return sealed

    def _adjudicate(self, block, first, t, index, sealed):
        """Adjudicate frames ``first + i`` of *block* (timestamps *t*,
        windows *index*) up to the first that a seal among them makes
        late; appends the windows sealed to *sealed*, returns the count.
        A window seals at its first arrival or at the first frame taking
        the watermark to its seal time, whichever is later, while no
        frame is below the floor those seals leave."""
        floor = -_BIG if self._floor is None else self._floor
        marks = np.maximum.accumulate(t)
        if self._watermark is not None:
            np.maximum(marks, self._watermark, out=marks)
        taken = index >= floor
        at, end = np.flatnonzero(taken), len(t)
        # Frames in window order from the highest pending window on: no
        # seal within the pass can make one of them late.
        if not (index[0] >= self._top and (index[1:] >= index[:-1]).all()):
            pending = self._indices()
            windows, where = np.unique(np.concatenate((pending, index[at])),
                                       return_index=True)
            seal = np.maximum(np.append(np.full(len(pending), -1), at)[where],
                              np.searchsorted(marks, self._seal_time(windows)))
            rises = np.full(len(t) + 1, floor)
            np.maximum.at(rises, np.minimum(seal + 1, len(t)), windows + 1)
            late = np.flatnonzero(taken & (index < np.maximum.accumulate(
                rises)[:-1]))
            end = int(late[0]) if len(late) else len(t)
        self.late_dropped += end - int(np.count_nonzero(taken[:end]))
        self._buffer(block, first, at[: np.searchsorted(at, end)], index)
        # The latest frame is a taken one unless none is: a late frame
        # lies below the floor, and leaves the watermark where it was
        # (after a flush it may lie above it).
        last = int(np.argmax(t[:end]))
        if taken[last] and (self._watermark is None
                            or t[last] > self._watermark):
            self._watermark = block.columns[0][first + last]
        if marks[end - 1] >= self._seal_at:
            # Due: the windows whose seal time the watermark passed.
            keys = self._indices()
            times = self._seal_time(keys)
            due = times <= marks[end - 1]
            sealed += self._seal(sorted(keys[due].tolist()))
            self._seal_at = float(times[~due].min(initial=math.inf))
        return end

    def _indices(self):
        """The pending window indices: the one read of them all that a
        pass makes, and only to seal or to place frames out of order."""
        return np.fromiter(self._pending, np.int64, len(self._pending))

    def _buffer(self, block, first, positions, index):
        """Frames ``first + positions`` into windows ``index[positions]``."""
        index = index[positions]
        if (index[1:] < index[:-1]).any():
            order = np.argsort(index, kind="stable")
            index, positions = index[order], positions[order]
        if not len(index):
            return
        cuts = [0, *(np.flatnonzero(np.diff(index)) + 1).tolist(), len(index)]
        for lo, hi in zip(cuts, cuts[1:]):
            run = positions[lo:hi] + first
            if run[-1] - run[0] == hi - lo - 1:
                run = range(int(run[0]), int(run[-1]) + 1)
            self._pending.setdefault(int(index[lo]), []).append((block, run))
        self._top = max(self._top, int(index[-1]))
        self._seal_at = min(self._seal_at, self._seal_time(int(index[0])))

    def _seal_time(self, index):
        """The watermark at which window *index* seals: its end + grace."""
        return (self._origin + (index + 1) * self.window_seconds
                + self.grace_seconds)

    def _seal(self, indices):
        """Seal the pending windows *indices* (increasing)."""
        sealed = [(index, Window(self._pending.pop(index)))
                  for index in indices]
        if sealed:
            self._floor = sealed[-1][0] + 1
        return sealed

    def flush(self):
        """Seal every pending window in index order (drain / shutdown)."""
        return self._seal(sorted(self._pending))

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
        """Snapshot of sealing progress and of the buffered frames: one
        block of them (a slice of one where they are contiguous), window
        by window in index order, and each one's window index."""
        windows = sorted(self._pending.items())
        parts = [part for _index, parts in windows for part in parts]
        return {
            "format": ASSEMBLER_STATE_FORMAT,
            "window_seconds": self.window_seconds,
            "grace_seconds": self.grace_seconds,
            "origin": self._origin,
            "watermark": self._watermark,
            "floor": self._floor,
            "late_dropped": self.late_dropped,
            "pending": {
                "frames": joined(parts) if parts else ColumnarPartition(
                    [[] for _name in BYTE_RECORD_COLUMNS], 0),
                "windows": np.repeat(
                    np.array([index for index, _parts in windows], np.int64),
                    [sum(len(p) for _b, p in parts) for _i, parts in windows],
                ),
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
        frames = _state_field(pending, "frames", ColumnarPartition)
        windows = np.asarray(_state_field(pending, "windows",
                                          (list, np.ndarray)))
        if len(windows) != len(frames) or not _holds_byte_records(frames) \
                or len(windows) and (windows.dtype.kind != "i"
                                     or (np.diff(windows) < 0).any()):
            raise StreamError("pending frames are not byte records with a "
                              "finite timestamp and a bytes payload, with "
                              "one integer window each, in window order")
        cuts = [0, *(np.flatnonzero(np.diff(windows)) + 1).tolist(),
                len(windows)]
        for lo, hi in zip(cuts, cuts[1:]) if len(windows) else ():
            assembler._pending[int(windows[lo])] = [(frames, range(lo, hi))]
        if len(windows):
            if None in (assembler._origin, assembler._watermark):
                raise StreamError("pending windows without an origin and a "
                                  "watermark")
            assembler._top = int(windows[-1])
            assembler._seal_at = assembler._seal_time(int(windows[0]))
        return assembler


class Window:
    """A sealed window: its frames' ``(block, positions)`` parts."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = parts

    def __len__(self):
        return sum(len(positions) for _block, positions in self.parts)

    def to_rows(self):
        return joined(self.parts).to_rows()


def joined(parts):
    """One partition of ``(block, positions)`` parts: a slice of one
    block where they are contiguous in it, else slices and gathers
    concatenated."""
    merged = []
    for block, positions in parts:
        last = merged[-1] if merged else (None, None)
        if last[0] is block and isinstance(positions, range) \
                and isinstance(last[1], range) \
                and last[1].stop == positions.start:
            merged[-1] = (block, range(last[1].start, positions.stop))
        else:
            merged.append((block, positions))
    blocks = [
        block.slice(positions.start, positions.stop)
        if isinstance(positions, range) else block.gather(positions)
        for block, positions in merged
    ]
    return blocks[0] if len(blocks) == 1 else ColumnarPartition.concat(blocks)


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

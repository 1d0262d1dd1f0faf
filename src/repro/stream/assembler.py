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
"""

from __future__ import annotations

import math

from repro.core.incremental import _state_field, window_index
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
        if window_seconds <= 0:
            raise StreamError("window_seconds must be positive")
        if grace_seconds < 0:
            raise StreamError("grace_seconds must not be negative")
        self.window_seconds = float(window_seconds)
        self.grace_seconds = float(grace_seconds)
        self._origin = None
        self._watermark = None
        self._pending = {}  # window index -> [frames in arrival order]
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
        """Buffer one frame; :meth:`add_chunk` of a chunk of one."""
        return self.add_chunk((frame,))

    def add_chunk(self, frames):
        """Buffer *frames* in arrival order; returns the windows sealed.

        Every frame is adjudicated exactly as if it had arrived alone --
        a window sealed by an earlier frame of the chunk is closed to a
        later one -- but sealable windows are looked for only once the
        watermark has reached the lowest pending window's seal time.

        The return value is a list of ``(window_index, frames)`` pairs
        in strictly increasing index order, each holding the window's
        frames in arrival order (the consumer sorts by timestamp; see
        ``IncrementalRunner.process_window``). A timestamp no window can
        hold (``nan``, ``inf``) raises :class:`FrameRejected` carrying
        the frame's position in *frames*; the frames before it stay
        buffered.
        """
        sealed = []
        pending = self._pending
        for position, frame in enumerate(frames):
            t = frame[0]
            origin = t if self._origin is None else self._origin
            try:
                index = window_index(t, origin, self.window_seconds)
            except (ValueError, OverflowError):
                raise FrameRejected(position, (
                    "timestamp {!r} is not a finite offset from the "
                    "stream origin".format(t)
                )) from None
            self._origin = origin
            if self._floor is not None and index < self._floor:
                self.late_dropped += 1
                continue
            if index not in pending:
                pending[index] = []
                self._seal_at = min(self._seal_at, self._seal_time(index))
            pending[index].append(frame)
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
            sealed.append((index, self._pending.pop(index)))
            self._floor = index + 1
        else:
            self._seal_at = math.inf
        return sealed

    def flush(self):
        """Seal every pending window in index order (drain / shutdown)."""
        sealed = [
            (index, self._pending.pop(index))
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
        return sum(len(rows) for rows in self._pending.values())

    @property
    def watermark(self):
        return self._watermark

    # -- checkpoint ------------------------------------------------------
    def export_state(self):
        """Picklable snapshot of buffered frames and sealing progress."""
        return {
            "format": ASSEMBLER_STATE_FORMAT,
            "window_seconds": self.window_seconds,
            "grace_seconds": self.grace_seconds,
            "origin": self._origin,
            "watermark": self._watermark,
            "floor": self._floor,
            "late_dropped": self.late_dropped,
            "pending": {
                index: list(rows) for index, rows in self._pending.items()
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
            for frame in _state_field(pending, index, list):
                if not _is_byte_record(frame):
                    raise StreamError(
                        "pending window {} holds {!r}, which is not a byte "
                        "record with a finite timestamp and a bytes "
                        "payload".format(index, frame)
                    )
            assembler._pending[index] = list(pending[index])
        if pending:
            if assembler._origin is None or assembler._watermark is None:
                raise StreamError(
                    "pending windows without an origin and a watermark"
                )
            assembler._seal_at = assembler._seal_time(min(pending))
        return assembler


def _is_byte_record(frame):
    """``(t, l, b_id, m_id, m_info)``, ``t`` a finite number, ``l`` bytes."""
    return (
        isinstance(frame, tuple)
        and len(frame) == len(BYTE_RECORD_COLUMNS)
        and type(frame[0]) in (int, float)
        and math.isfinite(frame[0])
        and isinstance(frame[1], bytes)
    )

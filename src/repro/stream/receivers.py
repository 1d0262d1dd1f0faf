"""Frame sources and the per-vehicle delivery loop.

A :class:`FrameSource` serves each channel's frames in a deterministic
order from a cursor; :func:`deliver` merges one vehicle's channels into
a single event-time-ordered stream and awaits the owning session's
bounded queue once per chunk of it. Backpressure is therefore scoped
exactly as the service requires -- a slow vehicle session fills its own
queue and stalls only its own delivery loop; other vehicles never wait
on it.

:class:`ReplaySource` is the bundled transport: pre-recorded (or
simulated) byte records served per channel in timestamp order, with
cursor-based resume so a restarted service can replay exactly the
frames no checkpoint had covered.
"""

from __future__ import annotations

import heapq
from itertools import islice, repeat
from operator import itemgetter

from repro.stream.errors import StreamError


class FrameSource:
    """Transport abstraction: per-channel ordered frame streams.

    Implementations expose the channels they carry and an iterator over
    one channel's frames starting at a cursor. Frames are byte-record
    tuples ``(t, l, b_id, m_id, m_info)``; within one channel they must
    be served in a deterministic order (time order for replays), which
    is what makes per-channel cursors exact replay positions.
    """

    def channels(self):
        raise NotImplementedError

    def frames(self, channel, start=0):
        raise NotImplementedError


class ReplaySource(FrameSource):
    """In-memory per-channel replay of a recorded journey."""

    def __init__(self, records):
        self._by_channel = {}
        for record in sorted(records, key=itemgetter(0)):
            self._by_channel.setdefault(record[2], []).append(record)

    def channels(self):
        return sorted(self._by_channel, key=str)

    def frames(self, channel, start=0):
        if channel not in self._by_channel:
            raise StreamError("source carries no channel {!r}".format(channel))
        if start < 0:
            raise StreamError("cursor must not be negative")
        return iter(self._by_channel[channel][start:])


def _delivery_key(item):
    channel, frame = item
    return frame[0], str(channel)


async def deliver(source, cursor, budget, queue, chunk_frames=1):
    """One vehicle's delivery loop: merge the channels, feed the queue.

    The channels are merged, each from ``cursor(channel)`` (the frames
    of it already ingested), into one stream ordered by ``(t,
    str(channel))`` -- stable within a channel; channels whose names tie
    keep ``source.channels()`` order. Delivery order is thus a pure
    function of the recorded data and the cursors: kill-and-resume
    replays a multi-channel source exactly, and no channel can run
    ahead of another in event time and turn scheduling into late drops.

    The merged stream is handed over in chunks: lists of up to
    *chunk_frames* ``(channel, frame)`` pairs, one ``await queue.put``
    each -- the bounded queue is the backpressure boundary and stalls
    this vehicle only. A chunk takes its length from the shared
    *budget* and is cut where the budget ends, so a kill still lands on
    the exact frame. The loop ends by putting ``None``; it returns True
    when the source was exhausted, False when the budget ran out first.
    """
    streams = [
        zip(repeat(channel), source.frames(channel, cursor(channel)))
        for channel in source.channels()
    ]
    merged = heapq.merge(*streams, key=_delivery_key)
    exhausted = True
    while chunk := list(islice(merged, chunk_frames)):
        granted = budget.take(len(chunk))
        if granted:
            await queue.put(chunk[:granted])
        if granted < len(chunk):
            exhausted = False
            break
    await queue.put(None)
    return exhausted


class FrameBudget:
    """A shared, decrementing frame allowance (the mid-stream kill).

    ``take(n)`` grants up to *n* frames -- all of them until the budget
    is spent, then what is left, then none; every delivery loop stops
    before delivering a frame it was not granted, emulating a service
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

    @property
    def exhausted(self):
        return self.limit is not None and self.spent >= self.limit

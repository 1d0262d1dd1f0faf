"""Frame sources and the per-vehicle delivery loop.

A :class:`FrameSource` serves each channel's frames in a deterministic
order from a cursor; :func:`deliver` merges one vehicle's channels into
a single event-time-ordered stream and awaits the owning session's
bounded queue for every frame. Backpressure is therefore scoped exactly
as the service requires -- a slow vehicle session fills its own queue
and stalls only its own delivery loop; other vehicles never wait on it.

:class:`ReplaySource` is the bundled transport: pre-recorded (or
simulated) byte records served per channel in timestamp order, with
cursor-based resume so a restarted service can replay exactly the
frames no checkpoint had covered.
"""

from __future__ import annotations

import heapq
from itertools import repeat

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
        for record in sorted(records, key=lambda r: (r[0],)):
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


async def deliver(source, cursor, budget, queue):
    """One vehicle's delivery loop: merge the channels, feed the queue.

    The channels are merged, each from ``cursor(channel)`` (the frames
    of it already ingested), into one stream ordered by ``(t,
    str(channel))`` -- stable within a channel; channels whose names tie
    keep ``source.channels()`` order. Delivery order is thus a pure
    function of the recorded data and the cursors: kill-and-resume
    replays a multi-channel source exactly, and no channel can run
    ahead of another in event time and turn scheduling into late drops.

    Every frame takes one unit of the shared *budget* and awaits
    ``queue.put((channel, frame))`` -- the bounded queue is the
    backpressure boundary and stalls this vehicle only. The loop ends
    by putting ``None``; it returns True when the source was exhausted,
    False when the budget ran out first.
    """
    streams = [
        zip(repeat(channel), source.frames(channel, cursor(channel)))
        for channel in source.channels()
    ]
    exhausted = True
    for item in heapq.merge(*streams, key=_delivery_key):
        if not budget.take():
            exhausted = False
            break
        await queue.put(item)
    await queue.put(None)
    return exhausted


class FrameBudget:
    """A shared, decrementing frame allowance (the mid-stream kill).

    ``take`` grants one frame until the budget is spent; afterwards
    every delivery loop stops before delivering another frame, emulating
    a service killed part-way through the day's traffic.
    """

    def __init__(self, limit):
        if limit is not None and limit < 0:
            raise StreamError("frame budget must not be negative")
        self.limit = limit
        self.spent = 0

    def take(self):
        if self.limit is None:
            self.spent += 1
            return True
        if self.spent >= self.limit:
            return False
        self.spent += 1
        return True

    @property
    def exhausted(self):
        return self.limit is not None and self.spent >= self.limit

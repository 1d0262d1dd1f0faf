"""The always-on asyncio ingest service.

:class:`StreamIngestService` wires the pieces of this package into the
long-running shape the paper's fleet capture implies: per vehicle one
delivery loop (the event-time merge of its channels), one bounded
asyncio queue and one ingest loop draining it into the session;
periodic state checkpoints appended to one log per session
(:mod:`repro.stream.checkpoint`); and ``stream.*`` metrics for all of
it.

Durability contract
-------------------
A checkpoint is a consistent record *between* frame ingests: with the
records before it, it names the per-channel replay cursors and carries
every byte of runner and assembler state those cursors imply -- every
window sealed so far is processed before the record is made. Killing
the service at an arbitrary committed checkpoint, restarting, and
replaying each channel's undelivered frames therefore yields
``finalize()`` output byte-identical to a run that was never
interrupted. Frames ingested after the last commit are simply
re-delivered on resume -- the source's per-channel ordering and the
merge make the replay exact, and ``stream.resume.frames_skipped`` /
``stream.frames_received`` make the re-delivery count observable.

Backpressure
------------
A delivery loop awaits ``queue.put`` on its own session's bounded
queue, once per chunk of up to ``queue_capacity`` frames. A slow
session stalls exactly the loop feeding it; every other vehicle keeps
draining its source.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from repro.obs import MetricsRegistry
from repro.stream.checkpoint import StreamCheckpointer
from repro.stream.errors import StreamError
from repro.stream.receivers import FrameBudget, deliver, merge
from repro.stream.session import VehicleSession


@dataclass(frozen=True)
class StreamConfig:
    """Operating knobs of one service instance.

    ``checkpoint_every`` is the per-session checkpoint cadence in
    ingested frames (0 disables periodic commits; the drain commit is
    always made). ``queue_capacity`` bounds the frames queued per
    session -- the backpressure boundary -- and is the most frames a
    delivery loop hands over at once; 1 is a frame-by-frame service.
    """

    window_seconds: float = 1.0
    grace_seconds: float = 0.5
    queue_capacity: int = 64
    checkpoint_every: int = 200

    def __post_init__(self):
        if not self.window_seconds > 0:
            raise StreamError("window_seconds must be positive")
        if not self.grace_seconds >= 0:
            raise StreamError("grace_seconds must not be negative")
        if self.queue_capacity < 1:
            raise StreamError("queue_capacity must be at least 1")
        if self.checkpoint_every < 0:
            raise StreamError("checkpoint_every must not be negative")


@dataclass
class ServeResult:
    """Outcome of one :meth:`StreamIngestService.serve` call."""

    killed: bool
    frames_delivered: int
    sessions: dict = field(default_factory=dict)  # vehicle_id -> summary


class StreamIngestService:
    """Per-vehicle delivery loops feeding checkpointed sessions.

    A session keeps the windows its chunks seal; the service settles
    them -- one lines 3-11 call for all of them -- right before each
    commit, outside the commit's stopwatch, and at drain. With
    ``checkpoint_every=0`` there is no periodic commit, and it settles
    after every chunk instead, so sealed windows never pile up.
    """

    def __init__(self, run_dir, stream_config=None, metrics=None):
        self.config = stream_config or StreamConfig()
        self.checkpointer = StreamCheckpointer(run_dir)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.sessions = {}  # vehicle_id -> VehicleSession
        self._sources = {}  # vehicle_id -> FrameSource
        self.resumed = {}  # vehicle_id -> frames skipped via checkpoint

    # -- topology --------------------------------------------------------
    def add_vehicle(self, vehicle_id, source, pipeline_config, context):
        """Register one vehicle's source + pipeline parameterization.

        When the run directory holds a session log for this vehicle the
        session resumes from its last whole record: delivery will start at
        the checkpointed per-channel cursors and the skipped-frame
        count is recorded in ``stream.resume.frames_skipped``.
        """
        if vehicle_id in self.sessions:
            raise StreamError(
                "vehicle {!r} already registered".format(vehicle_id)
            )
        session = self.checkpointer.load_session(
            vehicle_id, pipeline_config, context, metrics=self.metrics
        )
        if session is None:
            session = VehicleSession(
                vehicle_id,
                pipeline_config,
                context,
                self.config.window_seconds,
                self.config.grace_seconds,
                metrics=self.metrics,
            )
        else:
            skipped = sum(session.channel_cursors.values())
            self.resumed[vehicle_id] = skipped
            self.metrics.inc("stream.resume.sessions")
            self.metrics.inc("stream.resume.frames_skipped", skipped)
        self.sessions[vehicle_id] = session
        self._sources[vehicle_id] = source
        self.metrics.set_gauge("stream.sessions.active", len(self.sessions))
        return session

    # -- the delivery/ingest loops ---------------------------------------
    async def serve(self, max_frames=None):
        """Run until every source drains (or *max_frames* kills it).

        *max_frames*, when given, is a shared delivery budget across
        all vehicles: once spent, every delivery loop stops before
        delivering another frame -- the controlled stand-in for a
        service process killed mid-stream. Exactly *max_frames* frames
        are delivered in total; how they split between vehicles is
        scheduling, not contract. No drain or final checkpoint
        happens for killed sessions; their last *committed* periodic
        record is the resume point, exactly as after a real crash.
        """
        if not self.sessions:
            raise StreamError("no vehicles registered")
        budget = FrameBudget(max_frames)
        vehicles = sorted(self.sessions.items(), key=lambda kv: str(kv[0]))
        # Vehicles share the budget and nothing else: each has its own
        # delivery loop and queue and never paces another.
        exhausted = await asyncio.gather(
            *(self._run_vehicle(*vehicle, budget) for vehicle in vehicles)
        )
        return ServeResult(
            killed=not all(exhausted),
            frames_delivered=budget.spent,
            sessions={
                vehicle_id: self._session_summary(session)
                for vehicle_id, session in vehicles
            },
        )

    async def _run_vehicle(self, vehicle_id, session, budget):
        """One vehicle: the delivery loop + the queue-draining ingest loop.

        Returns whether the vehicle's source was exhausted (not killed).
        """
        # One chunk of up to queue_capacity frames may wait in the queue:
        # that many frames queued per vehicle, never more.
        queue = asyncio.Queue(maxsize=1)
        try:
            frames = merge(self._sources[vehicle_id], session.cursor)
        except StreamError as exc:
            raise StreamError("vehicle {!r}, {}".format(vehicle_id, exc))
        delivery = asyncio.ensure_future(deliver(
            frames, budget, queue, self.config.queue_capacity
        ))
        depth_gauge = "stream.queue.depth.{}".format(vehicle_id)
        high_water = self.metrics.gauge(
            "stream.queue.high_water.{}".format(vehicle_id)
        )
        cadence = self.config.checkpoint_every
        self.metrics.set_gauge(depth_gauge, 0)
        try:
            while (chunk := await queue.get()) is not None:
                high_water.set_max(len(chunk))
                self.metrics.observe(
                    "stream.ingest.chunk_frames", len(chunk)
                )
                while chunk:
                    # Cut at the next multiple of the cadence, so
                    # commits are made at the frame counts a
                    # frame-by-frame service takes them at.
                    room = len(chunk)
                    if cadence:
                        room = cadence - session.frames_ingested % cadence
                    session.ingest(chunk[:room])
                    chunk = chunk[room:] if room < len(chunk) else ()
                    self.metrics.set_gauge(depth_gauge, len(chunk))
                    # The windows sealed since the last commit are
                    # processed at once; outside the commit's stopwatch.
                    if not cadence or session.frames_ingested % cadence == 0:
                        session.settle()
                        if cadence:
                            self.checkpointer.save_session(
                                session, self.metrics
                            )
            exhausted = await delivery
        finally:
            # A session that refused a frame leaves its loop blocked on
            # the queue; a finished one ignores the cancel.
            delivery.cancel()
        if exhausted and not session.drained:
            # Clean end of stream: seal whatever the grace period was
            # still holding back, then commit the drained state. A
            # session resumed drained has committed it already.
            session.drain()
            self.checkpointer.save_session(session, self.metrics)
        return exhausted

    # -- terminal --------------------------------------------------------
    def finalize_all(self):
        """Finalize every drained session; {vehicle_id: IncrementalResult}.

        Only valid after a clean (non-killed) :meth:`serve`; a killed
        service must be resumed first so no delivered-but-uncommitted
        frames are lost.
        """
        out = {}
        for vehicle_id, session in sorted(
            self.sessions.items(), key=lambda kv: str(kv[0])
        ):
            if not session.drained:
                raise StreamError(
                    "session {!r} not drained; resume the stream before "
                    "finalizing".format(vehicle_id)
                )
            out[vehicle_id] = session.finalize()
        return out

    def _session_summary(self, session):
        return {
            "frames_ingested": session.frames_ingested,
            "windows_sealed": session.windows_sealed,
            "late_dropped": session.late_dropped,
            "pending_windows": session.assembler.pending_windows,
            "pending_frames": session.assembler.pending_frames,
            "drained": session.drained,
            "resumed_from": self.resumed.get(session.vehicle_id, 0),
        }

"""The stream ingest service.

:class:`StreamIngestService` wires the pieces of this package into the
shape the paper's fleet capture implies: per vehicle one session fed
the event-time merge of its channels; periodic state checkpoints
appended to one log per session (:mod:`repro.stream.checkpoint`); and
``stream.*`` metrics for all of it. Every source is a recording, so
serving is one loop: each vehicle's frames are replayed straight into
its session.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs import MetricsRegistry
from repro.stream.checkpoint import StreamCheckpointer
from repro.stream.errors import StreamError
from repro.stream.receivers import FrameBudget, merge
from repro.stream.session import VehicleSession


@dataclass(frozen=True)
class StreamConfig:
    """Operating knobs of one service instance.

    ``checkpoint_every`` is the per-session checkpoint cadence in
    ingested frames (0 disables periodic commits; the drain commit is
    always made).
    """

    window_seconds: float = 1.0
    grace_seconds: float = 0.5
    checkpoint_every: int = 200

    def __post_init__(self):
        if not self.window_seconds > 0:
            raise StreamError("window_seconds must be positive")
        if not self.grace_seconds >= 0:
            raise StreamError("grace_seconds must not be negative")
        if self.checkpoint_every < 0:
            raise StreamError("checkpoint_every must not be negative")


@dataclass
class ServeResult:
    """Outcome of one :meth:`StreamIngestService.serve` call."""

    killed: bool
    frames_delivered: int
    sessions: dict = field(default_factory=dict)  # vehicle_id -> summary


class StreamIngestService:
    """Recorded per-vehicle sources replayed into checkpointed sessions.

    A session keeps the windows its slices seal; the service settles
    them -- one lines 3-11 call for all of them -- right before each
    commit, outside the commit's stopwatch, and at drain. With
    ``checkpoint_every=0`` there is no periodic commit: a vehicle's
    granted frames are one slice, settled once.
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
        count is recorded in ``stream.resume.frames_skipped``. A log
        made under another ``window_seconds`` or ``grace_seconds`` than
        this service's is a :class:`StreamError`: its windows are not
        the ones this service would seal.
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
            logged = (session.assembler.window_seconds,
                      session.assembler.grace_seconds)
            wanted = (self.config.window_seconds, self.config.grace_seconds)
            if logged != wanted:
                raise StreamError(
                    "vehicle {!r}: its log was made with window_seconds={}, "
                    "grace_seconds={}, not the window_seconds={}, "
                    "grace_seconds={} of this service".format(
                        vehicle_id, *logged, *wanted
                    )
                )
            skipped = sum(session.channel_cursors.values())
            self.resumed[vehicle_id] = skipped
            self.metrics.inc("stream.resume.sessions")
            self.metrics.inc("stream.resume.frames_skipped", skipped)
        self.sessions[vehicle_id] = session
        self._sources[vehicle_id] = source
        self.metrics.set_gauge("stream.sessions.active", len(self.sessions))
        return session

    # -- the replay loop --------------------------------------------------
    async def serve(self, max_frames=None):
        """Replay every vehicle's frames into its session, vehicle after
        vehicle in ``str(vehicle_id)`` order, until each source is
        exhausted (or *max_frames* kills the service).

        A vehicle's frames past its session's cursors (:func:`merge`)
        are ingested in slices that end at each multiple of
        ``checkpoint_every``, where the session settles and commits; an
        exhausted source is drained and committed.

        *max_frames*, when given, is a delivery budget shared by all
        vehicles -- the controlled stand-in for a service process killed
        mid-stream. Exactly *max_frames* frames are delivered in total,
        granted to the vehicles in id order. No drain or final
        checkpoint happens for killed sessions; their last *committed*
        periodic record is the resume point, exactly as after a real
        crash.

        The body awaits nothing: a replay has nothing to wait for. It
        is a coroutine so that callers run it under ``asyncio.run``, as
        they would a service whose live source brings its own loop.
        """
        if not self.sessions:
            raise StreamError("no vehicles registered")
        budget = FrameBudget(max_frames)
        cadence = self.config.checkpoint_every
        vehicles = sorted(self.sessions.items(), key=lambda kv: str(kv[0]))
        killed = False
        for vehicle_id, session in vehicles:
            try:
                frames = merge(self._sources[vehicle_id], session.cursor)
            except StreamError as exc:
                raise StreamError("vehicle {!r}, {}".format(vehicle_id, exc))
            granted = budget.take(len(frames))
            start = 0
            while start < granted:
                # Cut at the next multiple of the cadence, so commits are
                # made at the frame counts a frame-by-frame service
                # takes them at.
                stop = granted
                if cadence:
                    stop = min(stop, start + cadence
                               - session.frames_ingested % cadence)
                session.ingest(frames[start:stop])
                start = stop
                if not cadence or session.frames_ingested % cadence == 0:
                    # The windows sealed since the last commit are
                    # processed at once; outside the commit's stopwatch.
                    session.settle()
                    if cadence:
                        self.checkpointer.save_session(session, self.metrics)
            if granted < len(frames):
                killed = True
            elif not session.drained:
                # Clean end of stream: seal whatever the grace period was
                # still holding back, then commit the drained state. A
                # session resumed drained has committed it already.
                session.drain()
                self.checkpointer.save_session(session, self.metrics)
        return ServeResult(
            killed=killed,
            frames_delivered=budget.spent,
            sessions={
                vehicle_id: self._session_summary(session)
                for vehicle_id, session in vehicles
            },
        )

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

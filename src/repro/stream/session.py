"""Per-vehicle ingest sessions: an IncrementalRunner behind a window
assembler.

A :class:`VehicleSession` is the state machine at the heart of the
streaming service: slices of frames go in as packed columns
(:class:`~repro.stream.receivers.Frames`, each frame tagged with the
channel that received it) and sealed windows come out. The session keeps
them until :meth:`~VehicleSession.settle`, which feeds all of them, in
index order, to the session's
:class:`~repro.core.incremental.IncrementalRunner` as one columnar
partition: one lines 3-11 call per batch of windows, not per window.
Windows partition time and seal in index order, so the batch is the
time-ordered union that
:meth:`~repro.core.incremental.IncrementalRunner.process_window` reduces
exactly as it reduces each window in turn (the windowed-equals-whole
guarantee); only a config with an aggregation marker keeps one call per
window.

Delivery accounting is per channel: the session records how many frames
of each channel's (deterministically ordered) stream it has fully
ingested. A checkpoint therefore names the exact replay position per
channel, and a restored session fed the remaining frames produces
byte-identical ``finalize()`` output to a session that was never
interrupted -- the streaming extension of the windowed-equals-whole
guarantee.
"""

from __future__ import annotations

import numpy as np

from repro.core.incremental import IncrementalRunner, _state_field
from repro.core.reduction import OutsideQuantileRange
from repro.engine.errors import ExecutionError
from repro.protocols.frames import BYTE_RECORD_COLUMNS
from repro.stream.assembler import FrameRejected, WindowAssembler, joined
from repro.stream.errors import StreamError

#: Schema tag of :meth:`VehicleSession.export_state` payloads.
SESSION_STATE_FORMAT = "repro.stream-session/1"


def _aggregates(config):
    """Whether a marker of *config* decides over all the rows one call
    hands it (:class:`~repro.core.reduction.OutsideQuantileRange`): no
    carry makes it window-invariant, so its windows go to the runner one
    per call, as a batch caller's :func:`split_into_windows
    <repro.core.incremental.split_into_windows>` windows do."""
    return any(isinstance(function, OutsideQuantileRange)
               for constraint in config.constraints if constraint.enabled
               for function in constraint.functions)


class VehicleSession:
    """One vehicle's always-on windowed pipeline execution."""

    def __init__(self, vehicle_id, config, context, window_seconds,
                 grace_seconds=0.0, metrics=None):
        self.vehicle_id = vehicle_id
        self.config = config
        self.context = context
        self.metrics = metrics
        self.runner = IncrementalRunner(config)
        self.assembler = WindowAssembler(window_seconds, grace_seconds)
        #: Frames fully ingested per channel -- the replay cursor.
        self.channel_cursors = {}
        self.windows_sealed = 0
        self.frames_ingested = 0
        self._drained = False
        #: The windows sealed since the last settle.
        self._sealed = []

    # -- ingestion -------------------------------------------------------
    def ingest(self, frames):
        """Ingest :class:`~repro.stream.receivers.Frames` in arrival
        order; returns how many windows they sealed.

        The sealed windows are counted here and processed at the next
        :meth:`settle` (or :meth:`export_state`, :meth:`drain`): a
        caller that settles once per commit interval pays lines 3-11
        once per interval. A frame whose timestamp no window can hold is
        a :class:`StreamError` naming the vehicle, the channel and the
        frame's ordinal in that channel; the session is not usable
        afterwards."""
        if self._drained:
            raise StreamError(
                "session {!r} already drained".format(self.vehicle_id)
            )
        before = self.assembler.late_dropped
        codes = frames.codes
        try:
            sealed = self.assembler.add_chunk(
                frames.block, frames.start, frames.start + len(frames)
            )
        except FrameRejected as exc:
            code = codes[exc.position]
            channel = frames.channels[code]
            ordinal = self.cursor(channel) + \
                int(np.count_nonzero(codes[:exc.position] == code))
            raise StreamError(
                "vehicle {!r}, channel {!r}, frame {}: {}".format(
                    self.vehicle_id, channel, ordinal, exc
                )
            ) from None
        # Count a frame as delivered even when it was a late drop: the
        # cursor tracks transport delivery, not window acceptance, so a
        # resumed delivery never repeats a frame the assembler has
        # already adjudicated.
        counts = np.bincount(codes, minlength=len(frames.channels)).tolist()
        for code in dict.fromkeys(codes.tolist()):
            channel = frames.channels[code]
            self.channel_cursors[channel] = self.cursor(channel) + counts[code]
            if self.metrics is not None:
                self.metrics.inc(
                    "stream.frames_received.{}".format(channel), counts[code]
                )
        self.frames_ingested += len(frames)
        if self.metrics is not None:
            self.metrics.inc("stream.frames_received", len(frames))
            late = self.assembler.late_dropped - before
            if late:
                self.metrics.inc("stream.late_dropped", late)
        self._keep(sealed)
        return len(sealed)

    def _keep(self, sealed):
        self._sealed.extend(window for _index, window in sealed)
        self.windows_sealed += len(sealed)
        if self.metrics is not None and sealed:
            self.metrics.inc("stream.windows_sealed", len(sealed))

    def settle(self):
        """Process every window sealed since the last settle, as one
        :meth:`~repro.core.incremental.IncrementalRunner.process_window`
        call (one per window for a config with an aggregation marker);
        returns how many windows that was. On a time-ordered delivery
        the windows are one range of the delivery block: one slice."""
        sealed, self._sealed = self._sealed, []
        if _aggregates(self.config):
            batches = [[window] for window in sealed]
        else:
            batches = [sealed] if sealed else []
        for batch in batches:
            # Frames go in in arrival order: the runner puts every
            # sequence into the canonical order itself, with the function
            # the whole-trace pipeline uses, so intra-window disorder is
            # invisible. A batch is one partition: one lines 2-6 task.
            table = self.context.table_from_columnar(
                list(BYTE_RECORD_COLUMNS),
                [joined([part for window in batch for part in window.parts])],
            )
            try:
                self.runner.process_window(table)
            except ExecutionError as exc:
                # The vehicle's frames failed lines 3-11 (a payload too
                # short under short_payload="raise"): say whose.
                raise ExecutionError("vehicle {!r}: {}".format(
                    self.vehicle_id, exc.cause or exc), exc.cause) from exc
        return len(sealed)

    def drain(self):
        """Seal and process every buffered window (source exhausted)."""
        if self._drained:
            return 0
        sealed = self.assembler.flush()
        self._keep(sealed)
        self.settle()
        self._drained = True
        return len(sealed)

    def finalize(self):
        """Terminal: classification, branches, extensions and the merge."""
        if not self._drained:
            self.drain()
        return self.runner.finalize(self.context)

    # -- introspection ---------------------------------------------------
    @property
    def drained(self):
        return self._drained

    @property
    def late_dropped(self):
        return self.assembler.late_dropped

    def cursor(self, channel):
        """Frames of *channel* already ingested (the replay position)."""
        return self.channel_cursors.get(channel, 0)

    # -- checkpoint ------------------------------------------------------
    def export_state(self):
        """Snapshot: runner state + assembler state + cursors. Settles
        first, so no sealed window is left out of it."""
        self.settle()
        return {
            "format": SESSION_STATE_FORMAT,
            "vehicle_id": self.vehicle_id,
            "channel_cursors": dict(self.channel_cursors),
            "windows_sealed": self.windows_sealed,
            "frames_ingested": self.frames_ingested,
            "drained": self._drained,
            "runner": self.runner.export_state(),
            "assembler": self.assembler.export_state(),
        }

    @classmethod
    def from_state(cls, payload, config, context, metrics=None):
        """Rebuild a session from an :meth:`export_state` payload.

        The payload comes from disk: a missing or ill-typed field, here
        or in the nested runner and assembler payloads, raises
        :class:`~repro.core.incremental.IncrementalError` naming it.
        """
        if not isinstance(payload, dict) or payload.get("format") != \
                SESSION_STATE_FORMAT:
            raise StreamError("not a vehicle-session state payload")
        session = cls.__new__(cls)
        session.vehicle_id = _state_field(payload, "vehicle_id", object)
        session.config = config
        session.context = context
        session.metrics = metrics
        session.runner = IncrementalRunner.from_state(
            config, _state_field(payload, "runner", dict)
        )
        session.assembler = WindowAssembler.from_state(
            _state_field(payload, "assembler", dict)
        )
        cursors = _state_field(payload, "channel_cursors", dict)
        for channel in cursors:
            if _state_field(cursors, channel, int) < 0:
                raise StreamError(
                    "cursor of channel {!r} is negative".format(channel)
                )
        session.channel_cursors = dict(cursors)
        session.windows_sealed = _state_field(payload, "windows_sealed", int)
        session.frames_ingested = _state_field(
            payload, "frames_ingested", int
        )
        session._drained = _state_field(payload, "drained", bool)
        session._sealed = []
        return session

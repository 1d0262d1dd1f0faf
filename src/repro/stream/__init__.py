"""repro.stream -- streaming ingest of fleet traffic.

The paper's operating point is continuous capture ("500 cars produce
1.5 TB per day"), yet until this package every entry point was a batch
caller. Here the windowed-equals-whole guarantee of
:mod:`repro.core.incremental` is put behind a checkpointed ingest
service; every source is a recording, replayed straight into its
vehicle's session:

* :mod:`repro.stream.assembler` -- the online form of
  :func:`~repro.core.incremental.split_into_windows`: frames are
  bucketed into fixed event-time windows, a window seals once the
  watermark passes its end plus a configurable late-arrival grace
  period, and frames for already-sealed windows are counted as late
  drops;
* :mod:`repro.stream.session` -- one :class:`VehicleSession` per
  vehicle wrapping an :class:`~repro.core.incremental.IncrementalRunner`
  behind a :class:`WindowAssembler`, with per-channel delivery cursors
  and a state snapshot;
* :mod:`repro.stream.receivers` -- :class:`FrameSource`,
  :class:`ReplaySource` and :func:`~repro.stream.receivers.merge`: the
  event-time merge of a vehicle's channels as packed columns, and the
  shared :class:`FrameBudget` that stands in for a mid-stream kill;
* :mod:`repro.stream.checkpoint` -- one append-only log of CRC'd
  records per session, each holding what changed since the one before,
  so a killed service resumes mid-stream and replay of undelivered
  frames yields byte-identical ``finalize()`` output to an
  uninterrupted run;
* :mod:`repro.stream.service` -- :class:`StreamIngestService`, one
  loop replaying each vehicle's frames into its session with periodic
  checkpoints and the ``stream.*`` metrics, plus the drain/finalize
  path the CLI and tests drive.
"""

from repro.stream.assembler import WindowAssembler
from repro.stream.checkpoint import (
    STREAM_MANIFEST_FILE,
    STREAM_STATE_FORMAT,
    StreamCheckpointer,
    session_job_id,
)
from repro.stream.errors import StreamError
from repro.stream.receivers import (
    FrameBudget,
    FrameSource,
    ReplaySource,
)
from repro.stream.service import ServeResult, StreamConfig, StreamIngestService
from repro.stream.session import VehicleSession

__all__ = [
    "FrameBudget",
    "FrameSource",
    "ReplaySource",
    "STREAM_MANIFEST_FILE",
    "STREAM_STATE_FORMAT",
    "ServeResult",
    "StreamCheckpointer",
    "StreamConfig",
    "StreamError",
    "StreamIngestService",
    "VehicleSession",
    "WindowAssembler",
    "session_job_id",
]

"""repro.stream -- always-on streaming ingest of live fleet traffic.

The paper's operating point is continuous capture ("500 cars produce
1.5 TB per day"), yet until this package every entry point was a batch
caller. Here the windowed-equals-whole guarantee of
:mod:`repro.core.incremental` is put behind a long-running asyncio
service:

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
* :mod:`repro.stream.receivers` -- :class:`FrameSource` and
  :func:`deliver`, the per-vehicle delivery loop: the event-time merge
  of a vehicle's channels as packed columns, handed to the owning
  session's bounded queue in chunks (backpressure stalls only the slow
  vehicle, never another);
* :mod:`repro.stream.checkpoint` -- one append-only log of CRC'd
  records per session, each holding what changed since the one before,
  so a killed service resumes mid-stream and replay of undelivered
  frames yields byte-identical ``finalize()`` output to an
  uninterrupted run;
* :mod:`repro.stream.service` -- :class:`StreamIngestService` wiring
  delivery loops, sessions, periodic checkpoints and the ``stream.*``
  metrics together, plus the drain/finalize path the CLI and tests
  drive.
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
    deliver,
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
    "deliver",
    "session_job_id",
]

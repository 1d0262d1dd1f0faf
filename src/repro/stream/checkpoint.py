"""Session-state checkpointing over :class:`repro.fleet.CheckpointStore`.

The fleet store already provides the durability contract the stream
service needs -- stage-to-hidden-sibling, atomic rename, kill-at-any-
instant leaves each checkpoint fully present or fully absent -- so
stream checkpoints are simply runner+assembler state payloads saved
under per-session job ids. Every save replaces the previous snapshot
atomically; a restart therefore resumes each session from its *last
committed* state and replays the frames past the per-channel cursors
recorded inside it.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.incremental import IncrementalError
from repro.fleet.catalog import atomic_write_text
from repro.fleet.checkpoint import CheckpointStore
from repro.obs import stopwatch
from repro.stream.errors import StreamError
from repro.stream.session import VehicleSession

#: Schema tag of the run-directory manifest written by ``stream serve``.
STREAM_STATE_FORMAT = "repro.stream/1"

#: Manifest file name inside a stream run directory.
STREAM_MANIFEST_FILE = "stream.json"

_JOB_PREFIX = "stream-session-"


def session_job_id(vehicle_id):
    """Checkpoint-store job id of one vehicle session."""
    return _JOB_PREFIX + str(vehicle_id)


class StreamCheckpointer:
    """Durable session snapshots + the run manifest of one directory."""

    def __init__(self, run_dir):
        self.root = Path(run_dir)
        self.store = CheckpointStore(run_dir)

    # -- manifest --------------------------------------------------------
    def write_manifest(self, manifest):
        payload = dict(manifest)
        payload["format"] = STREAM_STATE_FORMAT
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        return atomic_write_text(self.root / STREAM_MANIFEST_FILE, text)

    def read_manifest(self):
        path = self.root / STREAM_MANIFEST_FILE
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise StreamError(
                "{!r} is not a stream run directory (no {})".format(
                    str(self.root), STREAM_MANIFEST_FILE
                )
            )
        except ValueError as exc:
            raise StreamError(
                "stream manifest in {!r} is corrupt: {}".format(
                    str(self.root), exc
                )
            )
        if not isinstance(payload, dict):
            raise StreamError(
                "stream manifest in {!r} holds a {}, not a JSON "
                "object".format(str(self.root), type(payload).__name__)
            )
        if payload.get("format") != STREAM_STATE_FORMAT:
            raise StreamError(
                "stream manifest format {!r} is not {}".format(
                    payload.get("format"), STREAM_STATE_FORMAT
                )
            )
        return payload

    # -- session snapshots -----------------------------------------------
    def save_session(self, session, metrics=None):
        """Atomically commit one session's current state snapshot."""
        payload = session.export_state()
        with stopwatch() as watch:
            path = self.store.save(session_job_id(session.vehicle_id), payload)
        if metrics is not None:
            metrics.inc("stream.checkpoints")
            metrics.observe("stream.checkpoint.seconds", watch.seconds)
        return path

    def session_payload(self, vehicle_id):
        """The committed snapshot dict of one session, or None (what
        ``stream status`` prints from and :meth:`load_session` checks)."""
        job_id = session_job_id(vehicle_id)
        if not self.store.has(job_id):
            return None
        try:
            payload = self.store.load(job_id)
        except Exception as exc:  # corrupt pickle bytes raise anything
            raise StreamError(
                "checkpoint {!r} cannot be read: {}: {}".format(
                    job_id, type(exc).__name__, exc
                )
            )
        if not isinstance(payload, dict):
            raise StreamError(
                "checkpoint {!r} is not a session-state payload".format(
                    job_id
                )
            )
        return payload

    def load_session(self, vehicle_id, config, context, metrics=None):
        """Rebuild one session from its last committed snapshot."""
        payload = self.session_payload(vehicle_id)
        if payload is None:
            return None
        try:
            return VehicleSession.from_state(
                payload, config, context, metrics=metrics
            )
        except (StreamError, IncrementalError) as exc:
            raise StreamError(
                "checkpoint {!r} is not a usable session snapshot: "
                "{}".format(session_job_id(vehicle_id), exc)
            )

    def session_ids(self):
        """Vehicle ids with a committed snapshot, sorted."""
        return sorted(
            job_id[len(_JOB_PREFIX):]
            for job_id in self.store.completed_ids()
            if job_id.startswith(_JOB_PREFIX)
        )

    def checkpoint_mtime(self, vehicle_id):
        """Commit time of one session's snapshot, or None."""
        return self.store.mtime(session_job_id(vehicle_id))

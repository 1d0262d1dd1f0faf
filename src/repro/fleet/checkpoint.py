"""Stage-level checkpointing of per-trace job results.

Every completed per-trace pipeline job is committed here the moment its
outcome lands in the driver: one ``<job_id>.ckpt`` file per job, staged
in a hidden sibling and renamed into place so a kill at any instant
leaves each checkpoint either fully present or fully absent -- the
property ``resume()`` relies on to re-run exactly the jobs whose commits
did not land. The file is :func:`~repro.engine.storage.pack_file`'s: a
CRC'd JSON head with the payload's fields and its ``r_rows`` as one
column section, so loading one runs no stored code, and a damaged one
is one :class:`FleetRunError` naming the job. A checkpoint of the
pickle era (``.pkl``) is never read: ``resume`` re-runs its job.
Failures are recorded as structured JSON rows next to the checkpoints
so ``status`` can print a failure table without re-running anything,
and so ``resume`` knows to retry them.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.engine.errors import ExecutionError
from repro.engine.storage import (
    atomic_write_bytes,
    decode_partition,
    encode_partition,
    names_block,
    pack_file,
    unpack_file,
)
from repro.fleet.errors import FleetRunError

_CHECKPOINT_DIR = "checkpoints"
_FAILURE_DIR = "failures"
_SUFFIX = ".ckpt"
_FORMAT = "repro.fleet.checkpoint/1"


def _names(width):
    """Column names and their names block for ``r_rows`` of *width*."""
    names = ["c{}".format(index) for index in range(width)]
    return names, names_block(names)


class CheckpointStore:
    """Durable per-job results and failure records of one run directory."""

    def __init__(self, run_dir):
        self.root = Path(run_dir)
        self._checkpoints = self.root / _CHECKPOINT_DIR
        self._failures = self.root / _FAILURE_DIR
        self._checkpoints.mkdir(parents=True, exist_ok=True)
        self._failures.mkdir(parents=True, exist_ok=True)

    # -- completed jobs --------------------------------------------------
    def _path(self, job_id):
        return self._checkpoints / (job_id + _SUFFIX)

    def has(self, job_id):
        return self._path(job_id).is_file()

    def save(self, job_id, payload):
        """Atomically commit one job's result payload: JSON data but for
        ``r_rows``, a list of equally wide row tuples."""
        fields, sections, width = dict(payload), [], None
        if "r_rows" in fields:
            rows, fields["r_rows"] = fields["r_rows"], None
            width = len(rows[0]) if rows else 0
            sections.append(encode_partition(
                "fleet job {!r} rows".format(job_id), *_names(width), rows
            ))
        head = {"format": _FORMAT, "payload": fields, "r_width": width}
        path = atomic_write_bytes(self._path(job_id),
                                  pack_file(head, sections))
        # A retried job that now succeeded is no longer failed.
        self.clear_failure(job_id)
        return path

    def load(self, job_id):
        """The payload :meth:`save` committed for *job_id*."""
        path = self._path(job_id)
        try:
            with open(path, "rb") as handle:
                head, sections = unpack_file(handle.read(), _FORMAT)
            payload, width = head["payload"], head["r_width"]
            if len(sections) != (width is not None) or sections and \
                    width not in range(1 << 16):  # a section's column count
                raise ExecutionError("its sections are not its head's")
            if sections:
                payload["r_rows"] = decode_partition(
                    sections[0], _names(width)[1], width
                ).to_rows()
        except (ExecutionError, KeyError, TypeError) as exc:
            raise FleetRunError("fleet job {!r}: checkpoint {} is corrupt: "
                                "{}".format(job_id, path.name, exc))
        return payload

    def completed_ids(self):
        """Sorted ids of all committed checkpoints (staging excluded)."""
        return sorted(
            p.name[: -len(_SUFFIX)]
            for p in self._checkpoints.iterdir()
            if p.name.endswith(_SUFFIX) and not p.name.startswith(".")
        )

    # -- failures --------------------------------------------------------
    def _failure_path(self, job_id):
        return self._failures / (job_id + ".json")

    def record_failure(self, job_id, failure_row):
        """Persist a structured failure row (a :meth:`JobError.to_dict`)."""
        text = json.dumps(failure_row, indent=2, sort_keys=True) + "\n"
        return atomic_write_bytes(self._failure_path(job_id),
                                  text.encode("utf-8"))

    def clear_failure(self, job_id):
        path = self._failure_path(job_id)
        if path.is_file():
            path.unlink()

    def failures(self):
        """{job_id: failure row} for all recorded failures."""
        out = {}
        for path in sorted(self._failures.glob("*.json")):
            if path.name.startswith("."):
                continue
            try:
                out[path.name[:-5]] = json.loads(
                    path.read_text(encoding="utf-8")
                )
            except ValueError:
                # A failure row half-written by a dying process carries
                # no information worth aborting a resume over.
                out[path.name[:-5]] = {"error": "unreadable failure record"}
        return out

    def gc(self):
        """Remove staging debris left by a crash mid-commit."""
        removed = []
        for directory in (self._checkpoints, self._failures):
            for path in sorted(directory.glob(".staging-*")):
                path.unlink()
                removed.append(path.name)
        return removed

"""Stage-level checkpointing of per-trace job results.

Every completed per-trace pipeline job is committed here the moment its
outcome lands in the driver: one pickle file per job id, staged in
a hidden sibling and renamed into place so a kill at any instant leaves
each checkpoint either fully present or fully absent -- the property
``resume()`` relies on to re-run exactly the jobs whose commits did not
land. Failures are recorded as structured JSON rows next to the
checkpoints so ``status`` can print a failure table without re-running
anything, and so ``resume`` knows to retry them.
"""

from __future__ import annotations

import json
import os
import pickle
from pathlib import Path

from repro.fleet.catalog import atomic_write_text

_CHECKPOINT_DIR = "checkpoints"
_FAILURE_DIR = "failures"
_SUFFIX = ".pkl"


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
        """Atomically commit one job's result payload."""
        path = self._path(job_id)
        staging = self._checkpoints / ".staging-{}-{}".format(
            job_id, os.getpid()
        )
        with open(staging, "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(staging, path)
        # A retried job that now succeeded is no longer failed.
        self.clear_failure(job_id)
        return path

    def load(self, job_id):
        with open(self._path(job_id), "rb") as handle:
            return pickle.load(handle)

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
        return atomic_write_text(self._failure_path(job_id), text)

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

"""Exception hierarchy of the fleet orchestration layer.

Mirrors the engine's split between configuration problems, durable-state
problems and per-job execution failures. The important invariant is that
a :class:`JobError` is *contained*: one trace's crash marks that job
failed (with structured coordinates naming the trace and stage) and the
sweep continues -- it never takes down the whole run the way an
uncaught exception in the driver would.
"""

from __future__ import annotations


class FleetRunError(Exception):
    """Base class for fleet orchestration errors (driver-side)."""


class CatalogError(FleetRunError):
    """The job catalog is missing, corrupt, or inconsistent."""


class JobError(FleetRunError):
    """One job failed: its exception, its worker's death, or a result
    the driver could not read.

    Carries the structured coordinates of the failure -- which trace,
    which pipeline stage -- so failure tables and CLIs can name the
    problem without parsing message strings.
    """

    def __init__(self, message, job_id=None, trace=None, stage=None,
                 cause=None):
        super().__init__(message)
        self.job_id = job_id
        self.trace = trace
        self.stage = stage
        self.cause = cause

    def to_dict(self):
        """JSON-safe failure row for checkpointing and reports."""
        return {
            "job_id": self.job_id,
            "trace": self.trace,
            "stage": self.stage,
            "error": str(self),
            "cause": type(self.cause).__name__ if self.cause else None,
        }
